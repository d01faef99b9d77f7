package core

import (
	"context"
	"testing"

	"climber/internal/dataset"
	"climber/internal/series"
	"climber/internal/storage"
)

// assertSameResults fails unless two answers are bit-for-bit identical:
// same length, same IDs, and exactly equal float64 distances (no epsilon).
func assertSameResults(t *testing.T, label string, got, want []series.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, legacy returned %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: result %d = {ID:%d Dist:%v}, legacy {ID:%d Dist:%v}",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// assertSameEffort fails unless the engine charged exactly the effort the
// legacy path did — same plan coverage, record comparisons and I/O volume.
func assertSameEffort(t *testing.T, label string, got, want QueryStats) {
	t.Helper()
	if got.PartitionsScanned != want.PartitionsScanned ||
		got.RecordsScanned != want.RecordsScanned ||
		got.BytesLoaded != want.BytesLoaded ||
		got.GroupsConsidered != want.GroupsConsidered ||
		got.TargetNodeSize != want.TargetNodeSize ||
		got.TargetPathLen != want.TargetPathLen {
		t.Fatalf("%s: effort diverged from legacy:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestEngineMatchesLegacyBitForBit pins the planner/executor engine to the
// pre-refactor monolith (legacy_search_test.go): for every variant, across
// K values spanning "node holds plenty" to "widening must kick in", on two
// index granularities, the staged engine must return bit-for-bit identical
// (ID, distance) answers and charge identical effort. Run-to-completion
// progressive execution must match too — sequential stepping may not
// change the answer.
func TestEngineMatchesLegacyBitForBit(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
		n    int
	}{
		{"default", testConfig(), 2500},
		{"fine-partitions", func() Config {
			cfg := testConfig()
			cfg.Capacity = 50 // many small partitions: multi-step adaptive plans
			return cfg
		}(), 2000},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			ix, ds, _, _ := buildTestIndex(t, tc.n, tc.cfg)
			_, qs := dataset.Queries(ds, 12, 42)
			variants := []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest}
			for qi, q := range qs {
				for _, v := range variants {
					for _, k := range []int{1, 20, 200} {
						opts := SearchOptions{K: k, Variant: v}
						want, err := legacySearchContext(context.Background(), ix, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := ix.Search(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						label := tc.name + "/" + v.String()
						assertSameResults(t, label, got.Results, want.Results)
						assertSameEffort(t, label, got.Stats, want.Stats)

						// Progressive run-to-completion: same answer again.
						prog, err := ix.Query(context.Background(), q, opts, func(Snapshot) bool { return true })
						if err != nil {
							t.Fatal(err)
						}
						assertSameResults(t, label+"/progressive", prog.Results, want.Results)
						assertSameEffort(t, label+"/progressive", prog.Stats, want.Stats)
					}
				}
				// Prefix queries against the legacy prefix path.
				for _, plen := range []int{16, 33, 63} {
					opts := SearchOptions{K: 20, Variant: VariantAdaptive4X}
					want, err := legacySearchPrefixContext(context.Background(), ix, q[:plen], opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := searchPrefix(ix, q[:plen], opts)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResults(t, tc.name+"/prefix", got.Results, want.Results)
					assertSameEffort(t, tc.name+"/prefix", got.Stats, want.Stats)
				}
				_ = qi
			}
		})
	}
}

// TestEngineBitIdenticalAcrossBackends pins the zero-copy read path: the
// same query must return bit-for-bit identical answers and charge identical
// record-comparison effort whether partitions are memory-mapped — at the
// first open, then held — or copied onto the heap at every open because
// mapping failed (storage.FailMappings). The raw kernel runs over the same
// encoded bytes in both, so any divergence means a backing leaked into the
// ranking math.
func TestEngineBitIdenticalAcrossBackends(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 50 // many partitions so plans span several backends' loads
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	_, qs := dataset.Queries(ds, 8, 99)

	type answer struct {
		results []series.Result
		scanned int
	}
	run := func(t *testing.T) []answer {
		t.Helper()
		out := make([]answer, 0, len(qs)*2)
		for _, q := range qs {
			for _, opts := range []SearchOptions{
				{K: 25, Variant: VariantAdaptive4X},
				{K: 5, Variant: VariantKNN},
			} {
				res, err := ix.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, answer{res.Results, res.Stats.RecordsScanned})
			}
		}
		return out
	}

	want := run(t)

	for _, backing := range []string{"mmap", "heap"} {
		t.Run(backing, func(t *testing.T) {
			heap := backing == "heap"
			if !heap && !storage.MapSupported() {
				t.Skip("mmap unsupported on this platform")
			}
			if heap {
				defer storage.FailMappings()()
			}
			ix.Cl.Retire(ix.Partitions().Files()...) // start with nothing mapped
			fallbacks := ix.Cl.Stats.MapFallbacks.Load()
			var loads [2]int64
			for pass := 0; pass < 2; pass++ { // first opens, then again
				got := run(t)
				for i := range got {
					assertSameResults(t, backing, got[i].results, want[i].results)
					if got[i].scanned != want[i].scanned {
						t.Fatalf("%s pass %d: scanned %d records, the first run scanned %d",
							backing, pass, got[i].scanned, want[i].scanned)
					}
				}
				loads[pass] = ix.Cl.Stats.PartitionsLoaded.Load()
			}
			// Held mappings load nothing the second time; heap copies are
			// loaded at every open.
			if again := loads[1] > loads[0]; again != heap {
				t.Fatalf("%s: second pass loaded partitions = %v", backing, again)
			}
			if moved := ix.Cl.Stats.MapFallbacks.Load() > fallbacks; moved != heap {
				t.Fatalf("%s: map fallbacks moved = %v", backing, moved)
			}
		})
	}
}

// The MaxPartitions plan override must shrink adaptive plans exactly as the
// legacy path did.
func TestEngineMatchesLegacyWithPlanCap(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 50
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	_, qs := dataset.Queries(ds, 6, 7)
	for _, q := range qs {
		opts := SearchOptions{K: 500, Variant: VariantAdaptive4X, MaxPartitions: 2}
		want, err := legacySearchContext(context.Background(), ix, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "plan-cap", got.Results, want.Results)
		assertSameEffort(t, "plan-cap", got.Stats, want.Stats)
	}
}
