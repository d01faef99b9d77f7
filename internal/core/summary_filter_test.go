package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/obs"
	"climber/internal/storage"
)

// summaryIndex builds a 3 000-record index of one generator's data and lands
// 60 more records of the same generator in partition tails, so scans cover
// bases and tails both; with delta, 60 more sit in an installed delta
// (summaryDelta). It returns the index and queries: indexed records, series
// the index never saw and, with delta, delta records.
func summaryIndex(t *testing.T, name string, delta bool) (*Index, [][]float64) {
	t.Helper()
	all, err := dataset.ByName(name, 3130, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := all.Slice(0, 3000)
	cfg := testConfig()
	ix, err := Build(cluster.New(t.TempDir(), 2), cluster.Blocks(base, cfg.BlockSize), cfg, "sum")
	if err != nil {
		t.Fatal(err)
	}
	routed := func(from int) []Routed {
		first := ix.ReserveIDs(60)
		recs := make([]Routed, 60)
		for i := range recs {
			vals := make([]float64, all.Length())
			for j, v := range all.Get(from + i) {
				vals[j] = float64(float32(v))
			}
			recs[i] = Routed{ID: first + i, Route: ix.RouteNew(first+i, vals), Values: vals}
		}
		return recs
	}
	if _, err := ix.WriteRouted(routed(3000)); err != nil {
		t.Fatal(err)
	}
	tailed := 0
	for pid := range ix.Partitions().Paths {
		if _, tail := ix.Partitions().Tail(pid); tail > 0 {
			tailed++
		}
	}
	if tailed == 0 {
		t.Fatal("no partition tail to scan")
	}
	_, qs := dataset.Queries(base, 4, 11)
	for i := 3060; i < 3070; i += 3 {
		qs = append(qs, all.Get(i))
	}
	if delta {
		withDelta(ix, summaryDelta(t, routed(3070)))
		for i := 3070; i < 3130; i += 20 {
			qs = append(qs, all.Get(i))
		}
	}
	return ix, qs
}

// testDelta is a DeltaSource holding one run per route, encoded by
// storage.AppendRecord as the ingestion delta encodes its runs.
type testDelta struct {
	runs    map[cluster.Route]*[2][]byte // records, summaries
	records int
}

func summaryDelta(t *testing.T, recs []Routed) *testDelta {
	t.Helper()
	d := &testDelta{runs: map[cluster.Route]*[2][]byte{}, records: len(recs)}
	for _, r := range recs {
		run := d.runs[r.Route]
		if run == nil {
			run = new([2][]byte)
			d.runs[r.Route] = run
		}
		var err error
		if run[0], run[1], err = storage.AppendRecord(run[0], run[1], r.ID, r.Values); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// withDelta publishes the current view again with d as its delta, as the
// ingestion pipeline's open publishes its view with the replayed delta.
func withDelta(ix *Index, d DeltaSource) {
	ix.SwapGeneration(NewGeneration(ix.Skeleton(), ix.Partitions(), d))
}

func (d *testDelta) ScanRuns(pid int, fn func(c storage.ClusterID, recs, sums []byte) error) error {
	for route, run := range d.runs {
		if route.Partition != pid {
			continue
		}
		if err := fn(route.Cluster, run[0], run[1]); err != nil {
			return err
		}
	}
	return nil
}

func (d *testDelta) Len() int { return d.records }

// answer is what one query returned: results and statistics.
type answer struct {
	res   *SearchResult
	label string
}

// runSummaryQueries answers every query under every variant, K ∈ {1, 50,
// 200}, whole and as a prefix. It also returns the records the delta stage
// skipped by their summaries, read from the "delta" spans of its steps.
func runSummaryQueries(t *testing.T, ix *Index, qs [][]float64) (out []answer, deltaPruned int64) {
	t.Helper()
	for qi, q := range qs {
		for _, v := range []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest} {
			for _, k := range []int{1, 50, 200} {
				for _, prefix := range []bool{false, true} {
					query := q
					if prefix {
						query = q[:len(q)*3/4]
					}
					tr := obs.NewTrace("search", "")
					res, err := ix.Query(obs.ContextWithSpan(context.Background(), tr.Root()), query, SearchOptions{K: k, Variant: v, Prefix: prefix}, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, stage := range tr.Root().Data().Children {
						for _, step := range stage.Children {
							for _, d := range step.Children {
								if d.Name == "delta" {
									deltaPruned += d.Attrs["pruned"]
								}
							}
						}
					}
					out = append(out, answer{res, fmt.Sprintf("query %d %v K=%d prefix=%v", qi, v, k, prefix)})
				}
			}
		}
	}
	return out, deltaPruned
}

// assertSameAnswers requires bit-identical results and identical
// statistics.
func assertSameAnswers(t *testing.T, what string, got, want []answer) {
	t.Helper()
	for i := range want {
		assertSameResults(t, what+": "+want[i].label, got[i].res.Results, want[i].res.Results)
		if !reflect.DeepEqual(got[i].res.Stats, want[i].res.Stats) {
			t.Fatalf("%s: %s: stats %+v, want %+v", what, want[i].label, got[i].res.Stats, want[i].res.Stats)
		}
	}
}

// TestSummaryFilterBitIdentical pins the summary filter as exact: with it
// (summaryFilter) and without it, every query answers the same results, bit
// for bit and in the same (distance, ID) tie order, with the same
// statistics — on random-walk, EEG, SIFT-like and DNA data, under all four
// variants, for K of 1, 50 and 200, whole and prefix queries, over partitions
// with live tails and a live delta, whose runs the delta stage ranks with the
// same scan. It holds at both summary widths: the files as written (version
// 4) and with every base rewritten in version 3, beside version-4 tails and
// delta runs. The filter must also have skipped records on each dataset, in
// the partitions and in the delta, or the comparison proves nothing.
func TestSummaryFilterBitIdentical(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			for _, version := range []int{4, 3} {
				t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
					ix, qs := summaryIndex(t, name, true)
					rewriteFiles(t, ix, version, false)
					defer func() { summaryFilter = true }()
					summaryFilter = false
					want, unfiltered := runSummaryQueries(t, ix, qs)
					summaryFilter = true
					pruned := ix.Cl.Stats.ScanPrunedRecords.Load()
					got, deltaPruned := runSummaryQueries(t, ix, qs)
					assertSameAnswers(t, name, got, want)
					if unfiltered != 0 {
						t.Fatalf("%s: the delta stage skipped %d records with the filter off", name, unfiltered)
					}
					if deltaPruned == 0 {
						t.Fatalf("%s: the filter skipped no delta record", name)
					}
					if ix.Cl.Stats.ScanPrunedRecords.Load()-pruned == deltaPruned {
						t.Fatalf("%s: the filter skipped no partition record", name)
					}
				})
			}
		})
	}
}

// rewriteFiles rewrites every partition base of ix's view in the given
// format version (storage.Reformat), and every tail too when tails is set,
// and unregisters each file's mapping, since it changed under its name. It
// returns the files rewritten and a partition with a tail, or -1.
func rewriteFiles(t *testing.T, ix *Index, version int, tails bool) (files []string, tailed int) {
	t.Helper()
	parts := ix.Partitions()
	tailed = -1
	for pid, path := range parts.Paths {
		files = append(files, path)
		if tail, _ := parts.Tail(pid); tail != "" {
			tailed = pid
			if tails {
				files = append(files, tail)
			}
		}
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := storage.Reformat(raw, version)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, out, 0o644); err != nil {
			t.Fatal(err)
		}
		ix.Cl.Retire(f) // the file changed under its name: map it again
	}
	return files, tailed
}

// fileVersion opens the partition file at path and returns its format
// version and summary width.
func fileVersion(t *testing.T, path string) (version, width int) {
	t.Helper()
	p, err := storage.OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	return p.Version(), p.SummaryWidth()
}

// TestVersion2PartitionsAnswerUnfiltered rewrites every partition file of an
// index, tails included, in the summary-less version-2 format: the files
// open, answer exactly as the version-4 files did, and skip nothing. A fold
// then writes its base back in version 4.
func TestVersion2PartitionsAnswerUnfiltered(t *testing.T) {
	ix, qs := summaryIndex(t, "randomwalk", false)
	want, _ := runSummaryQueries(t, ix, qs)

	_, tailed := rewriteFiles(t, ix, 2, true)
	pruned := ix.Cl.Stats.ScanPrunedRecords.Load()
	got, _ := runSummaryQueries(t, ix, qs)
	assertSameAnswers(t, "version 2", got, want)
	if n := ix.Cl.Stats.ScanPrunedRecords.Load() - pruned; n != 0 {
		t.Fatalf("version-2 files skipped %d records: they have no summaries", n)
	}

	if _, err := ix.FoldTails(); err != nil {
		t.Fatal(err)
	}
	if v, _ := fileVersion(t, ix.Partitions().Paths[tailed]); v != 4 {
		t.Fatalf("a folded base is of version %d, want 4", v)
	}
}

// TestVersion3PartitionsAnswerFiltered rewrites every partition base of an
// index in version 3, one summary byte per 16 readings, beside its
// version-4 tail and a version-4 delta: the view answers bit for bit as the
// version-4 files did, under every variant, whole and prefix queries, and
// its scans filter the version-3 files at their own width — they skip
// records, and fewer than the version-4 files did, since a segment twice as
// long bounds less. A fold then writes a base back in version 4.
func TestVersion3PartitionsAnswerFiltered(t *testing.T) {
	ix, qs := summaryIndex(t, "randomwalk", true)
	pruned := ix.Cl.Stats.ScanPrunedRecords.Load()
	want, wantDelta := runSummaryQueries(t, ix, qs)
	pruned4 := ix.Cl.Stats.ScanPrunedRecords.Load() - pruned - wantDelta

	bases, tailed := rewriteFiles(t, ix, 3, false)
	n := ix.Partitions().SeriesLen
	for _, f := range bases {
		if v, w := fileVersion(t, f); v != 3 || w != max(1, n/16) {
			t.Fatalf("%s: version %d of width %d, want 3 of width %d", f, v, w, max(1, n/16))
		}
	}
	if tailed < 0 {
		t.Fatal("no partition with a tail")
	}
	tail, _ := ix.Partitions().Tail(tailed)
	if v, w := fileVersion(t, tail); v != 4 || w != storage.SummaryBytes(n) {
		t.Fatalf("tail %s: version %d of width %d, want 4 of width %d", tail, v, w, storage.SummaryBytes(n))
	}
	pruned = ix.Cl.Stats.ScanPrunedRecords.Load()
	got, gotDelta := runSummaryQueries(t, ix, qs)
	pruned3 := ix.Cl.Stats.ScanPrunedRecords.Load() - pruned - gotDelta
	assertSameAnswers(t, "version 3", got, want)
	t.Logf("records skipped: version-3 files %d, version-4 files %d", pruned3, pruned4)
	if pruned3 == 0 || pruned3 >= pruned4 {
		t.Fatalf("version-3 files skipped %d records, version-4 files %d: want some, and fewer", pruned3, pruned4)
	}

	if _, err := ix.FoldTails(); err != nil {
		t.Fatal(err)
	}
	if v, _ := fileVersion(t, ix.Partitions().Paths[tailed]); v != 4 {
		t.Fatalf("a folded base is of version %d, want 4", v)
	}
}
