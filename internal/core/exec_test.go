package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/obs"
)

// alwaysOn is a progressive sink that never stops the query: it only makes
// the executor emit a snapshot after every step.
func alwaysOn(Snapshot) bool { return true }

// The executor runs a plan with and without a sink — a snapshot after every
// step, or none. The two must be one execution: with a sink that never
// stops, every budget, variant and K gives the sinkless answer bit for bit,
// with the same effort, the same records pruned by summary and the same
// partial marking.
func TestStepwiseAndConcurrentModesAgree(t *testing.T) {
	ix, qs := progressiveFixture(t)
	budgets := []struct {
		name string
		b    Budget
	}{
		{"none", Budget{}},
		{"max-partitions-1", Budget{MaxPartitions: 1}},
		{"max-partitions-2", Budget{MaxPartitions: 2}},
		{"deadline-1h", Budget{Deadline: time.Now().Add(time.Hour)}},
		{"min-records-huge", Budget{MinRecords: 1 << 30}},
	}
	variants := []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest}
	for _, bc := range budgets {
		for _, v := range variants {
			for _, k := range []int{1, 20, 200} {
				for qi, q := range qs {
					label := fmt.Sprintf("%s/%v/K=%d/q%d", bc.name, v, k, qi)
					opts := SearchOptions{K: k, Variant: v, Budget: bc.b}
					pruned := ix.Cl.Stats.ScanPrunedRecords.Load()
					want, err := ix.Query(context.Background(), q, opts, nil)
					if err != nil {
						t.Fatal(err)
					}
					wantPruned := ix.Cl.Stats.ScanPrunedRecords.Load() - pruned
					pruned = ix.Cl.Stats.ScanPrunedRecords.Load()
					got, err := ix.Query(context.Background(), q, opts, alwaysOn)
					if err != nil {
						t.Fatal(err)
					}
					gotPruned := ix.Cl.Stats.ScanPrunedRecords.Load() - pruned
					assertSameResults(t, label, got.Results, want.Results)
					g, w := got.Stats, want.Stats
					if g.PartitionsScanned != w.PartitionsScanned || g.RecordsScanned != w.RecordsScanned ||
						g.BytesLoaded != w.BytesLoaded || g.StepsExecuted != w.StepsExecuted ||
						g.Partial != w.Partial || g.BudgetExhausted != w.BudgetExhausted {
						t.Fatalf("%s: stats with a sink diverged from sinkless:\n got %+v\nwant %+v", label, g, w)
					}
					if gotPruned != wantPruned {
						t.Fatalf("%s: stepwise pruned %d records, sinkless %d", label, gotPruned, wantPruned)
					}
				}
			}
		}
	}
}

// A MaxPartitions budget caps partition loads, not work inside a loaded
// partition: a truncated query whose K exceeds its target node still widens
// over the whole partition it loaded.
func TestMaxPartitionsTruncatedQueryStillWidens(t *testing.T) {
	ix, qs := progressiveFixture(t)
	truncated := 0
	for qi, q := range qs {
		tr := obs.NewTrace("search", "")
		ctx := obs.ContextWithSpan(context.Background(), tr.Root())
		opts := SearchOptions{K: 500, Variant: VariantAdaptive4X, Budget: Budget{MaxPartitions: 1}, Explain: true}
		res, err := ix.Query(ctx, q, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if !st.Partial {
			continue // the plan fit the cap
		}
		truncated++
		if st.BudgetExhausted != BudgetMaxPartitions || st.StepsExecuted != 1 || st.PartitionsScanned != 1 ||
			res.Explain.TargetNodeSize >= opts.K {
			t.Fatalf("q%d: want a max-partitions stop after one step below K: %+v", qi, st)
		}
		pid := res.Explain.Plan[0].Partition
		var widened []int64
		for _, stage := range tr.Root().Data().Children {
			for _, c := range stage.Children {
				if stage.Name == "widen" {
					widened = append(widened, c.Attrs["partition"])
				}
			}
		}
		if len(widened) != 1 || widened[0] != int64(pid) {
			t.Fatalf("q%d: widened partitions %v, want [%d]", qi, widened, pid)
		}
		p, err := ix.Cl.OpenPartition(ix.Partitions(), pid)
		if err != nil {
			t.Fatal(err)
		}
		count := p.Count()
		p.Close()
		if st.RecordsScanned != count {
			t.Fatalf("q%d: compared %d records, want all %d of the widened partition %d", qi, st.RecordsScanned, count, pid)
		}
	}
	if truncated == 0 {
		t.Fatal("no query was truncated by the budget; fixture too coarse")
	}
}

// tieIndex builds an index over random walks rounded to whole numbers, so
// squared distances are integers and many records tie, at the k-th distance
// too.
func tieIndex(t *testing.T) (*Index, [][]float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Capacity = 50
	ds := dataset.RandomWalk(64, 2000, 23)
	vals := ds.Values()
	for i := range vals {
		vals[i] = math.Round(vals[i])
	}
	ix, err := Build(cluster.New(t.TempDir(), 2), cluster.Blocks(ds, cfg.BlockSize), cfg, "test")
	if err != nil {
		t.Fatal(err)
	}
	_, qs := dataset.Queries(ds, 8, 29)
	return ix, qs
}

// A tie at the k-th distance is decided by ID, not by which partition scan
// got there first: a plain query's answer equals the one with a progress
// sink on every repetition, whichever step reached the tie first.
func TestTiesIndependentOfScanMode(t *testing.T) {
	ix, qs := tieIndex(t)
	const k = 20
	tied := 0
	for qi, q := range qs {
		// Evidence the fixture has ties to decide: the (k+1)-th candidate
		// of the widest plan is as far as the k-th.
		wider, err := ix.Search(q, SearchOptions{K: k + 1, Variant: VariantODSmallest})
		if err != nil {
			t.Fatal(err)
		}
		if r := wider.Results; len(r) == k+1 && r[k].Dist == r[k-1].Dist {
			tied++
		}
		for _, v := range []Variant{VariantAdaptive4X, VariantODSmallest} {
			opts := SearchOptions{K: k, Variant: v}
			want, err := ix.Query(context.Background(), q, opts, alwaysOn)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 20; rep++ {
				got, err := ix.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("q%d/%v/rep%d", qi, v, rep), got.Results, want.Results)
			}
		}
	}
	if tied == 0 {
		t.Fatal("no query had a tie at the k-th distance; the fixture does not exercise ties")
	}
}
