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

// A delta ranked beside the partitions changes what a query finds, never the
// partition effort it spends: with and without an installed delta every
// query loads the same partitions, compares the same partition records
// (RecordsScanned − DeltaScanned), runs the same steps and stops for the same
// reason, because the widen decision and Budget.MinRecords count partition
// records only. The delta crowds record 700's cluster, one of two in its
// partition, with copies of it, more than K, so a step's delta records alone
// fill the top-k there.
func TestDeltaLeavesPartitionEffortAlone(t *testing.T) {
	ix, ds, _, _ := buildTestIndex(t, 1500, testConfig())
	recs := copiesOf(ix, ds.Get(700), 400)
	qs := [][]float64{ds.Get(700), ds.Get(3)}
	var opts []SearchOptions
	for _, v := range []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest} {
		for _, k := range []int{10, 150, 300} {
			opts = append(opts, SearchOptions{K: k, Variant: v}, SearchOptions{K: k, Variant: v, Budget: Budget{MinRecords: 120}})
		}
	}
	answer := func() (out []QueryStats) {
		for _, q := range qs {
			for _, o := range opts {
				res, err := ix.Search(q, o)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res.Stats)
			}
		}
		return out
	}
	without := answer()
	withDelta(ix, summaryDelta(t, recs))
	with := answer()
	crowded := 0
	for i, got := range with {
		want := without[i]
		if o := opts[i%len(opts)]; o.Variant != VariantODSmallest && o.Budget.MinRecords == 0 &&
			got.DeltaScanned >= o.K && want.RecordsScanned < o.K {
			crowded++ // widened without the delta, and must still widen with it
		}
		got.RecordsScanned -= got.DeltaScanned
		got.DeltaScanned = 0
		if got != want {
			t.Fatalf("query %d %+v: partition effort with the delta %+v, without %+v", i/len(opts), opts[i%len(opts)], got, want)
		}
	}
	if crowded == 0 {
		t.Fatal("test premise broken: no query ranked more than K delta records beside fewer than K partition records")
	}
}

// A widening step ranks every delta cluster its planned step did not,
// clusters the partition's file does not list included: a record routed to
// a cluster no build record went to is found once its query widens, or
// scans its partition whole.
func TestWideningRanksDeltaOnlyClusters(t *testing.T) {
	ix, ds, _, _ := buildTestIndex(t, 1500, testConfig())
	rec := copiesOf(ix, ds.Get(700), 1)
	rec[0].Route.Cluster = 1 << 30 // listed by no partition file
	id := rec[0].ID
	withDelta(ix, summaryDelta(t, rec))
	for _, v := range []Variant{VariantKNN, VariantODSmallest} {
		res, err := ix.Search(ds.Get(700), SearchOptions{K: 150, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res.Results {
			found = found || r.ID == id && r.Dist == 0
		}
		if !found || res.Stats.DeltaScanned != 1 {
			t.Fatalf("%v: the delta-only record %d found %v, %d delta records scanned", v, id, found, res.Stats.DeltaScanned)
		}
	}
}

// copiesOf routes n copies of series s, rounded to float32 as the index
// stores them, under fresh IDs.
func copiesOf(ix *Index, s []float64, n int) []Routed {
	vals := make([]float64, len(s))
	for j, v := range s {
		vals[j] = float64(float32(v))
	}
	first := ix.ReserveIDs(n)
	recs := make([]Routed, n)
	for i := range recs {
		recs[i] = Routed{ID: first + i, Route: ix.RouteNew(first+i, vals), Values: vals}
	}
	return recs
}
