package core

import (
	"context"
	"testing"
	"time"

	"climber/internal/dataset"
)

// progressiveFixture builds an index whose adaptive plans span many
// partitions, so budgets and snapshots have steps to bite on.
func progressiveFixture(t *testing.T) (*Index, [][]float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Capacity = 50
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	_, qs := dataset.Queries(ds, 8, 21)
	return ix, qs
}

// Snapshots must be monotonically non-worsening: the result count never
// shrinks, the k-th distance never grows, and the final snapshot is exactly
// the returned answer.
func TestProgressiveSnapshotsMonotonic(t *testing.T) {
	ix, qs := progressiveFixture(t)
	for _, q := range qs {
		var snaps []Snapshot
		res, err := ix.Query(context.Background(), q, SearchOptions{K: 50, Variant: VariantAdaptive4X},
			func(s Snapshot) bool {
				snaps = append(snaps, s)
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) == 0 {
			t.Fatal("no snapshots emitted")
		}
		last := snaps[len(snaps)-1]
		if !last.Final {
			t.Fatal("last snapshot not marked final")
		}
		assertSameResults(t, "final snapshot", last.Results, res.Results)
		for i := 1; i < len(snaps); i++ {
			prev, cur := snaps[i-1], snaps[i]
			if len(cur.Results) < len(prev.Results) {
				t.Fatalf("snapshot %d shrank: %d -> %d results", i, len(prev.Results), len(cur.Results))
			}
			if len(prev.Results) > 0 && len(cur.Results) >= len(prev.Results) {
				pk := prev.Results[len(prev.Results)-1].Dist
				ck := cur.Results[len(prev.Results)-1].Dist
				if ck > pk {
					t.Fatalf("snapshot %d worsened: k-th distance %v -> %v", i, pk, ck)
				}
			}
			if cur.Step < prev.Step {
				t.Fatalf("snapshot %d step went backwards: %d -> %d", i, prev.Step, cur.Step)
			}
		}
		// Per-step snapshots (widening/final snapshots may repeat the last
		// step count): at least one snapshot per executed plan step.
		if res.Stats.StepsExecuted > len(snaps) {
			t.Fatalf("%d steps executed but only %d snapshots", res.Stats.StepsExecuted, len(snaps))
		}
	}
}

// A MaxPartitions execution budget must cap partition loads for every
// variant and mark truncated answers partial.
func TestBudgetMaxPartitions(t *testing.T) {
	ix, qs := progressiveFixture(t)
	sawPartial := false
	for _, q := range qs {
		for _, v := range []Variant{VariantKNN, VariantAdaptive4X, VariantODSmallest} {
			full, err := ix.Search(q, SearchOptions{K: 200, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ix.Search(q, SearchOptions{K: 200, Variant: v, Budget: Budget{MaxPartitions: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PartitionsScanned > 1 {
				t.Fatalf("%v: budget 1 but scanned %d partitions", v, res.Stats.PartitionsScanned)
			}
			if full.Stats.PartitionsScanned > 1 {
				// The unbudgeted plan wanted more: the budgeted answer must
				// say so.
				if !res.Stats.Partial || res.Stats.BudgetExhausted != BudgetMaxPartitions {
					t.Fatalf("%v: truncated answer not marked partial: %+v", v, res.Stats)
				}
				if res.Stats.StepsExecuted >= res.Stats.StepsPlanned {
					t.Fatalf("%v: partial answer executed all %d steps", v, res.Stats.StepsPlanned)
				}
				sawPartial = true
			} else if res.Stats.Partial {
				t.Fatalf("%v: answer partial although the plan fit the budget: %+v", v, res.Stats)
			}
		}
	}
	if !sawPartial {
		t.Fatal("no query produced a truncated plan; fixture too coarse to test budgets")
	}
}

// An already-expired deadline still executes the first plan step (an
// anytime answer always carries candidates) and stops right after.
func TestBudgetDeadlineExpired(t *testing.T) {
	ix, qs := progressiveFixture(t)
	sawPartial := false
	for _, q := range qs {
		res, err := ix.Search(q, SearchOptions{
			K: 200, Variant: VariantODSmallest,
			Budget: Budget{Deadline: time.Now().Add(-time.Second)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.StepsExecuted != 1 {
			t.Fatalf("expired deadline executed %d steps, want exactly 1", res.Stats.StepsExecuted)
		}
		if len(res.Results) == 0 {
			t.Fatal("expired deadline returned no results at all")
		}
		if res.Stats.StepsPlanned > 1 {
			if !res.Stats.Partial || res.Stats.BudgetExhausted != BudgetDeadline {
				t.Fatalf("truncated answer not marked deadline-partial: %+v", res.Stats)
			}
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no multi-step OD-Smallest plan in the fixture")
	}
}

// A generous deadline changes nothing: the answer matches the unbudgeted
// one bit for bit and is not partial.
func TestBudgetDeadlineGenerous(t *testing.T) {
	ix, qs := progressiveFixture(t)
	for _, q := range qs {
		opts := SearchOptions{K: 50, Variant: VariantAdaptive4X}
		want, err := ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Budget = Budget{Deadline: time.Now().Add(time.Hour)}
		got, err := ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Partial {
			t.Fatalf("generous deadline marked partial: %+v", got.Stats)
		}
		assertSameResults(t, "generous deadline", got.Results, want.Results)
	}
}

// The MinRecords recall proxy stops the scan once enough candidates were
// compared.
func TestBudgetMinRecords(t *testing.T) {
	ix, qs := progressiveFixture(t)
	sawPartial := false
	for _, q := range qs {
		res, err := ix.Search(q, SearchOptions{
			K: 200, Variant: VariantODSmallest,
			Budget: Budget{MinRecords: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.StepsExecuted != 1 {
			t.Fatalf("min-records=1 executed %d steps, want 1", res.Stats.StepsExecuted)
		}
		if res.Stats.StepsPlanned > 1 {
			if !res.Stats.Partial || res.Stats.BudgetExhausted != BudgetMinRecords {
				t.Fatalf("truncated answer not marked min-records-partial: %+v", res.Stats)
			}
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no multi-step plan exercised the min-records budget")
	}
}

// A sink returning false stops the query with a callback-partial answer
// containing the snapshots seen so far — and is never invoked again after
// returning false (the consumer may have torn down its receiving state).
func TestProgressiveCallbackStops(t *testing.T) {
	ix, qs := progressiveFixture(t)
	for _, q := range qs {
		calls, stopped := 0, false
		res, err := ix.Query(context.Background(), q,
			SearchOptions{K: 200, Variant: VariantODSmallest},
			func(s Snapshot) bool {
				if stopped {
					t.Fatal("sink invoked again after returning false")
				}
				calls++
				stopped = true
				return false // satisfied after the first answer
			})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("sink called %d times, want exactly 1", calls)
		}
		if res.Stats.StepsExecuted != 1 {
			t.Fatalf("stopped sink executed %d steps, want 1", res.Stats.StepsExecuted)
		}
		if res.Stats.StepsPlanned > 1 && (!res.Stats.Partial || res.Stats.BudgetExhausted != BudgetCallback) {
			t.Fatalf("callback-stopped answer not marked partial: %+v", res.Stats)
		}
	}
}

// The MinRecords budget keeps applying through the widening stage: a query
// whose planned clusters undershoot the budget must not blow past it by an
// unbounded widening scan.
func TestBudgetMinRecordsBoundsWidening(t *testing.T) {
	ix, qs := progressiveFixture(t)
	sawBounded := false
	for _, q := range qs {
		full, err := ix.Search(q, SearchOptions{K: 500, Variant: VariantKNN})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.Search(q, SearchOptions{
			K: 500, Variant: VariantKNN,
			Budget: Budget{MinRecords: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The planned clusters alone exceed MinRecords=1, so widening must
		// not run: strictly fewer comparisons than the unbudgeted query
		// whenever that query's widening did any work.
		if full.Stats.RecordsScanned > res.Stats.RecordsScanned {
			if !res.Stats.Partial || res.Stats.BudgetExhausted != BudgetMinRecords {
				t.Fatalf("widening-bounded answer not marked min-records-partial: %+v", res.Stats)
			}
			sawBounded = true
		} else if full.Stats.RecordsScanned < res.Stats.RecordsScanned {
			t.Fatalf("budgeted query compared more records (%d) than unbudgeted (%d)",
				res.Stats.RecordsScanned, full.Stats.RecordsScanned)
		}
	}
	if !sawBounded {
		t.Fatal("no query widened in the fixture; min-records bounding not exercised")
	}
}

// Progressive prefix search shares the engine: run-to-completion must match
// the plain prefix answer.
func TestProgressivePrefixMatchesPlain(t *testing.T) {
	ix, qs := progressiveFixture(t)
	for _, q := range qs[:3] {
		opts := SearchOptions{K: 20, Variant: VariantAdaptive4X, Prefix: true}
		want, err := ix.Search(q[:32], opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(context.Background(), q[:32], opts, func(Snapshot) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "progressive prefix", got.Results, want.Results)
	}
}

// Every progressive snapshot holds the fresh writes of the steps run so far:
// the first snapshot of a query for record 700, whose copy sits in the
// delta, already ranks the copy at distance 0.
func TestSnapshotsHoldFreshWrites(t *testing.T) {
	ix, ds, _, _ := buildTestIndex(t, 1500, testConfig())
	rec := copiesOf(ix, ds.Get(700), 1)
	id := rec[0].ID
	withDelta(ix, summaryDelta(t, rec))
	var first *Snapshot
	_, err := ix.Query(context.Background(), ds.Get(700), SearchOptions{K: 10, Variant: VariantAdaptive4X}, func(s Snapshot) bool {
		if first == nil {
			first = &s
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range first.Results {
		found = found || r.ID == id && r.Dist == 0
	}
	if first.Final || !found || first.Stats.DeltaScanned != 1 {
		t.Fatalf("first snapshot (final %v, %d delta records scanned) lacks the fresh write %d: %+v", first.Final, first.Stats.DeltaScanned, id, first.Results)
	}
}
