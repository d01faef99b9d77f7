package climber

import (
	"testing"
	"time"

	"climber/internal/dataset"
)

// anytimeDB builds a DB whose plans span several partitions, so budgets
// and progressive snapshots have steps to work with.
func anytimeDB(t *testing.T) (*DB, [][]float64) {
	t.Helper()
	ds := dataset.RandomWalk(64, 2000, 17)
	data := make([][]float64, ds.Len())
	for i := range data {
		x := make([]float64, ds.Length())
		copy(x, ds.Get(i))
		data[i] = x
	}
	db, err := Build(t.TempDir(), data,
		WithSegments(8), WithPivots(24), WithPrefixLen(4),
		WithCapacity(50), WithSampleRate(0.2), WithBlockSize(250), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, qs := dataset.Queries(ds, 6, 33)
	return db, qs
}

// SearchProgressive run to completion must return exactly what Search
// returns, after a monotonically improving snapshot sequence.
func TestSearchProgressiveMatchesSearch(t *testing.T) {
	db, qs := anytimeDB(t)
	for _, q := range qs {
		want, _, err := searchStats(db, q, 50)
		if err != nil {
			t.Fatal(err)
		}
		var updates []SearchUpdate
		got, stats, err := searchProgressive(db, q, 50, func(u SearchUpdate) bool {
			updates = append(updates, u)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Partial {
			t.Fatalf("run-to-completion progressive marked partial: %+v", stats)
		}
		if len(updates) == 0 || !updates[len(updates)-1].Final {
			t.Fatalf("missing final update (got %d updates)", len(updates))
		}
		if len(got) != len(want) {
			t.Fatalf("progressive returned %d results, Search %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("result %d differs: %+v vs %+v", i, got[i], want[i])
			}
		}
		for i := 1; i < len(updates); i++ {
			if len(updates[i].Results) < len(updates[i-1].Results) {
				t.Fatalf("update %d shrank the answer", i)
			}
		}
	}
}

// WithMaxPartitions must hold as a hard execution budget for every variant
// and mark truncated answers partial.
func TestMaxPartitionsBudget(t *testing.T) {
	db, qs := anytimeDB(t)
	sawPartial := false
	for _, q := range qs {
		for _, v := range []Variant{KNN, Adaptive4X, ODSmallest} {
			full, fullStats, err := searchStats(db, q, 200, WithVariant(v))
			if err != nil {
				t.Fatal(err)
			}
			_ = full
			res, stats, err := searchStats(db, q, 200, WithVariant(v), WithMaxPartitions(1))
			if err != nil {
				t.Fatal(err)
			}
			if stats.PartitionsScanned > 1 {
				t.Fatalf("%v: budget 1 but scanned %d partitions", v, stats.PartitionsScanned)
			}
			if len(res) == 0 {
				t.Fatalf("%v: budgeted query returned nothing", v)
			}
			if fullStats.PartitionsScanned > 1 && v != Adaptive4X {
				// Adaptive shrinks its plan to the cap; the other variants
				// must truncate and say so.
				if !stats.Partial {
					t.Fatalf("%v: truncated answer not marked partial: %+v", v, stats)
				}
				sawPartial = true
			}
		}
	}
	if !sawPartial {
		t.Fatal("no query was truncated; fixture too coarse to exercise the budget")
	}
}

// A time budget yields a partial answer when it expires and a complete one
// when it is generous.
func TestTimeBudget(t *testing.T) {
	db, qs := anytimeDB(t)
	q := qs[0]
	// Generous budget: complete answer.
	_, stats, err := searchStats(db, q, 50, WithTimeBudget(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partial {
		t.Fatalf("generous time budget marked partial: %+v", stats)
	}
	// A budget that expires immediately: exactly one step runs, and any
	// multi-step plan reports partial.
	sawPartial := false
	for _, q := range qs {
		res, stats, err := searchStats(db, q, 200, WithVariant(ODSmallest), WithTimeBudget(time.Nanosecond))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("expired budget returned no results")
		}
		if stats.StepsExecuted != 1 {
			t.Fatalf("expired budget executed %d steps, want 1", stats.StepsExecuted)
		}
		if stats.StepsPlanned > 1 {
			if !stats.Partial || stats.BudgetExhausted != "deadline" {
				t.Fatalf("truncated answer not marked deadline-partial: %+v", stats)
			}
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no multi-step OD-Smallest plan in the fixture")
	}
}

// Stopping the progressive callback early returns the snapshot seen so far
// as a partial answer.
func TestSearchProgressiveStop(t *testing.T) {
	db, qs := anytimeDB(t)
	for _, q := range qs {
		res, stats, err := searchProgressive(db, q, 200, func(u SearchUpdate) bool { return false },
			WithVariant(ODSmallest))
		if err != nil {
			t.Fatal(err)
		}
		if stats.StepsExecuted != 1 {
			t.Fatalf("stopped callback executed %d steps, want 1", stats.StepsExecuted)
		}
		if len(res) == 0 {
			t.Fatal("stopped progressive query returned nothing")
		}
		if stats.StepsPlanned > 1 && !stats.Partial {
			t.Fatalf("stopped answer not marked partial: %+v", stats)
		}
	}
}
