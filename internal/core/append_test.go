package core

import (
	"context"
	"testing"

	"climber/internal/dataset"
)

// WriteRouted drains recs into new partition files and publishes the view
// naming them, as an ingestion drain does. The indexes of this package's
// tests have no manifest file, so the view's save records nothing.
func (ix *Index) WriteRouted(recs []Routed) (DrainStats, error) {
	return ix.Drain(recs, false, nil, noManifest)
}

// FoldTails folds every tail into its base and publishes the view, as the
// barrier before a backup or a reindex does; like WriteRouted it saves no
// manifest.
func (ix *Index) FoldTails() (DrainStats, error) { return ix.Drain(nil, true, nil, noManifest) }

// noManifest is the save of an index without a manifest file.
func noManifest(*Generation) error { return nil }

// drain lands recs the way an ingestion drain does: IDs reserved, each
// record routed through the skeleton, all of them written to the partition
// files in one WriteRouted.
func drain(t *testing.T, ix *Index, recs [][]float64) []int {
	t.Helper()
	first := ix.ReserveIDs(len(recs))
	routed := make([]Routed, len(recs))
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = first + i
		routed[i] = Routed{ID: ids[i], Route: ix.RouteNew(ids[i], r), Values: r}
	}
	if _, err := ix.WriteRouted(routed); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestAppendRoutesAndPersists(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)

	// Append fresh records drawn from the same distribution.
	extra := dataset.RandomWalk(64, 50, 999)
	recs := make([][]float64, extra.Len())
	for i := range recs {
		recs[i] = extra.Get(i)
	}
	ids := drain(t, ix, recs)
	if len(ids) != 50 {
		t.Fatalf("got %d ids, want 50", len(ids))
	}
	for i, id := range ids {
		if id != ds.Len()+i {
			t.Fatalf("id %d = %d, want %d (continuation of build sequence)", i, id, ds.Len()+i)
		}
	}
	// Totals updated.
	total := 0
	for _, c := range ix.Partitions().Counts {
		total += c
	}
	if total != ds.Len()+50 {
		t.Fatalf("partitions hold %d records, want %d", total, ds.Len()+50)
	}

	// Each appended record is stored where its own query looks.
	for i, q := range recs[:10] {
		res, err := ix.Search(q, SearchOptions{K: 5, Variant: VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) == 0 || res.Results[0].ID != ids[i] || res.Results[0].Dist >= 1e-4 {
			t.Fatalf("appended record %d is not its own nearest: %+v", ids[i], res.Results)
		}
	}
}

// A write of nothing writes nothing, and a record of the wrong length is
// refused with the partition counts unchanged.
func TestAppendEmptyAndValidation(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 800, cfg)
	if st, err := ix.WriteRouted(nil); err != nil || st != (DrainStats{}) {
		t.Fatalf("empty write: %+v, %v", st, err)
	}
	bad := Routed{ID: ix.ReserveIDs(1), Route: ix.RouteNew(0, ds.Get(0)), Values: make([]float64, 3)}
	if _, err := ix.WriteRouted([]Routed{bad}); err == nil {
		t.Fatal("wrong-length record written")
	}
	if n := ix.PersistedRecords(); n != ds.Len() {
		t.Fatalf("partitions hold %d records after a refused write, want %d", n, ds.Len())
	}
}

func TestAppendPreservesExistingRecords(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1000, cfg)
	extra := dataset.RandomWalk(64, 20, 111)
	recs := make([][]float64, extra.Len())
	for i := range recs {
		recs[i] = extra.Get(i)
	}
	drain(t, ix, recs)
	// Every original record still present exactly once.
	seen := map[int]int{}
	for pid := range ix.Partitions().Paths {
		p, err := ix.Cl.OpenPartition(ix.Partitions(), pid)
		if err != nil {
			t.Fatal(err)
		}
		err = p.ScanAll(func(id int, values []float64) error {
			seen[id]++
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != ds.Len()+20 {
		t.Fatalf("found %d distinct records, want %d", len(seen), ds.Len()+20)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d stored %d times after append", id, n)
		}
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)
	_, qs := dataset.Queries(ds, 12, 13)
	opts := SearchOptions{K: 10, Variant: VariantAdaptive4X}
	batch, err := ix.QueryBatch(context.Background(), qs, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch returned %d results, want %d", len(batch), len(qs))
	}
	for i, q := range qs {
		seq, err := ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Results) != len(batch[i].Results) {
			t.Fatalf("query %d: batch %d results, sequential %d", i, len(batch[i].Results), len(seq.Results))
		}
		for j := range seq.Results {
			if seq.Results[j].ID != batch[i].Results[j].ID {
				t.Fatalf("query %d result %d differs between batch and sequential", i, j)
			}
		}
	}
}

func TestSearchBatchPropagatesErrors(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 800, cfg)
	bad := [][]float64{ds.Get(0), make([]float64, 3)}
	if _, err := ix.QueryBatch(context.Background(), bad, SearchOptions{K: 5}, 2); err == nil {
		t.Fatal("batch with a bad query should fail")
	}
}
