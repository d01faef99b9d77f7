package core

import (
	"context"
	"testing"

	"climber/internal/dataset"
)

func TestAppendRoutesAndPersists(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)

	// Append fresh records drawn from the same distribution.
	extra := dataset.RandomWalk(64, 50, 999)
	recs := make([][]float64, extra.Len())
	for i := range recs {
		recs[i] = extra.Get(i)
	}
	ids, err := ix.Append(recs)
	if err != nil {
		t.Fatal(err)
	}
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

	// Each appended record is findable by searching for itself.
	found := 0
	for i, q := range recs[:10] {
		res, err := ix.Search(q, SearchOptions{K: 5, Variant: VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) > 0 && res.Results[0].ID == ids[i] && res.Results[0].Dist < 1e-4 {
			found++
		}
	}
	if found < 9 { // one random WD tie-break miss allowed, as in build
		t.Fatalf("found %d/10 appended records, want >= 9", found)
	}
}

func TestAppendEmptyAndValidation(t *testing.T) {
	cfg := testConfig()
	ix, _, _, _ := buildTestIndex(t, 800, cfg)
	ids, err := ix.Append(nil)
	if err != nil || ids != nil {
		t.Fatalf("empty append: %v, %v", ids, err)
	}
	if _, err := ix.Append([][]float64{make([]float64, 3)}); err == nil {
		t.Fatal("wrong-length append accepted")
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
	if _, err := ix.Append(recs); err != nil {
		t.Fatal(err)
	}
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
