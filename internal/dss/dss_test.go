package dss

import (
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/series"
)

func TestSearchDatasetExact(t *testing.T) {
	ds := dataset.RandomWalk(32, 500, 3)
	q := ds.Get(42)
	res := SearchDataset(ds, q, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	if res[0].ID != 42 || res[0].Dist != 0 {
		t.Fatalf("self query should rank itself first: %+v", res[0])
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
}

// The distributed scan must agree with the in-memory oracle (modulo float32
// storage precision affecting distance values, not identities).
func TestSearchMatchesOracle(t *testing.T) {
	ds := dataset.RandomWalk(32, 1000, 3)
	cl := cluster.New(t.TempDir(), 4)
	bs := cluster.Blocks(ds, 200)
	_, qs := dataset.Queries(ds, 5, 7)
	for qi, q := range qs {
		got, err := Search(cl, bs, q, 20)
		if err != nil {
			t.Fatal(err)
		}
		want := SearchDataset(ds, q, 20)
		if series.Recall(got, want) < 0.95 {
			t.Fatalf("query %d: distributed scan diverges from oracle beyond float32 tolerance", qi)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	ds := dataset.RandomWalk(32, 100, 3)
	cl := cluster.New(t.TempDir(), 1)
	bs := cluster.Blocks(ds, 50)
	if _, err := Search(cl, bs, ds.Get(0), 0); err == nil {
		t.Error("k = 0 should fail")
	}
	if _, err := Search(cl, bs, make([]float64, 3), 5); err == nil {
		t.Error("wrong query length should fail")
	}
}

func TestSearchKLargerThanDataset(t *testing.T) {
	ds := dataset.RandomWalk(32, 10, 3)
	res := SearchDataset(ds, ds.Get(0), 50)
	if len(res) != 10 {
		t.Fatalf("got %d results, want the whole dataset (10)", len(res))
	}
}
