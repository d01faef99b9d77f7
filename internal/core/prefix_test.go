package core

import (
	"testing"

	"climber/internal/dataset"
	"climber/internal/dss"
	"climber/internal/series"
)

// searchPrefix is Search with SearchOptions.Prefix set.
func searchPrefix(ix *Index, q []float64, opts SearchOptions) (*SearchResult, error) {
	opts.Prefix = true
	return ix.Search(q, opts)
}

func TestSearchPrefixBasics(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)

	// A prefix of a stored record must find that record at (float32)
	// distance ~0 over the compared prefix.
	q := make([]float64, 32)
	copy(q, ds.Get(55)[:32])
	res, err := searchPrefix(ix, q, SearchOptions{K: 10, Variant: VariantAdaptive4X})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 10 {
		t.Fatalf("got %d results, want 10", len(res.Results))
	}
	found := false
	for _, r := range res.Results {
		if r.ID == 55 {
			found = true
			if r.Dist > 1e-3 {
				t.Fatalf("prefix self-match distance %g", r.Dist)
			}
		}
	}
	// Prefix signatures differ from full-series signatures, so routing may
	// miss; but the source record's own prefix is as close as possible and
	// should usually surface. Tolerate a miss only if distances are sane.
	if !found && res.Results[0].Dist <= 0 {
		t.Fatal("implausible result set for prefix query")
	}
	for i := 1; i < len(res.Results); i++ {
		if res.Results[i].Dist < res.Results[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
}

func TestSearchPrefixRecall(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 3000, cfg)
	const k, prefixLen = 20, 32
	sum := 0.0
	qids := []int{10, 400, 900, 1500, 2500}
	for _, qid := range qids {
		q := make([]float64, prefixLen)
		copy(q, ds.Get(qid)[:prefixLen])
		exact := dss.SearchDatasetPrefix(ds, q, k)
		res, err := searchPrefix(ix, q, SearchOptions{K: k, Variant: VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		sum += series.Recall(res.Results, exact)
	}
	// Prefix signatures differ from the full-series signatures records were
	// placed by, so recall here is structurally lower than full-length
	// search — the feature buys flexibility, not accuracy. Assert only that
	// it is clearly better than chance (k/n = 0.7%).
	avg := sum / float64(len(qids))
	t.Logf("prefix-query recall = %.3f", avg)
	if avg < 0.05 {
		t.Fatalf("prefix recall %.3f implausibly low", avg)
	}
}

func TestSearchPrefixValidation(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 800, cfg)
	if _, err := searchPrefix(ix, make([]float64, 100), SearchOptions{K: 5}); err == nil {
		t.Error("over-length prefix query accepted")
	}
	if _, err := searchPrefix(ix, make([]float64, 3), SearchOptions{K: 5}); err == nil {
		t.Error("query shorter than segment count accepted")
	}
	if _, err := searchPrefix(ix, ds.Get(0)[:32], SearchOptions{K: 0}); err == nil {
		t.Error("K = 0 accepted")
	}
	if _, err := ix.Search(ds.Get(0)[:32], SearchOptions{K: 5}); err == nil {
		t.Error("short query accepted without SearchOptions.Prefix")
	}
	// Full-length input must behave exactly like Search.
	full, err := searchPrefix(ix, ds.Get(0), SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ix.Search(ds.Get(0), SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Results {
		if full.Results[i].ID != direct.Results[i].ID {
			t.Fatal("full-length prefix query diverges from Search")
		}
	}
}

func TestSearchPrefixAllVariants(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)
	q := ds.Get(77)[:32]
	for _, v := range []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest} {
		res, err := searchPrefix(ix, q, SearchOptions{K: 10, Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Results) == 0 {
			t.Fatalf("%v returned nothing", v)
		}
	}
}

func TestSearchDatasetPrefixOracle(t *testing.T) {
	ds := dataset.RandomWalk(64, 300, 5)
	q := ds.Get(42)[:24]
	res := dss.SearchDatasetPrefix(ds, q, 5)
	if res[0].ID != 42 || res[0].Dist != 0 {
		t.Fatalf("prefix oracle: self not first: %+v", res[0])
	}
}
