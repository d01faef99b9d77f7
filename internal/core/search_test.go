package core

import (
	"math"
	"testing"

	"climber/internal/dataset"
	"climber/internal/grouping"
)

func TestSearchExplain(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)
	res, err := ix.Search(ds.Get(7), SearchOptions{K: 10, Variant: VariantAdaptive4X, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if ex == nil {
		t.Fatal("Explain requested but nil")
	}
	if len(ex.RankSensitive) != cfg.PrefixLen || len(ex.RankInsensitive) != cfg.PrefixLen {
		t.Fatalf("signature lengths %d/%d, want %d", len(ex.RankSensitive), len(ex.RankInsensitive), cfg.PrefixLen)
	}
	// The rank-insensitive form must be the sorted rank-sensitive one.
	sorted := ex.RankSensitive.RankInsensitive()
	if !sorted.Equal(ex.RankInsensitive) {
		t.Fatalf("dual signature inconsistent: %v vs %v", sorted, ex.RankInsensitive)
	}
	if ex.BestOD < 0 || ex.BestOD > cfg.PrefixLen {
		t.Fatalf("BestOD = %d out of range", ex.BestOD)
	}
	if len(ex.CandidateGroups) == 0 {
		t.Fatal("no candidate groups recorded")
	}
	foundSelected := false
	for _, g := range ex.CandidateGroups {
		if g == ex.SelectedGroup {
			foundSelected = true
		}
	}
	if !foundSelected {
		t.Fatalf("selected group %d not among candidates %v", ex.SelectedGroup, ex.CandidateGroups)
	}
	// The matched path must be a prefix of the rank-sensitive signature.
	for i, p := range ex.MatchedPath {
		if ex.RankSensitive[i] != p {
			t.Fatalf("matched path %v not a prefix of %v", ex.MatchedPath, ex.RankSensitive)
		}
	}
	if len(ex.Partitions) != res.Stats.PartitionsScanned {
		t.Fatalf("explain lists %d partitions, stats scanned %d", len(ex.Partitions), res.Stats.PartitionsScanned)
	}
	// Without the flag no explanation is attached.
	res2, err := ix.Search(ds.Get(7), SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Explain != nil {
		t.Fatal("explanation attached without the flag")
	}
}

// A query with no pivot overlap lands in the fall-back group G0 and still
// returns results (from G0's partition).
func TestSearchFallbackPath(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)
	_ = ds
	// An adversarial query far outside the data distribution: huge
	// constant offset with alternating sign, z-normalisation-free. Its PAA
	// lands far from every pivot, but pivot *ranking* still produces some
	// signature — so instead locate a genuine G0 case by scanning queries
	// until the explanation reports the fall-back group, if any exists.
	found := false
	for qid := 0; qid < 200 && !found; qid++ {
		q := make([]float64, 64)
		for j := range q {
			q[j] = float64((qid+1)*(j%5-2)) * 100
		}
		res, err := ix.Search(q, SearchOptions{K: 5, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain.SelectedGroup == grouping.FallbackGroup {
			found = true
			// G0 queries still produce results when G0 holds records; at
			// minimum they must not error and must report a scanned
			// partition.
			if res.Stats.PartitionsScanned == 0 {
				t.Fatal("fall-back query scanned no partitions")
			}
		}
	}
	// Synthetic queries rarely have zero overlap when pivots cover the
	// space; absence of a G0 hit is acceptable. The test's job is the
	// error-free handling above.
	t.Logf("fall-back path exercised: %v", found)
}

func TestSearchKLargerThanNode(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1000, cfg)
	// K exceeding the dataset returns everything reachable, ascending.
	res, err := ix.Search(ds.Get(0), SearchOptions{K: 5000, Variant: VariantODSmallest})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("no results for huge K")
	}
	for i := 1; i < len(res.Results); i++ {
		if res.Results[i].Dist < res.Results[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
}

func TestMaxPartitionsOverride(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 50 // many small partitions
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	_, qs := dataset.Queries(ds, 5, 3)
	for _, q := range qs {
		res, err := ix.Search(q, SearchOptions{K: 500, Variant: VariantAdaptive4X, MaxPartitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PartitionsScanned > 2 {
			t.Fatalf("MaxPartitions=2 but scanned %d", res.Stats.PartitionsScanned)
		}
	}
}

// A multi-step plan must leave distances exact: compare a multi-partition
// OD-Smallest scan against a brute-force pass over the same partitions'
// records.
func TestParallelScanDistancesExact(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	q := ds.Get(99)
	res, err := ix.Search(q, SearchOptions{K: 10, Variant: VariantODSmallest})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		// Distance must match a direct computation at float32 storage
		// precision.
		stored := make([]float64, ds.Length())
		for j, v := range ds.Get(r.ID) {
			stored[j] = float64(float32(v))
		}
		want := 0.0
		qf := q
		for j := range stored {
			d := float64(float32(qf[j])) - stored[j]
			want += d * d
		}
		want = math.Sqrt(want)
		if math.Abs(r.Dist-want) > 1e-3 {
			t.Fatalf("result %d distance %g, recomputed %g", r.ID, r.Dist, want)
		}
	}
}
