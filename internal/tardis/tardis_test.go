package tardis

import (
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/series"
)

func testConfig() Config {
	return Config{Segments: 8, MaxBits: 8, Capacity: 300, SampleRate: 0.2, Seed: 5}
}

func buildIndex(t *testing.T, n int, cfg Config) (*Index, *series.Dataset) {
	t.Helper()
	ds := dataset.RandomWalk(64, n, 21)
	cl := cluster.New(t.TempDir(), 2)
	bs := cluster.Blocks(ds, 500)
	ix, err := Build(cl, bs, cfg, "td")
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Segments: 0, MaxBits: 8, Capacity: 10, SampleRate: 0.1},
		{Segments: 8, MaxBits: 0, Capacity: 10, SampleRate: 0.1},
		{Segments: 8, MaxBits: 8, Capacity: -1, SampleRate: 0.1},
		{Segments: 8, MaxBits: 8, Capacity: 10, SampleRate: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestBuildCoversDataset(t *testing.T) {
	ix, ds := buildIndex(t, 2000, testConfig())
	total := 0
	for _, c := range ix.Parts.Counts {
		total += c
	}
	if total != ds.Len() {
		t.Fatalf("partitions hold %d records, dataset has %d", total, ds.Len())
	}
	if ix.NumPartitions < 2 {
		t.Fatalf("expected multiple partitions, got %d", ix.NumPartitions)
	}
	if ix.NodeCount() < ix.NumPartitions {
		t.Fatalf("sigTree has %d nodes for %d partitions", ix.NodeCount(), ix.NumPartitions)
	}
	if ix.TreeSize() <= 0 {
		t.Fatal("tree size not positive")
	}
}

// The sigTree is wider than DPiSAX's binary tree: the root fanout after a
// word-level split can reach 2^w, and with random-walk data it is far above
// 2.
func TestSigTreeIsWide(t *testing.T) {
	ix, _ := buildIndex(t, 3000, testConfig())
	if ix.root.isLeaf() {
		t.Skip("tiny dataset did not split the root")
	}
	if len(ix.root.children) <= 2 {
		t.Fatalf("root fanout %d; sigTree should be n-ary, not binary", len(ix.root.children))
	}
}

func TestSearchBasics(t *testing.T) {
	ix, ds := buildIndex(t, 2000, testConfig())
	_, qs := dataset.Queries(ds, 10, 3)
	for _, q := range qs {
		res, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != 10 {
			t.Fatalf("got %d results, want 10", len(res.Results))
		}
		for i := 1; i < len(res.Results); i++ {
			if res.Results[i].Dist < res.Results[i-1].Dist {
				t.Fatal("results not sorted")
			}
		}
		if res.Stats.RecordsScanned == 0 || res.Stats.PartitionsScanned == 0 {
			t.Fatalf("empty stats: %+v", res.Stats)
		}
	}
}

func TestSelfRouting(t *testing.T) {
	ix, ds := buildIndex(t, 2000, testConfig())
	found := 0
	qids := []int{3, 500, 1200, 1999}
	for _, qid := range qids {
		res, err := ix.Search(ds.Get(qid), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) > 0 && res.Results[0].ID == qid && res.Results[0].Dist < 1e-4 {
			found++
		}
	}
	// Records with sample-unseen words fall into the default partition
	// while the identical query may descend a partial path elsewhere;
	// allow one such miss.
	if found < len(qids)-1 {
		t.Fatalf("self-routing found %d/%d, want >= %d", found, len(qids), len(qids)-1)
	}
}

func TestSearchValidation(t *testing.T) {
	ix, ds := buildIndex(t, 500, testConfig())
	if _, err := ix.Search(ds.Get(0), 0); err == nil {
		t.Error("k = 0 should fail")
	}
	if _, err := ix.Search(make([]float64, 3), 5); err == nil {
		t.Error("wrong query length should fail")
	}
}

func TestRecallBand(t *testing.T) {
	// TARDIS's defining property in the paper: recall clearly better than
	// DPiSAX but capped around 0.4 at scale. At unit-test scale we assert
	// the plausible band.
	ix, ds := buildIndex(t, 4000, testConfig())
	_, qs := dataset.Queries(ds, 12, 31)
	const k = 50
	sum := 0.0
	for _, q := range qs {
		exact := exactTopK(ds, q, k)
		res, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		sum += series.Recall(res.Results, exact)
	}
	avg := sum / float64(len(qs))
	t.Logf("TARDIS recall = %.3f", avg)
	if avg <= 0 || avg >= 0.8 {
		t.Fatalf("TARDIS recall %.3f outside the plausible band (0, 0.8)", avg)
	}
}

func exactTopK(ds *series.Dataset, q []float64, k int) []series.Result {
	top := series.NewTopK(k)
	for id := 0; id < ds.Len(); id++ {
		top.Push(id, series.SqDist(q, ds.Get(id)))
	}
	return top.Results()
}
