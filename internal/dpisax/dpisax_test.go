package dpisax

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
	ix, err := Build(cl, bs, cfg, "dp")
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
		{Segments: 8, MaxBits: 99, Capacity: 10, SampleRate: 0.1},
		{Segments: 8, MaxBits: 8, Capacity: 0, SampleRate: 0.1},
		{Segments: 8, MaxBits: 8, Capacity: 10, SampleRate: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestBuildPartitionsCoverDataset(t *testing.T) {
	ix, ds := buildIndex(t, 2000, testConfig())
	if ix.NumPartitions < 2 {
		t.Fatalf("expected multiple partitions, got %d", ix.NumPartitions)
	}
	total := 0
	for _, c := range ix.Parts.Counts {
		total += c
	}
	if total != ds.Len() {
		t.Fatalf("partitions hold %d records, dataset has %d", total, ds.Len())
	}
	if ix.Depth() == 0 {
		t.Fatal("tree did not split")
	}
	if ix.TreeSize() <= 0 {
		t.Fatal("tree size not positive")
	}
	if ix.Stats.SampleRecords == 0 || ix.Stats.Total == 0 {
		t.Fatalf("incomplete build stats: %+v", ix.Stats)
	}
}

// DPiSAX routing is total: every record reaches exactly one leaf, so every
// query must scan exactly one partition.
func TestSearchSinglePartition(t *testing.T) {
	ix, ds := buildIndex(t, 2000, testConfig())
	_, qs := dataset.Queries(ds, 10, 3)
	for _, q := range qs {
		res, err := ix.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PartitionsScanned != 1 {
			t.Fatalf("DPiSAX scanned %d partitions, must be exactly 1", res.Stats.PartitionsScanned)
		}
		if len(res.Results) == 0 {
			t.Fatal("no results")
		}
		for i := 1; i < len(res.Results); i++ {
			if res.Results[i].Dist < res.Results[i-1].Dist {
				t.Fatal("results not sorted")
			}
		}
	}
}

// A query identical to a stored record must land in the record's partition
// (identical values produce identical iSAX bits).
func TestSelfRouting(t *testing.T) {
	ix, ds := buildIndex(t, 2000, testConfig())
	found := 0
	for _, qid := range []int{3, 500, 1200, 1999} {
		res, err := ix.Search(ds.Get(qid), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) > 0 && res.Results[0].ID == qid && res.Results[0].Dist < 1e-4 {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("self-routing found %d/4, want 4/4", found)
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

func TestRecallIsLow(t *testing.T) {
	// The defining property of DPiSAX in the paper's evaluation: recall
	// well below CLIMBER's because a single strict-bit-match partition
	// rarely contains the full neighbourhood. We assert it is within the
	// plausible band — above random, below 0.7.
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
	t.Logf("DPiSAX recall = %.3f", avg)
	if avg <= 0 || avg >= 0.7 {
		t.Fatalf("DPiSAX recall %.3f outside the plausible band (0, 0.7)", avg)
	}
}

func exactTopK(ds *series.Dataset, q []float64, k int) []series.Result {
	top := series.NewTopK(k)
	for id := 0; id < ds.Len(); id++ {
		top.Push(id, series.SqDist(q, ds.Get(id)))
	}
	return top.Results()
}
