package core

import (
	"bytes"
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/grouping"
	"climber/internal/series"
)

// testConfig shrinks the paper defaults to unit-test scale.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Segments = 8
	cfg.NumPivots = 24
	cfg.PrefixLen = 4
	cfg.Capacity = 100
	cfg.SampleRate = 0.2
	cfg.BlockSize = 250
	cfg.Seed = 7
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Segments = 0 },
		func(c *Config) { c.NumPivots = 0 },
		func(c *Config) { c.PrefixLen = 0 },
		func(c *Config) { c.PrefixLen = c.NumPivots + 1 },
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.SampleRate = 0 },
		func(c *Config) { c.SampleRate = 1.5 },
		func(c *Config) { c.Epsilon = -1 },
		func(c *Config) { c.MaxCentroids = -1 },
		func(c *Config) { c.BlockSize = 0 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestBuildSkeletonInvariants(t *testing.T) {
	cfg := testConfig()
	sample := dataset.RandomWalk(64, 400, 3)
	skel, err := BuildSkeleton(sample, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if skel.NumGroups() < 2 {
		t.Fatalf("only %d groups (including fall-back); centroid selection failed", skel.NumGroups())
	}
	if skel.Groups[0].Centroid != nil {
		t.Fatal("fall-back group must have a nil centroid")
	}
	for gid := 1; gid < skel.NumGroups(); gid++ {
		if len(skel.Groups[gid].Centroid) != cfg.PrefixLen {
			t.Fatalf("group %d centroid length %d, want %d", gid, len(skel.Groups[gid].Centroid), cfg.PrefixLen)
		}
	}
	if skel.NumPartitions < skel.NumGroups() {
		t.Fatalf("%d partitions for %d groups: every group needs at least one", skel.NumPartitions, skel.NumGroups())
	}
	if len(skel.PartitionEst) != skel.NumPartitions {
		t.Fatalf("partition estimates %d != partitions %d", len(skel.PartitionEst), skel.NumPartitions)
	}
	// Every group's default partition must belong to that group.
	for gid := 0; gid < skel.NumGroups(); gid++ {
		parts := skel.GroupPartitions(gid)
		found := false
		for _, p := range parts {
			if p == skel.Groups[gid].DefaultPartition {
				found = true
			}
		}
		if !found {
			t.Fatalf("group %d default partition %d not among its partitions %v",
				gid, skel.Groups[gid].DefaultPartition, parts)
		}
	}
	// Groups' partition sets must not overlap (Definition 12 disjointness
	// lifts to the group level).
	owner := map[int]int{}
	for gid := 0; gid < skel.NumGroups(); gid++ {
		for _, p := range skel.GroupPartitions(gid) {
			if prev, ok := owner[p]; ok && prev != gid {
				t.Fatalf("partition %d owned by groups %d and %d", p, prev, gid)
			}
			owner[p] = gid
		}
	}
}

func TestBuildSkeletonErrors(t *testing.T) {
	cfg := testConfig()
	tiny := dataset.RandomWalk(64, 5, 1) // fewer series than pivots
	if _, err := BuildSkeleton(tiny, 64, cfg); err == nil {
		t.Error("sample smaller than pivot count should fail")
	}
	sample := dataset.RandomWalk(64, 400, 1)
	if _, err := BuildSkeleton(sample, 32, cfg); err == nil {
		t.Error("length mismatch should fail")
	}
	bad := cfg
	bad.Segments = 0
	if _, err := BuildSkeleton(sample, 64, bad); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestRouteRecordDeterministic(t *testing.T) {
	cfg := testConfig()
	sample := dataset.RandomWalk(64, 400, 3)
	skel, err := BuildSkeleton(sample, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := sample.Get(17)
	a := skel.RouteRecord(x)
	b := skel.RouteRecord(x)
	if a != b {
		t.Fatalf("routing not deterministic: %+v vs %+v", a, b)
	}
	if a.Partition < 0 || a.Partition >= skel.NumPartitions {
		t.Fatalf("route to invalid partition %d", a.Partition)
	}
}

// buildTestIndex constructs a small end-to-end index over a random walk
// dataset, shared by the search tests.
func buildTestIndex(t *testing.T, n int, cfg Config) (*Index, *series.Dataset, *cluster.Cluster, *cluster.BlockSet) {
	t.Helper()
	ds := dataset.RandomWalk(64, n, 11)
	cl := cluster.New(t.TempDir(), 2)
	bs := cluster.Blocks(ds, cfg.BlockSize)
	ix, err := Build(cl, bs, cfg, "test")
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds, cl, bs
}

func TestBuildEndToEndInvariants(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)

	// Every record must land in exactly one partition.
	total := 0
	for _, c := range ix.Partitions().Counts {
		total += c
	}
	if total != ds.Len() {
		t.Fatalf("partitions hold %d records, dataset has %d", total, ds.Len())
	}

	seen := make(map[int]int)
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
	if len(seen) != ds.Len() {
		t.Fatalf("found %d distinct records, want %d", len(seen), ds.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d stored %d times", id, n)
		}
	}

	// Build statistics must be populated.
	if ix.Stats.SampleRecords == 0 || ix.Stats.Total == 0 {
		t.Fatalf("incomplete build stats: %+v", ix.Stats)
	}
	if ix.Stats.Skeleton+ix.Stats.Conversion+ix.Stats.Redistribution > ix.Stats.Total {
		t.Fatalf("phase times exceed total: %+v", ix.Stats)
	}
}

func TestSearchReturnsKResults(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	q := ds.Get(5)
	for _, v := range []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest} {
		res, err := ix.Search(q, SearchOptions{K: 20, Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Results) != 20 {
			t.Fatalf("%v returned %d results, want 20", v, len(res.Results))
		}
		// Distances ascending.
		for i := 1; i < len(res.Results); i++ {
			if res.Results[i].Dist < res.Results[i-1].Dist {
				t.Fatalf("%v results not sorted", v)
			}
		}
		if res.Stats.PartitionsScanned == 0 || res.Stats.RecordsScanned == 0 {
			t.Fatalf("%v reported empty stats: %+v", v, res.Stats)
		}
	}
}

// A query drawn from the dataset must find itself (at float32 round-off
// distance — partitions store records as float32): a record is stored in the
// target its own query selects, so the stored form of every record is its
// own nearest neighbour.
func TestSearchFindsSelf(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	for _, qid := range []int{0, 123, 777, 1500, 1999} {
		res, err := ix.Search(storedForm(ds.Get(qid)), SearchOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) == 0 || res.Results[0].ID != qid || res.Results[0].Dist > 1e-4 {
			t.Fatalf("self-search for record %d: top hits %+v", qid, res.Results)
		}
	}
}

// storedForm returns a series as a partition file holds it: every reading
// rounded to float32.
func storedForm(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(float32(v))
	}
	return out
}

// Core accuracy claims, scaled down: CLIMBER's recall must be far above
// random and the adaptive/OD-Smallest variants must not lose recall
// relative to narrower searches (they scan supersets of data). The absolute
// recall band of the paper (0.6-0.8) is exercised by the benchmark harness
// at realistic partition granularity; this test uses deliberately tiny
// partitions, which depress recall, so only ordering and a floor are
// asserted.
func TestSearchRecallOrdering(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 400 // coarser partitions: closer to the paper's granularity
	ix, ds, _, _ := buildTestIndex(t, 4000, cfg)
	variants := []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest}
	sums := make(map[Variant]float64)
	const k = 50
	qids, qs := dataset.Queries(ds, 15, 99)
	_ = qids
	for _, q := range qs {
		exact := exactTopK(ds, q, k)
		for _, v := range variants {
			res, err := ix.Search(q, SearchOptions{K: k, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			sums[v] += series.Recall(res.Results, exact)
		}
	}
	n := float64(len(qs))
	knn := sums[VariantKNN] / n
	a2 := sums[VariantAdaptive2X] / n
	a4 := sums[VariantAdaptive4X] / n
	od := sums[VariantODSmallest] / n
	t.Logf("recall: kNN=%.3f 2X=%.3f 4X=%.3f OD-Smallest=%.3f", knn, a2, a4, od)
	if knn < 0.2 {
		t.Fatalf("CLIMBER-kNN recall %.3f is implausibly low", knn)
	}
	if a4+1e-9 < knn-0.05 {
		t.Fatalf("Adaptive-4X recall %.3f clearly below kNN %.3f", a4, knn)
	}
	if od+1e-9 < a4-0.05 {
		t.Fatalf("OD-Smallest recall %.3f clearly below Adaptive-4X %.3f", od, a4)
	}
}

func exactTopK(ds *series.Dataset, q []float64, k int) []series.Result {
	top := series.NewTopK(k)
	for id := 0; id < ds.Len(); id++ {
		top.Push(id, series.SqDist(q, ds.Get(id)))
	}
	return top.Results()
}

func TestSearchOptionValidation(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1000, cfg)
	if _, err := ix.Search(ds.Get(0), SearchOptions{K: 0}); err == nil {
		t.Error("K = 0 should fail")
	}
	if _, err := ix.Search(make([]float64, 5), SearchOptions{K: 5}); err == nil {
		t.Error("wrong query length should fail")
	}
}

func TestVariantString(t *testing.T) {
	if VariantKNN.String() != "CLIMBER-kNN" ||
		VariantAdaptive2X.String() != "CLIMBER-kNN-Adaptive-2X" ||
		VariantAdaptive4X.String() != "CLIMBER-kNN-Adaptive-4X" ||
		VariantODSmallest.String() != "OD-Smallest" {
		t.Fatal("variant names drifted from the paper's")
	}
}

func TestSkeletonEncodeDecodeRoundTrip(t *testing.T) {
	cfg := testConfig()
	sample := dataset.RandomWalk(64, 400, 3)
	skel, err := BuildSkeleton(sample, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := skel.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if got := skel.EncodedSize(); got != buf.Len() {
		t.Fatalf("EncodedSize = %d, actual encoding = %d bytes", got, buf.Len())
	}
	back, err := DecodeSkeleton(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGroups() != skel.NumGroups() || back.NumPartitions != skel.NumPartitions {
		t.Fatalf("round trip changed shape: %d/%d groups, %d/%d partitions",
			back.NumGroups(), skel.NumGroups(), back.NumPartitions, skel.NumPartitions)
	}
	// Routing must behave identically after a round trip.
	for i := 0; i < 50; i++ {
		x := sample.Get(i)
		a := skel.RouteRecord(x)
		b := back.RouteRecord(x)
		if a != b {
			t.Fatalf("record %d routed to %+v before and %+v after round trip", i, a, b)
		}
	}
}

func TestDecodeSkeletonRejectsGarbage(t *testing.T) {
	if _, err := DecodeSkeleton(bytes.NewReader([]byte("XXXXGARBAGE"))); err == nil {
		t.Fatal("garbage accepted as skeleton")
	}
	if _, err := DecodeSkeleton(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted as skeleton")
	}
}

func TestSaveOpenIndexRoundTrip(t *testing.T) {
	cfg := testConfig()
	ix, ds, cl, _ := buildTestIndex(t, 1500, cfg)
	path := t.TempDir() + "/index.clms"
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenIndex(cl, path)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Get(42)
	a, err := ix.Search(q, SearchOptions{K: 10, Variant: VariantAdaptive4X})
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Search(q, SearchOptions{K: 10, Variant: VariantAdaptive4X})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result counts differ after reload: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].ID != b.Results[i].ID {
			t.Fatalf("result %d differs after reload: %+v vs %+v", i, a.Results[i], b.Results[i])
		}
	}
}

// The adaptive variants must respect their partition caps relative to the
// base algorithm.
func TestAdaptivePartitionCap(t *testing.T) {
	cfg := testConfig()
	cfg.Capacity = 50 // many small partitions so adaptivity kicks in
	ix, ds, _, _ := buildTestIndex(t, 3000, cfg)
	_, qs := dataset.Queries(ds, 10, 123)
	for _, q := range qs {
		base, err := ix.Search(q, SearchOptions{K: 200, Variant: VariantKNN})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{VariantAdaptive2X, VariantAdaptive4X} {
			res, err := ix.Search(q, SearchOptions{K: 200, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			cap := v.partitionFactor() * base.Stats.PartitionsScanned
			if res.Stats.PartitionsScanned > cap {
				t.Fatalf("%v scanned %d partitions, cap %d (base %d)",
					v, res.Stats.PartitionsScanned, cap, base.Stats.PartitionsScanned)
			}
		}
	}
}

// With K below every trie-node size the adaptive variants behave exactly
// like CLIMBER-kNN (paper Figure 9 observation 2).
func TestAdaptiveEqualsKNNForSmallK(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 2000, cfg)
	_, qs := dataset.Queries(ds, 10, 5)
	for _, q := range qs {
		base, err := ix.Search(q, SearchOptions{K: 1, Variant: VariantKNN})
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := ix.Search(q, SearchOptions{K: 1, Variant: VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		if base.Stats.PartitionsScanned != adapt.Stats.PartitionsScanned {
			t.Fatalf("adaptive diverged from kNN at K=1: %d vs %d partitions",
				adapt.Stats.PartitionsScanned, base.Stats.PartitionsScanned)
		}
		if len(base.Results) > 0 && len(adapt.Results) > 0 && base.Results[0].ID != adapt.Results[0].ID {
			t.Fatalf("top-1 differs between kNN and adaptive")
		}
	}
}

// OD-Smallest scans at least as much data as the other variants (it is the
// expensive upper bound of Figure 11(b)).
func TestODSmallestScansMost(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 3000, cfg)
	_, qs := dataset.Queries(ds, 8, 77)
	for _, q := range qs {
		knn, err := ix.Search(q, SearchOptions{K: 100, Variant: VariantKNN})
		if err != nil {
			t.Fatal(err)
		}
		od, err := ix.Search(q, SearchOptions{K: 100, Variant: VariantODSmallest})
		if err != nil {
			t.Fatal(err)
		}
		if od.Stats.RecordsScanned < knn.Stats.RecordsScanned {
			t.Fatalf("OD-Smallest scanned %d records < kNN's %d",
				od.Stats.RecordsScanned, knn.Stats.RecordsScanned)
		}
	}
}

func TestFallbackGroupExists(t *testing.T) {
	cfg := testConfig()
	sample := dataset.RandomWalk(64, 400, 3)
	skel, err := BuildSkeleton(sample, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if skel.Groups[grouping.FallbackGroup] == nil {
		t.Fatal("fall-back group missing")
	}
	if got := skel.Groups[grouping.FallbackGroup].OverflowCluster(); got != -1 {
		t.Fatalf("G0 overflow cluster = %d, want -1", got)
	}
}
