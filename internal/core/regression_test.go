package core

import (
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/grouping"
	"climber/internal/metric"
	"climber/internal/paa"
	"climber/internal/pivot"
	"climber/internal/trie"
)

// buildDegenerateIndex constructs and populates an index whose skeleton has
// no non-fallback groups — only G0 with a childless trie. Before the
// empty-candidate fix, Assigner.Candidates returned (nil, m+1) for such a
// skeleton, selectTarget produced a target with nil group/node, and Search
// crashed dereferencing base.node.
func buildDegenerateIndex(t *testing.T) (*Index, *testDataset) {
	t.Helper()
	const (
		seriesLen = 16
		segments  = 4
		numPivots = 4
		prefixLen = 2
		capacity  = 100
	)
	cfg := Config{
		Segments:   segments,
		NumPivots:  numPivots,
		PrefixLen:  prefixLen,
		Capacity:   capacity,
		SampleRate: 1,
		Epsilon:    0,
		Decay:      metric.ExponentialDecay,
		Seed:       3,
		BlockSize:  10,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := paa.NewTransformer(seriesLen, segments)
	if err != nil {
		t.Fatal(err)
	}
	weigher, err := metric.NewWeigher(prefixLen, cfg.Decay, 0)
	if err != nil {
		t.Fatal(err)
	}
	assigner, err := grouping.NewAssigner(nil, weigher, numPivots)
	if err != nil {
		t.Fatalf("zero-centroid assigner: %v", err)
	}
	pivots := make([][]float64, numPivots)
	for i := range pivots {
		p := make([]float64, segments)
		for j := range p {
			p[j] = float64(i*segments + j)
		}
		pivots[i] = p
	}
	pset, err := pivot.NewSet(pivots, prefixLen)
	if err != nil {
		t.Fatal(err)
	}
	root, err := trie.Build(nil, capacity)
	if err != nil {
		t.Fatal(err)
	}
	root.Partitions = []int{0} // the childless root maps to the only partition
	g0 := &Group{ID: 0, Trie: root, DefaultPartition: 0}
	g0.indexNodes()
	skel := &Skeleton{
		Cfg:           cfg,
		SeriesLen:     seriesLen,
		Transformer:   tr,
		Pivots:        pset,
		Weigher:       weigher,
		Assigner:      assigner,
		Groups:        []*Group{g0},
		NumPartitions: 1,
		PartitionEst:  []int{0},
	}

	ds := dataset.RandomWalk(seriesLen, 30, 5)
	cl := cluster.New(t.TempDir(), 1)
	bs := cluster.Blocks(ds, cfg.BlockSize)
	routes, err := cl.Convert(bs, bs.Len(), skel.RouteRecord)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cl.Shuffle(bs, skel.NumPartitions, cluster.Dest{Name: "degenerate"}, routes)
	if err != nil {
		t.Fatal(err)
	}
	return NewIndex(cl, skel, parts), &testDataset{ds.Get(0), ds.Len()}
}

type testDataset struct {
	query []float64
	n     int
}

// A degenerate single-group (fallback-only) index must answer queries from
// G0's partition instead of crashing on an empty candidate set.
func TestSearchDegenerateFallbackOnlyIndex(t *testing.T) {
	ix, td := buildDegenerateIndex(t)
	for _, v := range []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest} {
		res, err := ix.Search(td.query, SearchOptions{K: 5, Variant: v, Explain: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Results) != 5 {
			t.Fatalf("%v: got %d results, want 5", v, len(res.Results))
		}
		// Records round-trip through float32 storage, so the self-match
		// distance is tiny but not exactly zero.
		if res.Results[0].ID != 0 || res.Results[0].Dist > 1e-3 {
			t.Fatalf("%v: query is record 0, top hit = %+v", v, res.Results[0])
		}
		if res.Explain.SelectedGroup != grouping.FallbackGroup {
			t.Fatalf("%v: selected group %d, want fall-back", v, res.Explain.SelectedGroup)
		}
		if res.Explain.BestOD != ix.Skeleton().Cfg.PrefixLen {
			t.Fatalf("%v: BestOD = %d, want m=%d", v, res.Explain.BestOD, ix.Skeleton().Cfg.PrefixLen)
		}
	}
	// A prefix query navigates the same skeleton path.
	if _, err := searchPrefix(ix, td.query[:8], SearchOptions{K: 3}); err != nil {
		t.Fatalf("prefix query on degenerate index: %v", err)
	}
}

// wouldExceedPartitionCap must count *distinct* new partitions: duplicate
// IDs in a target's partition list previously each incremented the extra
// count, making the adaptive variants refuse targets that actually fit.
func TestWouldExceedPartitionCapDedupes(t *testing.T) {
	g := &Group{ID: 1, DefaultPartition: 0}
	node := &trie.Node{Partitions: []int{7, 7, 7, 8}} // 2 distinct new partitions
	plan := planBuilder{3: nil}
	c := target{group: g, node: node}

	// 1 planned + 2 distinct new = 3 <= 3: must fit.
	if plan.wouldExceedPartitionCap(c, 3) {
		t.Fatal("target refused although its distinct partitions fit the cap")
	}
	// Cap 2 genuinely exceeded.
	if !plan.wouldExceedPartitionCap(c, 2) {
		t.Fatal("target accepted although distinct partitions exceed the cap")
	}
	// Partitions already in the plan never count as new.
	plan[7] = nil
	if plan.wouldExceedPartitionCap(c, 3) {
		t.Fatal("already-planned partition counted as new")
	}
}
