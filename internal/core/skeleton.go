package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"climber/internal/centroid"
	"climber/internal/cluster"
	"climber/internal/grouping"
	"climber/internal/metric"
	"climber/internal/paa"
	"climber/internal/packing"
	"climber/internal/pivot"
	"climber/internal/series"
	"climber/internal/storage"
	"climber/internal/trie"
)

// Group is one entry of the index's 1st level: a data-series group
// (Definition 8) with its rank-insensitive centroid and the trie that
// splits it into partitions (Definition 12). The fall-back group G0 has a
// nil centroid and a childless trie.
type Group struct {
	ID int
	// Centroid is the group's rank-insensitive P4↛ signature; nil for the
	// fall-back group G0 (the paper's <*,*,...>).
	Centroid pivot.Signature
	// Trie is the group's Voronoi-splitting trie; its root count is the
	// (sample-scaled) estimated membership.
	Trie *trie.Node
	// DefaultPartition receives members whose trie path matches no child of
	// the root — the group's least-occupied partition (Section V, Step 3).
	DefaultPartition int
	// ClusterBase offsets this group's trie-node IDs into the global
	// record-cluster ID space of the partition files.
	ClusterBase int64

	nodeByID []*trie.Node
}

// node returns the trie node with the given local ID.
func (g *Group) node(id int) *trie.Node { return g.nodeByID[id] }

// indexNodes (re)builds the local-ID lookup table.
func (g *Group) indexNodes() {
	nodes := g.Trie.Nodes()
	g.nodeByID = make([]*trie.Node, len(nodes))
	for _, n := range nodes {
		g.nodeByID[n.ID] = n
	}
}

// OverflowCluster returns the record-cluster ID that holds the group's
// overflow records (trie paths matching no child of the root) inside its
// default partition.
func (g *Group) OverflowCluster() storage.ClusterID {
	return storage.ClusterID(-(int64(g.ID) + 1))
}

// ClusterOf returns the global record-cluster ID of a trie node of this
// group.
func (g *Group) ClusterOf(n *trie.Node) storage.ClusterID {
	return storage.ClusterID(g.ClusterBase + int64(n.ID))
}

// Skeleton is the global index structure kept on the master and broadcast to
// all workers (paper Figure 5): the pivot set, the groups list, and the trie
// forest, plus the partition directory. It is immutable after construction
// and safe for concurrent use.
type Skeleton struct {
	Cfg         Config
	SeriesLen   int
	Transformer *paa.Transformer
	Pivots      *pivot.Set
	Weigher     *metric.Weigher
	Assigner    *grouping.Assigner
	// Groups indexed by group ID; Groups[0] is the fall-back G0.
	Groups []*Group
	// NumPartitions is the number of physical partitions in the layout.
	NumPartitions int
	// PartitionEst estimates each partition's record count from the sample
	// (used to pick default partitions and report packing quality).
	PartitionEst []int
}

// BuildSkeleton runs Steps 1-3 of the index-construction workflow (paper
// Figure 6) on an in-memory sample of the dataset:
//
//	Step 1 — PAA conversion of the sample, random pivot selection, and
//	         rank-sensitive signature generation;
//	Step 2 — frequency aggregation and data-driven centroid computation
//	         (Algorithm 2);
//	Step 3 — group formation (Algorithm 1), trie splitting, and FFD packing
//	         of trie leaves into partitions.
//
// The sample must contain at least Cfg.NumPivots series.
func BuildSkeleton(sample *series.Dataset, seriesLen int, cfg Config) (*Skeleton, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sample.Length() != seriesLen {
		return nil, fmt.Errorf("core: sample series length %d != dataset length %d", sample.Length(), seriesLen)
	}
	if sample.Len() < cfg.NumPivots {
		return nil, fmt.Errorf("core: sample of %d series cannot supply %d pivots", sample.Len(), cfg.NumPivots)
	}
	tr, err := paa.NewTransformer(seriesLen, cfg.Segments)
	if err != nil {
		return nil, err
	}
	weigher, err := metric.NewWeigher(cfg.PrefixLen, cfg.Decay, cfg.Lambda)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5851f42d4c957f2d))
	workers := cfg.workers()

	// --- Step 1: PAA signatures and pivot selection -----------------------
	// The per-sample transforms are independent; fan them across the build
	// workers, each writing its own slot.
	paaSigs := make([][]float64, sample.Len())
	parallelChunks(sample.Len(), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			paaSigs[i] = tr.Transform(sample.Get(i))
		}
	})
	pivots, err := pivot.SelectRandom(paaSigs, cfg.NumPivots, cfg.PrefixLen, rng)
	if err != nil {
		return nil, err
	}

	// Rank-sensitive signatures of the sample, aggregated by exact match.
	// Signature generation (a kNN scan over all r pivots per sample) is the
	// dominant skeleton cost, so each worker aggregates its chunk into a
	// private map; the partial maps are then merged in chunk order with each
	// map's keys sorted, so the merged aggregate — and the representative
	// sig pointer kept for each key — never depends on scheduling. (Equal
	// keys always carry equal signatures, and frequency addition commutes,
	// so the merge is bit-identical to the sequential aggregation.)
	type aggEntry struct {
		sig  pivot.Signature
		freq int
	}
	numChunks := chunkCount(sample.Len(), workers)
	partials := make([]map[string]*aggEntry, numChunks)
	parallelChunksIndexed(sample.Len(), workers, func(chunk, lo, hi int) {
		agg := make(map[string]*aggEntry)
		for _, ps := range paaSigs[lo:hi] {
			sig := pivots.RankSensitive(ps)
			key := sig.Key()
			if e, ok := agg[key]; ok {
				e.freq++
			} else {
				agg[key] = &aggEntry{sig: sig, freq: 1}
			}
		}
		partials[chunk] = agg
	})
	rsAgg := make(map[string]*aggEntry)
	for _, agg := range partials {
		keys := make([]string, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if e, ok := rsAgg[k]; ok {
				e.freq += agg[k].freq
			} else {
				rsAgg[k] = agg[k]
			}
		}
	}

	// --- Step 2: rank-insensitive aggregation and centroids ---------------
	riAgg := make(map[string]*aggEntry)
	for _, e := range rsAgg {
		ri := e.sig.RankInsensitive()
		key := ri.Key()
		if a, ok := riAgg[key]; ok {
			a.freq += e.freq
		} else {
			riAgg[key] = &aggEntry{sig: ri, freq: e.freq}
		}
	}
	riList := make([]centroid.SigFreq, 0, len(riAgg))
	for _, e := range riAgg {
		riList = append(riList, centroid.SigFreq{Sig: e.sig, Freq: e.freq})
	}
	centroids, err := centroid.Compute(riList, centroid.Params{
		SampleRate:   cfg.SampleRate,
		Capacity:     cfg.Capacity,
		Epsilon:      cfg.Epsilon,
		MaxCentroids: cfg.MaxCentroids,
	})
	if err != nil {
		return nil, err
	}
	assigner, err := grouping.NewAssigner(centroids, weigher, cfg.NumPivots)
	if err != nil {
		return nil, err
	}
	assigner.UseWeightTieBreak = !cfg.DisableWDTieBreak

	// --- Step 3: group formation, trie splitting, partition packing -------
	// Assign each distinct rank-sensitive signature (with its frequency) to
	// a group, scaling counts by 1/α to estimate full-dataset sizes. No trie
	// exists yet, so a tie left after the OD and WD stages goes to the lowest
	// group ID. Assignment is a pure function of the signature, so the loop
	// fans across the build workers; the per-group entry lists are then
	// materialised sequentially in sorted-key order, so neither map iteration
	// order nor worker scheduling influences the index layout.
	numGroups := assigner.NumGroups()
	groupEntries := make([][]trie.Entry, numGroups)
	scale := 1.0 / cfg.SampleRate
	rsKeys := make([]string, 0, len(rsAgg))
	for k := range rsAgg {
		rsKeys = append(rsKeys, k)
	}
	sort.Strings(rsKeys)
	assigned := make([]int, len(rsKeys))
	parallelChunks(len(rsKeys), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sig := rsAgg[rsKeys[i]].sig
			cands, _ := assigner.Candidates(sig, sig.RankInsensitive())
			assigned[i] = cands[0]
		}
	})
	for i, k := range rsKeys {
		e := rsAgg[k]
		est := int(float64(e.freq)*scale + 0.5)
		if est < 1 {
			est = 1
		}
		groupEntries[assigned[i]] = append(groupEntries[assigned[i]], trie.Entry{Sig: e.sig, Count: est})
	}

	skel := &Skeleton{
		Cfg:         cfg,
		SeriesLen:   seriesLen,
		Transformer: tr,
		Pivots:      pivots,
		Weigher:     weigher,
		Assigner:    assigner,
		Groups:      make([]*Group, numGroups),
	}

	nextPartition := 0
	var clusterBase int64
	for gid := 0; gid < numGroups; gid++ {
		g := &Group{ID: gid, Centroid: assigner.Centroid(gid), ClusterBase: clusterBase}
		// Every group gets a trie — including G0, whose members (sharing no
		// pivot with any centroid) still benefit from rank-sensitive
		// organisation when they are frequent enough in the sample.
		root, err := trie.Build(groupEntries[gid], cfg.Capacity)
		if err != nil {
			return nil, err
		}
		g.Trie = root
		g.indexNodes()
		clusterBase += int64(len(g.nodeByID))

		// Pack the trie leaves into partitions with FFD (Definition 13).
		leaves := root.Leaves()
		items := make([]packing.Item, len(leaves))
		for i, l := range leaves {
			items[i] = packing.Item{ID: l.ID, Size: l.Count}
		}
		bins, err := packing.FirstFitDecreasing(items, cfg.Capacity)
		if err != nil {
			return nil, err
		}
		if len(bins) == 0 { // empty group still owns one partition
			bins = []packing.Bin{{}}
		}
		// Global partition IDs; the group's least-occupied bin becomes the
		// default partition for overflow records.
		defaultPart, defaultSize := -1, -1
		for b, bin := range bins {
			pid := nextPartition + b
			for _, leafID := range bin.Items {
				g.node(leafID).Partitions = []int{pid}
			}
			skel.PartitionEst = append(skel.PartitionEst, bin.Size)
			if defaultSize == -1 || bin.Size < defaultSize {
				defaultSize = bin.Size
				defaultPart = pid
			}
		}
		g.DefaultPartition = defaultPart
		nextPartition += len(bins)
		root.PropagatePartitions()
		if root.IsLeaf() && len(root.Partitions) == 0 {
			// A group packed into a single empty bin: the childless root
			// maps to that partition directly.
			root.Partitions = []int{defaultPart}
		}
		skel.Groups[gid] = g
	}
	skel.NumPartitions = nextPartition
	return skel, nil
}

// chunkCount returns how many contiguous chunks parallelChunks splits n
// items into for the given worker count.
func chunkCount(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}

// parallelChunks splits [0, n) into one contiguous chunk per worker and runs
// fn on each concurrently. With one worker (or one item) it degenerates to a
// direct call — the sequential build, with no goroutine overhead. fn must
// only touch state disjoint per chunk.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	parallelChunksIndexed(n, workers, func(_, lo, hi int) { fn(lo, hi) })
}

// parallelChunksIndexed is parallelChunks with the chunk ordinal passed to
// fn, for workers that materialise one result slot per chunk.
func parallelChunksIndexed(n, workers int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for i, lo := 0, 0; lo < n; i, lo = i+1, lo+chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			fn(i, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
}

// RouteRecord computes the partition and record cluster of one data series
// (Step 4 of Figure 6) by the navigation its own query takes: PAA
// conversion, P4 dual signature, the OD/WD candidate groups (Algorithm 1),
// and Algorithm 3's target choice among them (selectTarget). The record is
// stored in the chosen trie node's cluster: a leaf's in its partition, an
// internal node's in the least-estimated partition under it, and the root's
// (a path matching no child) in the group's default partition under its
// overflow cluster. The route is a pure function of the skeleton and the
// values, so WAL replay and the reindex of a live delta recompute it exactly.
func (s *Skeleton) RouteRecord(values []float64) cluster.Route {
	rs, ri := s.Pivots.Dual(s.Transformer.Transform(values))
	cands, bestOD := s.Assigner.Candidates(rs, ri)
	t := s.selectTarget(cands, rs, bestOD)
	g, n := t.group, t.node
	switch {
	case n.IsLeaf():
		return cluster.Route{Partition: n.Partitions[0], Cluster: g.ClusterOf(n)}
	case n == g.Trie:
		return cluster.Route{Partition: g.DefaultPartition, Cluster: g.OverflowCluster()}
	}
	pid := n.Partitions[0]
	for _, p := range n.Partitions[1:] {
		if s.partitionEst(p) < s.partitionEst(pid) {
			pid = p
		}
	}
	return cluster.Route{Partition: pid, Cluster: g.ClusterOf(n)}
}

// partitionEst returns the skeleton's record-count estimate of a partition,
// 0 when it has none.
func (s *Skeleton) partitionEst(pid int) int {
	if pid < len(s.PartitionEst) {
		return s.PartitionEst[pid]
	}
	return 0
}

// GroupPartitions returns the sorted set of partition IDs owned by a group.
func (s *Skeleton) GroupPartitions(gid int) []int {
	g := s.Groups[gid]
	if len(g.Trie.Partitions) > 0 {
		return g.Trie.Partitions
	}
	return []int{g.DefaultPartition}
}

// NumGroups returns the number of groups including the fall-back G0.
func (s *Skeleton) NumGroups() int { return len(s.Groups) }
