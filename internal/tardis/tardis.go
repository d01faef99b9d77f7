// Package tardis implements the TARDIS baseline (Zhang, Alghamdi, Eltabakh,
// Rundensteiner: "TARDIS: Distributed Indexing Framework for Big Time
// Series Data", ICDE 2019) — the stronger of the two iSAX-based distributed
// systems CLIMBER is compared against (paper Sections III-B and VII; best
// reported recall ~40%).
//
// TARDIS builds a *sigTree*: a wide n-ary tree over iSAX words in which a
// node split refines every segment by one bit simultaneously (word-level
// split), in contrast to DPiSAX's one-segment binary splits. Small sibling
// leaves are packed together into physical partitions, and each node is
// labelled with the partitions covering its subtree. Queries descend by
// their own iSAX word to the deepest existing node and scan that node's
// records, widening within the loaded partitions when fewer than K
// candidates are found.
package tardis

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"climber/internal/cluster"
	"climber/internal/paa"
	"climber/internal/packing"
	"climber/internal/sax"
	"climber/internal/series"
	"climber/internal/storage"
)

// Config parameterises a TARDIS build.
type Config struct {
	// Segments is the iSAX word length w. TARDIS favours small words
	// (paper Section III-B) to bound the sigTree's width.
	Segments int
	// MaxBits caps the per-segment cardinality at 2^MaxBits.
	MaxBits int
	// Capacity is the partition capacity in records.
	Capacity int
	// SampleRate is the fraction of blocks sampled for the global tree.
	SampleRate float64
	// Seed drives sampling.
	Seed uint64
}

// DefaultConfig mirrors the TARDIS paper's setup at record-count scale.
func DefaultConfig() Config {
	return Config{Segments: 8, MaxBits: 8, Capacity: 2000, SampleRate: 0.1, Seed: 42}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Segments <= 0 {
		return fmt.Errorf("tardis: Segments must be positive, got %d", c.Segments)
	}
	if c.MaxBits <= 0 || c.MaxBits > sax.MaxBits {
		return fmt.Errorf("tardis: MaxBits must be in [1, %d], got %d", sax.MaxBits, c.MaxBits)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("tardis: Capacity must be positive, got %d", c.Capacity)
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("tardis: SampleRate must be in (0, 1], got %g", c.SampleRate)
	}
	return nil
}

// node is one sigTree vertex. Children are keyed by the word at bits+1 per
// segment; the map key is the child word's canonical string.
type node struct {
	id         int // unique within the tree (record-cluster ID)
	bits       uint8
	word       sax.Word
	children   map[string]*node
	count      int // sample-scaled estimate
	partitions []int
}

func (n *node) isLeaf() bool { return len(n.children) == 0 }

// Index is a built TARDIS index.
type Index struct {
	Cfg           Config
	SeriesLen     int
	root          *node
	nodeCount     int
	tr            *paa.Transformer
	Cl            *cluster.Cluster
	Parts         *cluster.PartitionSet
	NumPartitions int
	defaultPart   int // receives records whose word path is missing
	Stats         BuildStats
}

// BuildStats times the construction phases.
type BuildStats struct {
	SampleRecords int
	Tree          time.Duration
	Redistribute  time.Duration
	Total         time.Duration
}

// Build samples the dataset, grows the sigTree, packs leaves into
// partitions, and re-distributes every record.
func Build(cl *cluster.Cluster, bs *cluster.BlockSet, cfg Config, name string) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	tr, err := paa.NewTransformer(bs.Length(), cfg.Segments)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0xbb67ae8584caa73b))
	sample, err := cl.SampleDataset(bs, cl.SampleBlocks(bs, cfg.SampleRate, rng), nil)
	if err != nil {
		return nil, fmt.Errorf("tardis: sampling: %w", err)
	}

	scale := float64(bs.Len()) / math.Max(1, float64(sample.Len()))
	sigs := make([][]float64, sample.Len())
	for i := range sigs {
		sigs[i] = tr.Transform(sample.Get(i))
	}

	ix := &Index{Cfg: cfg, SeriesLen: bs.Length(), tr: tr, Cl: cl}
	ix.root = &node{
		word:     sax.Word{Symbols: make([]uint16, cfg.Segments), Bits: make([]uint8, cfg.Segments)},
		children: nil,
	}
	ix.root.id = ix.nextNodeID()
	ix.grow(ix.root, sigs, scale)

	// Pack leaves into partitions in DFS word order, so each partition
	// covers a contiguous range of sigTree leaves (TARDIS packs small
	// sibling leaves together; spatial locality is what lets its
	// within-partition widening recover recall).
	leaves := ix.leaves()
	items := make([]packing.Item, len(leaves))
	byID := make(map[int]*node, len(leaves))
	for i, l := range leaves {
		items[i] = packing.Item{ID: l.id, Size: l.count}
		byID[l.id] = l
	}
	bins, err := packing.SequentialFill(items, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	if len(bins) == 0 {
		bins = []packing.Bin{{}}
	}
	smallest, smallestSize := 0, math.MaxInt
	for b, bin := range bins {
		for _, leafID := range bin.Items {
			byID[leafID].partitions = []int{b}
		}
		if bin.Size < smallestSize {
			smallestSize = bin.Size
			smallest = b
		}
	}
	ix.NumPartitions = len(bins)
	ix.defaultPart = smallest
	propagate(ix.root)
	if ix.root.isLeaf() && len(ix.root.partitions) == 0 {
		ix.root.partitions = []int{smallest}
	}
	treeTime := time.Since(start)

	// Re-distribute the full dataset.
	redistStart := time.Now()
	routes, err := cl.Convert(bs, bs.Len(), func(values []float64) cluster.Route {
		n, complete := ix.descendPAA(tr.Transform(values))
		if complete && n.isLeaf() {
			return cluster.Route{Partition: n.partitions[0], Cluster: storage.ClusterID(n.id)}
		}
		return cluster.Route{Partition: ix.defaultPart, Cluster: -1}
	})
	if err != nil {
		return nil, fmt.Errorf("tardis: conversion: %w", err)
	}
	parts, err := cl.Shuffle(bs, ix.NumPartitions, cluster.Dest{Name: name}, routes)
	if err != nil {
		return nil, fmt.Errorf("tardis: re-distribution: %w", err)
	}
	ix.Parts = parts
	ix.Stats = BuildStats{
		SampleRecords: sample.Len(),
		Tree:          treeTime,
		Redistribute:  time.Since(redistStart),
		Total:         time.Since(start),
	}
	return ix, nil
}

func (ix *Index) nextNodeID() int {
	id := ix.nodeCount
	ix.nodeCount++
	return id
}

// grow splits a node word-level while it exceeds capacity: every child
// refines all segments by one bit, so the fanout is bounded by 2^w but in
// practice only words present in the sample materialise.
func (ix *Index) grow(n *node, sigs [][]float64, scale float64) {
	n.count = int(float64(len(sigs))*scale + 0.5)
	if n.count <= ix.Cfg.Capacity || int(n.bits) >= ix.Cfg.MaxBits || len(sigs) < 2 {
		return
	}
	groupsByKey := make(map[string][][]float64)
	words := make(map[string]sax.Word)
	for _, s := range sigs {
		w := sax.NewWordUniform(s, n.bits+1)
		k := w.Key()
		groupsByKey[k] = append(groupsByKey[k], s)
		if _, ok := words[k]; !ok {
			words[k] = w
		}
	}
	// Even when all sample members share the refined word (a single-child
	// chain), we refine: deeper bits may discriminate, and the MaxBits
	// bound above guarantees termination.
	keys := make([]string, 0, len(groupsByKey))
	for k := range groupsByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n.children = make(map[string]*node, len(keys))
	for _, k := range keys {
		child := &node{bits: n.bits + 1, word: words[k]}
		child.id = ix.nextNodeID()
		n.children[k] = child
		ix.grow(child, groupsByKey[k], scale)
	}
}

// descendPAA walks the sigTree as deep as the signature's words have
// matching children. complete reports whether the walk ended at a leaf.
func (ix *Index) descendPAA(sig []float64) (n *node, complete bool) {
	n = ix.root
	for !n.isLeaf() {
		w := sax.NewWordUniform(sig, n.bits+1)
		child, ok := n.children[w.Key()]
		if !ok {
			return n, false
		}
		n = child
	}
	return n, true
}

// leaves returns the leaf nodes in DFS order (children sorted by key).
func (ix *Index) leaves() []*node {
	var out []*node
	var walk func(*node)
	walk = func(n *node) {
		if n.isLeaf() {
			out = append(out, n)
			return
		}
		keys := make([]string, 0, len(n.children))
		for k := range n.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			walk(n.children[k])
		}
	}
	walk(ix.root)
	return out
}

// propagate labels internal nodes with the union of their children's
// partitions.
func propagate(n *node) []int {
	if n.isLeaf() {
		return n.partitions
	}
	set := map[int]struct{}{}
	for _, c := range n.children {
		for _, p := range propagate(c) {
			set[p] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	n.partitions = out
	return out
}

// QueryStats reports the per-query effort.
type QueryStats struct {
	PartitionsScanned int
	RecordsScanned    int
	BytesLoaded       int64
	PathLen           int
}

// SearchResult is the approximate answer with statistics.
type SearchResult struct {
	Results []series.Result
	Stats   QueryStats
}

// Search answers an approximate kNN query: descend to the deepest node
// matching the query's iSAX words, scan that subtree's record clusters in
// its partition(s), and widen to the rest of the loaded partition(s) if
// fewer than k candidates were found. TARDIS never expands beyond the
// single best-matching partition set (paper Section VII-B: iSAX-based
// systems "constraint their search to a single partition").
func (ix *Index) Search(q []float64, k int) (*SearchResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tardis: k must be positive, got %d", k)
	}
	if len(q) != ix.SeriesLen {
		return nil, fmt.Errorf("tardis: query length %d, index expects %d", len(q), ix.SeriesLen)
	}
	sig := ix.tr.Transform(q)
	n, _ := ix.descendPAA(sig)

	// Clusters under n.
	clusterSet := make(map[storage.ClusterID]struct{})
	var collect func(*node)
	collect = func(nd *node) {
		if nd.isLeaf() {
			clusterSet[storage.ClusterID(nd.id)] = struct{}{}
			return
		}
		for _, c := range nd.children {
			collect(c)
		}
	}
	collect(n)
	if n == ix.root {
		clusterSet[-1] = struct{}{}
	}
	parts := n.partitions
	if len(parts) == 0 {
		parts = []int{ix.defaultPart}
	}

	top := series.NewTopK(k)
	stats := QueryStats{PathLen: int(n.bits)}
	scan := func(id int, values []float64) error {
		if bound, ok := top.Bound(); ok {
			d := series.SqDistEarlyAbandon(q, values, bound)
			if d < bound {
				top.Push(id, d)
			}
		} else {
			top.Push(id, series.SqDist(q, values))
		}
		stats.RecordsScanned++
		return nil
	}
	for _, pid := range parts {
		p, err := ix.Cl.OpenPartition(ix.Parts, pid)
		if err != nil {
			return nil, err
		}
		stats.PartitionsScanned++
		stats.BytesLoaded += int64(p.Count() * storage.RecordBytes(p.SeriesLen()))
		ids := make([]storage.ClusterID, 0, len(clusterSet))
		for c := range clusterSet {
			ids = append(ids, c)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		err = p.ScanClusters(ids, scan)
		if err == nil && top.Len() < k {
			// Widen within the already-loaded partition.
			for _, ci := range p.Clusters() {
				if _, done := clusterSet[ci.ID]; done {
					continue
				}
				if err = p.ScanCluster(ci.ID, scan); err != nil {
					break
				}
			}
		}
		p.Close()
		if err != nil {
			return nil, err
		}
	}
	res := top.Results()
	for i := range res {
		res[i].Dist = math.Sqrt(res[i].Dist)
	}
	return &SearchResult{Results: res, Stats: stats}, nil
}

// TreeSize approximates the serialised size in bytes of the sigTree —
// TARDIS's global index, the largest of the three systems in Figure 8
// because word-level splits create 2-3x more nodes.
func (ix *Index) TreeSize() int {
	size := 0
	var walk func(*node)
	walk = func(n *node) {
		size += len(n.word.Symbols)*3 + 8 + 4 + 4*len(n.partitions)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(ix.root)
	return size
}

// NodeCount returns the total number of sigTree nodes.
func (ix *Index) NodeCount() int { return ix.nodeCount }
