package core

// This file freezes the pre-refactor monolithic search path — the single
// 600-line SearchContext that interleaved plan construction, partition
// traversal, widening, and delta merging before it was decomposed into the
// planner (plan.go) and executor (exec.go). It exists solely as the
// reference oracle for TestEngineMatchesLegacyBitForBit: the staged engine
// must return bit-for-bit identical (distance, ID) answers for every
// variant and for prefix queries. Do not "fix" or modernise this code; its
// value is that it does not change.

import (
	"context"
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"climber/internal/paa"
	"climber/internal/pivot"
	"climber/internal/series"
	"climber/internal/storage"
	"climber/internal/trie"
)

// legacyPlan maps a partition ID to the record clusters to scan inside it;
// a nil cluster set means "scan the whole partition".
type legacyPlan map[int]map[storage.ClusterID]struct{}

// legacySearchContext is the pre-refactor SearchContext, verbatim modulo
// renames.
func legacySearchContext(ctx context.Context, ix *Index, q []float64, opts SearchOptions) (*SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	skel := ix.Skeleton()

	paaQ := skel.Transformer.Transform(q)
	rs, ri := skel.Pivots.Dual(paaQ)
	cands, bestOD := skel.Assigner.Candidates(rs, ri)
	base := legacySelectTarget(ix, cands, rs, bestOD)
	stats := QueryStats{
		GroupsConsidered: len(cands),
		TargetNodeSize:   base.node.Count,
		TargetPathLen:    base.pathLen,
	}

	var plan legacyPlan
	switch opts.Variant {
	case VariantODSmallest:
		plan = legacyPlanODSmallest(ix, ri, bestOD)
	case VariantAdaptive2X, VariantAdaptive4X:
		plan = legacyPlanAdaptive(ix, base, rs, ri, bestOD, opts)
	default:
		plan = legacyPlanKNN(base)
	}

	top := series.NewTopK(opts.K)
	// The only deliberate changes in this frozen copy track the engine's
	// kernel moves, because the bit-for-bit regression pin only holds when
	// both paths accumulate distances identically: PR 7 moved the scan loop
	// onto the blocked early-abandon kernel, and the zero-copy read path
	// moved disk scans onto the raw float32 kernel (the query rounded to
	// storage precision once, records ranked straight from their encoded
	// bytes).
	q32 := series.ToFloat32(q)
	rawDist := func(rec []byte, bound float64) float64 {
		return series.SqDistEarlyAbandon32Blocked(q32, rec, bound)
	}
	if err := legacyExecutePlanDist(ctx, ix, plan, nil, top, true, &stats, rawDist); err != nil {
		return nil, err
	}

	if opts.Variant != VariantODSmallest && top.Len() < opts.K {
		wplan := make(legacyPlan, len(plan))
		for pid := range plan {
			wplan[pid] = nil
		}
		if err := legacyExecutePlanDist(ctx, ix, wplan, plan, top, false, &stats, rawDist); err != nil {
			return nil, err
		}
	}

	results := top.Results()
	for i := range results {
		results[i].Dist = math.Sqrt(results[i].Dist)
	}
	out := &SearchResult{Results: results, Stats: stats}
	if opts.Explain {
		pids := make([]int, 0, len(plan))
		for pid := range plan {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		out.Explain = &Explanation{
			RankSensitive:   rs.Clone(),
			RankInsensitive: ri.Clone(),
			BestOD:          bestOD,
			CandidateGroups: append([]int(nil), cands...),
			SelectedGroup:   base.group.ID,
			MatchedPath:     rs[:base.pathLen].Clone(),
			TargetNodeSize:  base.node.Count,
			Partitions:      pids,
		}
	}
	return out, nil
}

// legacySearchPrefixContext is the pre-refactor SearchPrefixContext.
func legacySearchPrefixContext(ctx context.Context, ix *Index, q []float64, opts SearchOptions) (*SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	skel := ix.Skeleton()
	if len(q) == skel.SeriesLen {
		return legacySearchContext(ctx, ix, q, opts)
	}

	tr, err := paa.NewTransformer(len(q), skel.Cfg.Segments)
	if err != nil {
		return nil, err
	}
	paaQ := tr.Transform(q)
	rs, ri := skel.Pivots.Dual(paaQ)
	cands, bestOD := skel.Assigner.Candidates(rs, ri)
	base := legacySelectTarget(ix, cands, rs, bestOD)
	stats := QueryStats{
		GroupsConsidered: len(cands),
		TargetNodeSize:   base.node.Count,
		TargetPathLen:    base.pathLen,
	}

	var plan legacyPlan
	switch opts.Variant {
	case VariantODSmallest:
		plan = legacyPlanODSmallest(ix, ri, bestOD)
	case VariantAdaptive2X, VariantAdaptive4X:
		plan = legacyPlanAdaptive(ix, base, rs, ri, bestOD, opts)
	default:
		plan = legacyPlanKNN(base)
	}

	top := series.NewTopK(opts.K)
	prefixLen := len(q)
	// Same lockstep kernel switch as legacySearchContext: the regression
	// pin requires both paths to share one accumulation order (raw float32
	// over the record's first prefixLen readings).
	q32 := series.ToFloat32(q)
	rawDist := func(rec []byte, bound float64) float64 {
		return series.SqDistEarlyAbandon32Blocked(q32, rec[:4*prefixLen], bound)
	}
	if err := legacyExecutePlanDist(ctx, ix, plan, nil, top, true, &stats, rawDist); err != nil {
		return nil, err
	}
	if opts.Variant != VariantODSmallest && top.Len() < opts.K {
		wplan := make(legacyPlan, len(plan))
		for pid := range plan {
			wplan[pid] = nil
		}
		if err := legacyExecutePlanDist(ctx, ix, wplan, plan, top, false, &stats, rawDist); err != nil {
			return nil, err
		}
	}

	results := top.Results()
	for i := range results {
		results[i].Dist = math.Sqrt(results[i].Dist)
	}
	return &SearchResult{Results: results, Stats: stats}, nil
}

// legacySelectTarget is the pre-refactor selectTarget.
func legacySelectTarget(ix *Index, cands []int, rs pivot.Signature, bestOD int) target {
	best := target{pathLen: -1}
	for _, gid := range cands {
		g := ix.Skeleton().Groups[gid]
		node, pathLen := g.Trie.Descend(rs)
		cand := target{group: g, node: node, od: bestOD, pathLen: pathLen}
		switch {
		case best.group == nil,
			cand.pathLen > best.pathLen,
			cand.pathLen == best.pathLen && cand.node.Count > best.node.Count:
			best = cand
		}
	}
	return best
}

// legacyClustersUnder tracks the engine's one deliberate change to the
// cluster set: records stop at internal trie nodes too, so every node of the
// subtree is listed, not only its leaves.
func legacyClustersUnder(g *Group, n *trie.Node) []storage.ClusterID {
	nodes := n.Nodes()
	out := make([]storage.ClusterID, 0, len(nodes)+1)
	for _, nd := range nodes {
		out = append(out, g.ClusterOf(nd))
	}
	if n == g.Trie {
		out = append(out, g.OverflowCluster())
	}
	return out
}

func legacyPartitionsOf(g *Group, n *trie.Node) []int {
	if len(n.Partitions) > 0 {
		return n.Partitions
	}
	return []int{g.DefaultPartition}
}

func (p legacyPlan) addTarget(g *Group, n *trie.Node) {
	parts := legacyPartitionsOf(g, n)
	clusters := legacyClustersUnder(g, n)
	for _, pid := range parts {
		set, ok := p[pid]
		if !ok {
			set = make(map[storage.ClusterID]struct{})
			p[pid] = set
		}
		if set == nil {
			continue // whole partition already planned
		}
		for _, c := range clusters {
			set[c] = struct{}{}
		}
	}
}

func (p legacyPlan) addWholePartition(pid int) { p[pid] = nil }

func legacyPlanKNN(base target) legacyPlan {
	plan := make(legacyPlan)
	plan.addTarget(base.group, base.node)
	return plan
}

func legacyPlanODSmallest(ix *Index, ri pivot.Signature, bestOD int) legacyPlan {
	plan := make(legacyPlan)
	gids, _ := ix.Skeleton().Assigner.BestByOverlap(ri)
	if bestOD == ix.Skeleton().Cfg.PrefixLen {
		gids = []int{0}
	}
	for _, gid := range gids {
		for _, pid := range ix.Skeleton().GroupPartitions(gid) {
			plan.addWholePartition(pid)
		}
	}
	return plan
}

func legacyPlanAdaptive(ix *Index, base target, rs, ri pivot.Signature, bestOD int, opts SearchOptions) legacyPlan {
	plan := make(legacyPlan)
	plan.addTarget(base.group, base.node)
	if base.node.Count >= opts.K {
		return plan
	}

	maxParts := opts.Variant.partitionFactor() * len(legacyPartitionsOf(base.group, base.node))
	if opts.MaxPartitions > 0 {
		maxParts = opts.MaxPartitions
	}

	var cands []target
	for _, gid := range ix.Skeleton().Assigner.GroupsWithinOD(ri, bestOD) {
		g := ix.Skeleton().Groups[gid]
		node, pathLen := g.Trie.Descend(rs)
		if g == base.group && node == base.node {
			node = legacyParentOf(g.Trie, node)
			pathLen--
		}
		for node != nil && pathLen >= 0 {
			cands = append(cands, target{group: g, node: node, od: bestOD, pathLen: pathLen})
			node = legacyParentOf(g.Trie, node)
			pathLen--
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].pathLen != cands[j].pathLen {
			return cands[i].pathLen > cands[j].pathLen
		}
		if cands[i].node.Count != cands[j].node.Count {
			return cands[i].node.Count > cands[j].node.Count
		}
		return cands[i].group.ID < cands[j].group.ID
	})

	covered := base.node.Count
	for _, c := range cands {
		if covered >= opts.K {
			break
		}
		if legacyWouldExceedCap(plan, c, maxParts) {
			continue
		}
		before := legacyPlanSize(plan)
		plan.addTarget(c.group, c.node)
		if legacyPlanSize(plan) > before {
			covered += c.node.Count
		}
	}
	return plan
}

func legacyParentOf(root, child *trie.Node) *trie.Node {
	if root == child {
		return nil
	}
	var found *trie.Node
	var walk func(*trie.Node) bool
	walk = func(n *trie.Node) bool {
		for _, c := range n.Children {
			if c == child {
				found = n
				return true
			}
			if walk(c) {
				return true
			}
		}
		return false
	}
	walk(root)
	return found
}

func legacyWouldExceedCap(plan legacyPlan, c target, maxParts int) bool {
	extra := make(map[int]struct{})
	for _, pid := range legacyPartitionsOf(c.group, c.node) {
		if _, ok := plan[pid]; !ok {
			extra[pid] = struct{}{}
		}
	}
	return len(plan)+len(extra) > maxParts
}

func legacyPlanSize(plan legacyPlan) int {
	n := 0
	for _, set := range plan {
		if set == nil {
			n++
			continue
		}
		n += len(set)
	}
	return n
}

func legacyExecutePlanDist(ctx context.Context, ix *Index, plan, done legacyPlan, top *series.TopK, countLoads bool, stats *QueryStats,
	rawDist func(rec []byte, bound float64) float64) error {
	pids := make([]int, 0, len(plan))
	for pid := range plan {
		pids = append(pids, pid)
	}
	sort.Ints(pids)

	var mu sync.Mutex
	var boundBits atomic.Uint64
	if b, ok := top.Bound(); ok {
		boundBits.Store(math.Float64bits(b))
	} else {
		boundBits.Store(math.Float64bits(math.Inf(1)))
	}
	var recordsScanned atomic.Int64

	scan := func(id int, rec []byte) error {
		if n := recordsScanned.Add(1); n%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		bound := math.Float64frombits(boundBits.Load())
		d := rawDist(rec, bound)
		if d >= bound {
			return nil
		}
		mu.Lock()
		top.Push(id, d)
		if b, ok := top.Bound(); ok {
			boundBits.Store(math.Float64bits(b))
		}
		mu.Unlock()
		return nil
	}

	scanPartition := func(pid int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := ix.Cl.OpenPartition(ix.Partitions(), pid)
		if err != nil {
			return err
		}
		defer p.Close()
		recBytes := storage.RecordBytes(p.SeriesLen())
		run := func(recs, _ []byte) error {
			for off := 0; off < len(recs); off += recBytes {
				rec := recs[off : off+recBytes]
				if err := scan(int(binary.LittleEndian.Uint64(rec)), rec[8:]); err != nil {
					return err
				}
			}
			return nil
		}
		mu.Lock()
		if countLoads {
			stats.PartitionsScanned++
			stats.BytesLoaded += int64(p.Count() * storage.RecordBytes(p.SeriesLen()))
		}
		mu.Unlock()
		var doneSet map[storage.ClusterID]struct{}
		if done != nil {
			doneSet = done[pid]
		}
		want := plan[pid]
		if want == nil { // whole partition
			for _, ci := range p.Clusters() {
				if doneSet != nil {
					if _, ok := doneSet[ci.ID]; ok {
						continue
					}
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := p.ScanClusterRuns(ci.ID, run); err != nil {
					return err
				}
			}
			return nil
		}
		ids := make([]storage.ClusterID, 0, len(want))
		for c := range want {
			if doneSet != nil {
				if _, ok := doneSet[c]; ok {
					continue
				}
			}
			ids = append(ids, c)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := p.ScanClusterRuns(id, run); err != nil {
				return err
			}
		}
		return nil
	}

	var err error
	if len(pids) <= 1 {
		for _, pid := range pids {
			if e := scanPartition(pid); e != nil {
				err = e
			}
		}
	} else {
		errs := make([]error, len(pids))
		var wg sync.WaitGroup
		for i, pid := range pids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = scanPartition(pid)
			}()
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	stats.RecordsScanned += int(recordsScanned.Load())
	return err
}
