package core

import (
	"sort"

	"climber/internal/pivot"
	"climber/internal/storage"
	"climber/internal/trie"
)

// PlanStep is one executable unit of a query plan: open one partition and
// scan the listed record clusters inside it. A nil Clusters set means the
// whole partition. Steps are self-contained, so an executor can run them in
// any order, stop between them, and account for each one independently —
// the granularity at which budgets are checked and progressive snapshots
// are emitted.
type PlanStep struct {
	// Partition is the physical partition to open.
	Partition int
	// Clusters narrows the scan to the listed record clusters; nil scans
	// every cluster of the partition.
	Clusters map[storage.ClusterID]struct{}
	// OD is the Overlap Distance of the group(s) that planned this step —
	// the paper's coarse relevance score for the partition's contents.
	OD int
	// PathLen is the deepest matched trie-path length among the targets
	// that planned this step; -1 for whole-partition policies
	// (OD-Smallest), whose relevance is the OD alone.
	PathLen int
	// Est is the skeleton's record-count estimate for the planned clusters
	// — the ranking hint behind the step order, not an exact count.
	Est int
}

// ScanPlan is the planner's product: the ranked, executable decomposition
// of one query. Steps are ordered most-promising first (deepest trie match,
// then largest estimated membership, then partition ID), so an executor
// that stops early — because a Budget ran out or a progressive consumer is
// satisfied — has always spent its effort on the best candidates the
// skeleton could identify.
type ScanPlan struct {
	// Steps are the executable units, ranked most-promising first. At most
	// one step exists per partition.
	Steps []PlanStep
	// Widen marks plans that run the within-partition widening stage when
	// the planned clusters yield fewer than K results (every variant except
	// OD-Smallest, whose steps already cover whole partitions).
	Widen bool
}

// planMap maps a partition ID to the record clusters to scan inside it; a
// nil cluster set means "scan the whole partition". It is the builder-side
// representation of a plan, before ranking flattens it into steps.
type planMap map[int]map[storage.ClusterID]struct{}

// stepMeta carries one planned partition's ranking annotations while the
// plan is under construction.
type stepMeta struct {
	od      int
	pathLen int
	est     int
}

// planBuilder accumulates the (partition → clusters) plan with its ranking
// annotations.
type planBuilder struct {
	parts planMap
	meta  map[int]*stepMeta
}

func newPlanBuilder() *planBuilder {
	return &planBuilder{parts: make(planMap), meta: make(map[int]*stepMeta)}
}

// metaFor returns (creating if needed) the annotations of one partition.
func (pb *planBuilder) metaFor(pid, od, pathLen int) *stepMeta {
	m, ok := pb.meta[pid]
	if !ok {
		m = &stepMeta{od: od, pathLen: pathLen}
		pb.meta[pid] = m
		return m
	}
	if od < m.od {
		m.od = od
	}
	if pathLen > m.pathLen {
		m.pathLen = pathLen
	}
	return m
}

// addTarget folds one (group, node) target into the plan.
func (pb *planBuilder) addTarget(c target) {
	g, n := c.group, c.node
	parts := partitionsOf(g, n)
	clusters := clustersUnder(g, n)
	for _, pid := range parts {
		m := pb.metaFor(pid, c.od, c.pathLen)
		set, ok := pb.parts[pid]
		if !ok {
			set = make(map[storage.ClusterID]struct{})
			pb.parts[pid] = set
		}
		if set == nil {
			continue // whole partition already planned
		}
		before := len(set)
		for _, cl := range clusters {
			set[cl] = struct{}{}
		}
		if len(set) > before {
			m.est += n.Count
		}
	}
}

// addWholePartition plans a full scan of one partition.
func (pb *planBuilder) addWholePartition(pid, od, est int) {
	m := pb.metaFor(pid, od, -1)
	pb.parts[pid] = nil
	m.est = est
}

// build ranks the accumulated partitions into an ordered step list:
// smallest OD first, then deepest matched path, then largest estimated
// membership, then partition ID — a total, deterministic order.
func (pb *planBuilder) build(widen bool) *ScanPlan {
	steps := make([]PlanStep, 0, len(pb.parts))
	for pid, set := range pb.parts {
		m := pb.meta[pid]
		steps = append(steps, PlanStep{Partition: pid, Clusters: set, OD: m.od, PathLen: m.pathLen, Est: m.est})
	}
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].OD != steps[j].OD {
			return steps[i].OD < steps[j].OD
		}
		if steps[i].PathLen != steps[j].PathLen {
			return steps[i].PathLen > steps[j].PathLen
		}
		if steps[i].Est != steps[j].Est {
			return steps[i].Est > steps[j].Est
		}
		return steps[i].Partition < steps[j].Partition
	})
	return &ScanPlan{Steps: steps, Widen: widen}
}

// plan turns the navigated skeleton state into the ranked ScanPlan of the
// requested variant — the pure "plan construction" half of Algorithm 3,
// with the adaptive expansion of Section VI and the OD-Smallest ablation as
// alternative policies. It performs no I/O.
func (s *Skeleton) plan(base target, rs, ri pivot.Signature, bestOD int, opts SearchOptions) *ScanPlan {
	pb := newPlanBuilder()
	switch opts.Variant {
	case VariantODSmallest:
		s.planODSmallest(pb, ri, bestOD)
		return pb.build(false)
	case VariantAdaptive2X, VariantAdaptive4X:
		s.planAdaptive(pb, base, rs, ri, bestOD, opts)
	default:
		pb.addTarget(base) // plain CLIMBER-kNN: the base target only
	}
	return pb.build(true)
}

// planODSmallest plans every partition of every group at the smallest OD.
func (s *Skeleton) planODSmallest(pb *planBuilder, ri pivot.Signature, bestOD int) {
	gids, _ := s.Assigner.BestByOverlap(ri)
	if bestOD == s.Cfg.PrefixLen {
		gids = []int{0}
	}
	for _, gid := range gids {
		for _, pid := range s.GroupPartitions(gid) {
			pb.addWholePartition(pid, bestOD, s.partitionEst(pid))
		}
	}
}

// planAdaptive implements CLIMBER-kNN-Adaptive (Section VI): when the base
// trie node holds fewer than K records, the search expands to further
// best-matching trie nodes — the deepest match of every group within the
// smallest OD, then their parents (the 2nd-longest matches) — until the
// selected nodes' sizes sum past K, bounded by the variant's partition cap.
func (s *Skeleton) planAdaptive(pb *planBuilder, base target, rs, ri pivot.Signature, bestOD int, opts SearchOptions) {
	pb.addTarget(base)
	if base.node.Count >= opts.K {
		return // behaves exactly like CLIMBER-kNN (Figure 9 observation 2)
	}

	maxParts := opts.Variant.partitionFactor() * len(partitionsOf(base.group, base.node))
	if opts.MaxPartitions > 0 {
		maxParts = opts.MaxPartitions
	}

	// Memorised candidates: deepest node per group within the smallest OD,
	// plus each node's ancestors as progressively coarser fallbacks.
	var cands []target
	for _, gid := range s.Assigner.GroupsWithinOD(ri, bestOD) {
		g := s.Groups[gid]
		node, pathLen := g.Trie.Descend(rs)
		if g == base.group && node == base.node {
			node = parentOf(g.Trie, node) // base already planned; offer its parent
			pathLen--
		}
		for node != nil && pathLen >= 0 {
			cands = append(cands, target{group: g, node: node, od: bestOD, pathLen: pathLen})
			node = parentOf(g.Trie, node)
			pathLen--
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].outranks(cands[j]) })

	covered := base.node.Count
	for _, c := range cands {
		if covered >= opts.K {
			break
		}
		if wouldExceedPartitionCap(pb.parts, c, maxParts) {
			continue
		}
		before := planSize(pb.parts)
		pb.addTarget(c)
		if planSize(pb.parts) > before { // the target added new clusters
			covered += c.node.Count
		}
	}
}

// clustersUnder returns the global record-cluster IDs of every node of the
// subtree rooted at a node — records stop at internal nodes as well as at
// leaves (see RouteRecord) — including the group's overflow cluster when the
// node is the group root (records matching no child of the root).
func clustersUnder(g *Group, n *trie.Node) []storage.ClusterID {
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

// partitionsOf returns the partitions covering a node, falling back to the
// group's partition set for a childless root.
func partitionsOf(g *Group, n *trie.Node) []int {
	if len(n.Partitions) > 0 {
		return n.Partitions
	}
	return []int{g.DefaultPartition}
}

// parentOf finds the parent of a node within a trie (tries are small; a
// DFS walk is cheap and avoids storing parent pointers in every node).
func parentOf(root, child *trie.Node) *trie.Node {
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

// wouldExceedPartitionCap reports whether adding the target would grow the
// plan's distinct-partition count beyond maxParts. The target's partition
// list can repeat IDs (an internal node covering several leaves packed into
// the same bin), so new partitions are counted as a set — counting
// duplicates would refuse targets that actually fit the cap.
func wouldExceedPartitionCap(plan planMap, c target, maxParts int) bool {
	extra := make(map[int]struct{})
	for _, pid := range partitionsOf(c.group, c.node) {
		if _, ok := plan[pid]; !ok {
			extra[pid] = struct{}{}
		}
	}
	return len(plan)+len(extra) > maxParts
}

// planSize counts the clusters planned (whole-partition entries count as 1).
func planSize(plan planMap) int {
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
