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

// planBuilder accumulates the plan under construction: one step per
// partition, unranked.
type planBuilder map[int]*PlanStep

// step returns partition pid's step, creating it with an empty cluster set,
// or folds the smaller OD and the deeper path into the existing one.
func (pb planBuilder) step(pid, od, pathLen int) *PlanStep {
	st, ok := pb[pid]
	if !ok {
		st = &PlanStep{Partition: pid, Clusters: make(map[storage.ClusterID]struct{}), OD: od, PathLen: pathLen}
		pb[pid] = st
	}
	st.OD = min(st.OD, od)
	st.PathLen = max(st.PathLen, pathLen)
	return st
}

// addTarget folds one (group, node) target into the plan and reports
// whether it added a cluster. Every step it touches holds a cluster set:
// whole-partition (nil) steps come only from OD-Smallest, which adds no
// targets.
func (pb planBuilder) addTarget(c target) bool {
	clusters := clustersUnder(c.group, c.node)
	added := false
	for _, pid := range partitionsOf(c.group, c.node) {
		st := pb.step(pid, c.od, c.pathLen)
		before := len(st.Clusters)
		for _, cl := range clusters {
			st.Clusters[cl] = struct{}{}
		}
		if len(st.Clusters) > before {
			st.Est += c.node.Count
			added = true
		}
	}
	return added
}

// wouldExceedPartitionCap reports whether adding the target would grow the
// plan's distinct-partition count beyond maxParts. The target's partition
// list can repeat IDs (an internal node covering several leaves packed into
// the same bin), so new partitions are counted as a set — counting
// duplicates would refuse targets that actually fit the cap.
func (pb planBuilder) wouldExceedPartitionCap(c target, maxParts int) bool {
	extra := make(map[int]struct{})
	for _, pid := range partitionsOf(c.group, c.node) {
		if _, ok := pb[pid]; !ok {
			extra[pid] = struct{}{}
		}
	}
	return len(pb)+len(extra) > maxParts
}

// ranked flattens the plan into its executable steps, most promising
// first: smallest OD, then deepest matched path, then largest estimated
// membership, then partition ID. The order is total and deterministic, and
// an executor that stops early (a Budget ran out, a progressive consumer is
// satisfied) has always spent its effort on the best candidates the
// skeleton could identify.
func (pb planBuilder) ranked() []PlanStep {
	steps := make([]PlanStep, 0, len(pb))
	for _, st := range pb {
		steps = append(steps, *st)
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
	return steps
}

// plan turns the navigated skeleton state into the ranked steps of the
// requested variant — the pure "plan construction" half of Algorithm 3,
// with the adaptive expansion of Section VI and the OD-Smallest ablation as
// alternative policies. At most one step exists per partition. It performs
// no I/O.
func (s *Skeleton) plan(base target, rs, ri pivot.Signature, bestOD int, opts SearchOptions) []PlanStep {
	pb := make(planBuilder)
	switch opts.Variant {
	case VariantODSmallest:
		// Every partition of every group at the smallest OD, whole.
		gids, _ := s.Assigner.BestByOverlap(ri)
		if bestOD == s.Cfg.PrefixLen {
			gids = []int{0}
		}
		for _, gid := range gids {
			for _, pid := range s.GroupPartitions(gid) {
				pb[pid] = &PlanStep{Partition: pid, OD: bestOD, PathLen: -1, Est: s.partitionEst(pid)}
			}
		}
	case VariantAdaptive2X, VariantAdaptive4X:
		s.planAdaptive(pb, base, rs, ri, bestOD, opts)
	default:
		pb.addTarget(base) // plain CLIMBER-kNN: the base target only
	}
	return pb.ranked()
}

// planAdaptive implements CLIMBER-kNN-Adaptive (Section VI): when the base
// trie node holds fewer than K records, the search expands to further
// best-matching trie nodes — the deepest match of every group within the
// smallest OD, then their ancestors (the 2nd-longest matches and shorter) —
// until the selected nodes' sizes sum past K, bounded by the variant's
// partition cap.
func (s *Skeleton) planAdaptive(pb planBuilder, base target, rs, ri pivot.Signature, bestOD int, opts SearchOptions) {
	pb.addTarget(base)
	if base.node.Count >= opts.K {
		return // behaves exactly like CLIMBER-kNN (Figure 9 observation 2)
	}

	maxParts := opts.Variant.partitionFactor() * len(partitionsOf(base.group, base.node))
	if opts.MaxPartitions > 0 {
		maxParts = opts.MaxPartitions
	}

	// Memorised candidates: deepest node per group within the smallest OD,
	// plus each node's ancestors — the same path cut shorter — as
	// progressively coarser fallbacks.
	var cands []target
	for _, gid := range s.Assigner.GroupsWithinOD(ri, bestOD) {
		g := s.Groups[gid]
		_, pathLen := g.Trie.Descend(rs)
		if g == base.group {
			pathLen = base.pathLen - 1 // base already planned; offer its ancestors
		}
		for d := pathLen; d >= 0; d-- {
			node, _ := g.Trie.Descend(rs[:d])
			cands = append(cands, target{group: g, node: node, od: bestOD, pathLen: d})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].outranks(cands[j]) })

	covered := base.node.Count
	for _, c := range cands {
		if covered >= opts.K {
			break
		}
		if !pb.wouldExceedPartitionCap(c, maxParts) && pb.addTarget(c) {
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
