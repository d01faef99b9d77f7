package core

import (
	"context"
	"fmt"
	"sort"

	"climber/internal/obs"
	"climber/internal/paa"
	"climber/internal/pivot"
	"climber/internal/series"
	"climber/internal/trie"
)

// Variant selects the query-processing strategy (paper Section VI and the
// experimental variations of Section VII-A). Each variant is a plan policy:
// it decides which (group, partition) steps the planner emits, while the
// executor (exec.go) runs whichever plan it is handed.
type Variant int

const (
	// VariantKNN is Algorithm 3: a single best-matching trie node, with
	// expansion only within the already-loaded partition(s) when the node
	// holds fewer than K records.
	VariantKNN Variant = iota
	// VariantAdaptive2X is CLIMBER-kNN-Adaptive capped at 2x the partitions
	// of the base algorithm.
	VariantAdaptive2X
	// VariantAdaptive4X caps at 4x — the paper's default variation.
	VariantAdaptive4X
	// VariantODSmallest scans every partition of every group whose Overlap
	// Distance to the query is smallest (Algorithm 3 stopped at Line 6) —
	// the upper-bound ablation of Figure 11(b).
	VariantODSmallest
)

// String names the variant as in the paper's plots.
func (v Variant) String() string {
	switch v {
	case VariantKNN:
		return "CLIMBER-kNN"
	case VariantAdaptive2X:
		return "CLIMBER-kNN-Adaptive-2X"
	case VariantAdaptive4X:
		return "CLIMBER-kNN-Adaptive-4X"
	case VariantODSmallest:
		return "OD-Smallest"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// partitionFactor returns the adaptive partition-cap multiplier relative to
// the base CLIMBER-kNN partition count.
func (v Variant) partitionFactor() int {
	switch v {
	case VariantAdaptive2X:
		return 2
	case VariantAdaptive4X:
		return 4
	default:
		return 1
	}
}

// SearchOptions parameterise one kNN query.
type SearchOptions struct {
	// K is the answer-set size (paper default 500).
	K int
	// Variant selects the algorithm; the zero value is CLIMBER-kNN.
	Variant Variant
	// MaxPartitions, when positive, overrides the adaptive variants'
	// partition cap (the paper's MaxNumPartitions configuration parameter).
	// It shapes the *plan*; Budget.MaxPartitions bounds the *execution*.
	MaxPartitions int
	// Budget, when non-zero, turns the query into an anytime query: the
	// executor stops at the first step boundary where a budget dimension
	// is exhausted and returns the best partial answer (see Budget).
	Budget Budget
	// Explain attaches the index-navigation trace to the result.
	Explain bool
	// Prefix declares that a query shorter than the indexed series length
	// is intended (see Query); without it a short query is an error.
	Prefix bool
}

// Explanation traces how Algorithm 3 navigated the index for one query —
// the operator-facing counterpart of the paper's Example 2 walkthrough. It
// crosses the wire unconverted (api.ExplainData is an alias), so the JSON
// tags are the wire contract's keys.
type Explanation struct {
	// RankSensitive and RankInsensitive are the query's P4 dual signature.
	RankSensitive   pivot.Signature `json:"rank_sensitive"`
	RankInsensitive pivot.Signature `json:"rank_insensitive"`
	// BestOD is the smallest Overlap Distance to any group centroid; equal
	// to the prefix length when the query fell back to G0.
	BestOD int `json:"best_od"`
	// CandidateGroups are the group IDs surviving the OD/WD filtering.
	CandidateGroups []int `json:"candidate_groups"`
	// SelectedGroup is the group whose trie was chosen.
	SelectedGroup int `json:"selected_group"`
	// MatchedPath is the pivot-ID prefix matched inside the group's trie
	// (the root-to-GN path of Example 2).
	MatchedPath pivot.Signature `json:"matched_path"`
	// TargetNodeSize is the estimated membership of the matched node.
	TargetNodeSize int `json:"target_node_size"`
	// Partitions are the physical partitions the plan selected, ascending.
	Partitions []int `json:"partitions"`
	// Variant names the plan policy that produced the plan.
	Variant string `json:"variant"`
	// Plan is the planner's ranked step list with its scores, in execution
	// order, each marked with whether the executor actually ran it — steps
	// with Executed false were skipped by a budget (see
	// QueryStats.BudgetExhausted for which dimension ran out).
	Plan []PlanStepInfo `json:"plan"`
}

// PlanStepInfo is the explain-facing view of one ranked plan step: the
// scores the planner ordered it by, what it covers, and whether the
// executor got to it before the budget ran out.
type PlanStepInfo struct {
	// Partition is the physical partition the step opens.
	Partition int `json:"partition"`
	// OD is the step's Overlap Distance score (smaller ranks earlier).
	OD int `json:"od"`
	// PathLen is the deepest matched trie-path length (deeper ranks
	// earlier); -1 for whole-partition policies.
	PathLen int `json:"path_len"`
	// Est is the skeleton's record-count estimate for the planned clusters
	// (larger ranks earlier).
	Est int `json:"est"`
	// Clusters is the number of record clusters the step scans; 0 means
	// the whole partition.
	Clusters int `json:"clusters"`
	// Executed reports whether the executor ran this step.
	Executed bool `json:"executed"`
}

// QueryStats reports where a query's effort went — the metrics behind
// Figures 7, 9, 11 and 12. It is the one stats type of every layer: the
// public climber.Stats is an alias, and its untagged field names, in this
// order, are the JSON keys of the "stats" object on the wire.
type QueryStats struct {
	// GroupsConsidered is |GList| after the OD/WD filtering.
	GroupsConsidered int
	// TargetNodeSize is the (estimated) record count of the best-matching
	// trie node (the capacity "m" stressed by Figure 11(a)); TargetPathLen
	// is the matched root-to-node path length. On a sharded query both
	// report the deepest/widest shard (max), since a per-shard trie descent
	// has no meaningful sum.
	TargetNodeSize, TargetPathLen int
	// PartitionsScanned counts distinct partitions loaded.
	PartitionsScanned int
	// RecordsScanned counts raw series compared with ED, including the
	// delta records each step ranks beside its partition's (DeltaScanned).
	RecordsScanned int
	// BytesLoaded approximates I/O as full-partition loads, the unit the
	// paper's query-time model charges for.
	BytesLoaded int64
	// DeltaScanned counts the subset of RecordsScanned served by the
	// in-memory delta index (appended, not yet compacted); always zero
	// without a live ingestion pipeline.
	DeltaScanned int
	// PartitionCacheHits and PartitionCacheMisses keep their place on the
	// wire and stay zero. A partition file is mapped once per process, so
	// whether a query's open found it mapped tells where the process has
	// been, not what the query cost; the store counts opens instead
	// (cluster.Stats).
	PartitionCacheHits, PartitionCacheMisses int
	// StepsPlanned is the number of executable steps the planner emitted
	// (one per distinct partition); StepsExecuted counts how many actually
	// ran. They differ when a budget stopped the plan early; an answer can
	// also be Partial with every step executed (the budget expired during
	// widening, or a progressive sink stopped after the last step), so
	// Partial — not the counters — is the truncation signal.
	StepsPlanned, StepsExecuted int
	// Partial marks an answer whose execution stopped before the full plan
	// — a budget dimension ran out or a progressive consumer stopped the
	// query. The results are still the best answer for the effort spent.
	Partial bool
	// BudgetExhausted names the dimension that stopped a Partial query
	// (BudgetMaxPartitions, BudgetDeadline, BudgetMinRecords,
	// BudgetCallback); empty when the plan ran to completion.
	BudgetExhausted string
}

// SearchResult is the approximate answer set with its statistics. Distances
// are true (non-squared) Euclidean distances, ascending. Explain is non-nil
// only when requested via SearchOptions.Explain.
type SearchResult struct {
	Results []series.Result
	Stats   QueryStats
	Explain *Explanation
}

// Snapshot is one progressive answer emitted to a Query sink: the best
// top-k assembled after a plan step, fresh writes included — each step ranks
// its partition's delta records with its files'. Snapshots are
// monotonically non-worsening — each one's result set is at least as large
// and its k-th distance at least as small as the previous one's, because the
// underlying accumulator only ever improves (the ProS observation:
// progressive kNN answers converge toward the final result as more data is
// touched).
type Snapshot struct {
	// Results are the current approximate nearest neighbours, true
	// (non-squared) Euclidean distances, ascending.
	Results []series.Result
	// Step counts the plan steps executed so far; StepsPlanned is the
	// plan's total, so Step/StepsPlanned is the coverage fraction.
	Step, StepsPlanned int
	// Final marks the last snapshot: its Results are exactly the query's
	// result set.
	Final bool
	// Stats is the effort accumulated so far.
	Stats QueryStats
}

// target is one (group, trie node) candidate selected for scanning.
type target struct {
	group   *Group
	node    *trie.Node
	od      int
	pathLen int
}

// Search is Query without a context or a sink: the run-to-completion
// convenience for callers with nothing to cancel.
func (ix *Index) Search(q []float64, opts SearchOptions) (*SearchResult, error) {
	return ix.Query(context.Background(), q, opts, nil)
}

// Query answers an approximate kNN query (paper Definition 4) using the
// configured variant — the one entry point of the engine: validate,
// transform, then run the planner/executor.
//
// Cancellation is honoured on the partition-scan path: the scan checks ctx
// before opening each partition and every few hundred records, so a
// cancelled query stops loading and comparing records mid-plan and returns
// ctx.Err().
//
// opts.Prefix admits a query *shorter* than the indexed length — the
// flexibility the paper credits the PAA/SAX-family representations with
// ("they allow for queries shorter than the length on which the index is
// built", Section II), which DFT- and DWT-based indexes cannot offer.
// The short query is PAA-segmented into the same w segments as the index
// (so the pivot space lines up), routed through groups and tries as usual,
// and candidates are ranked by the Euclidean distance over the first len(q)
// readings of each record; it must satisfy w <= len(q) <= n. Prefix answers
// see uncompacted writes too: delta records store the full indexed length,
// so the prefix distance applies unchanged.
//
// A non-nil sink makes the query progressive: it receives a Snapshot after
// every executed plan step (and a final one when the answer is complete),
// and returning false stops the query early — the returned result is the
// best answer so far, marked partial with BudgetCallback. Combined with
// SearchOptions.Budget this is the anytime serving mode: first answers
// arrive after one partition, refine step by step, and stop exactly when
// the consumer or the budget says so. Every query runs its plan steps one at
// a time in rank order, so each snapshot adds the most promising partition
// not yet scanned, and a sink changes neither the answer nor the effort.
// sink is called synchronously on the query's goroutine and must not block
// for long.
func (ix *Index) Query(ctx context.Context, q []float64, opts SearchOptions, sink func(Snapshot) bool) (*SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	// Pin the view for the whole query: skeleton navigation, partition scans
	// and delta scans all read one consistent snapshot even if a drain or an
	// online reindex publishes the next view mid-query.
	g := ix.AcquireGeneration()
	defer g.Release()
	skel := g.Skel
	n, tr := len(q), skel.Transformer
	switch {
	case n == skel.SeriesLen:
	case !opts.Prefix:
		return nil, fmt.Errorf("core: query length %d, index expects %d", n, skel.SeriesLen)
	case n > skel.SeriesLen:
		return nil, fmt.Errorf("core: prefix query length %d exceeds indexed length %d", n, skel.SeriesLen)
	case n < skel.Cfg.Segments:
		return nil, fmt.Errorf("core: prefix query length %d is below the segment count %d", n, skel.Cfg.Segments)
	default:
		// Segment the short query into the same w segments the pivots live in.
		var err error
		if tr, err = paa.NewTransformer(n, skel.Cfg.Segments); err != nil {
			return nil, err
		}
	}
	if err := series.CheckFloat32(q); err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	// Lines 2-4 of Algorithm 3: transform the query exactly as records were
	// transformed during Step 4.
	paaQ := tr.Transform(q)

	// The "plan" span covers the pure in-memory half of the query: dual
	// signature, group selection, trie descent, and plan ranking.
	planSpan := obs.SpanFromContext(ctx).StartChild("plan")
	rs, ri := skel.Pivots.Dual(paaQ)

	// Lines 5-9: best group(s) by OD, ties broken by WD.
	cands, bestOD := skel.Assigner.Candidates(rs, ri)

	// Lines 10-19: per-group trie descent and tie-breaking, then the
	// variant's plan policy.
	base := skel.selectTarget(cands, rs, bestOD)
	plan := skel.plan(base, rs, ri, bestOD, opts)
	planSpan.SetAttr("groups", int64(len(cands)))
	planSpan.SetAttr("best_od", int64(bestOD))
	planSpan.SetAttr("steps", int64(len(plan)))
	planSpan.End()

	stats := QueryStats{
		GroupsConsidered: len(cands),
		TargetNodeSize:   base.node.Count,
		TargetPathLen:    base.pathLen,
		StepsPlanned:     len(plan),
	}
	ex := newExecutor(ix, g, plan, q, opts, &stats)
	if err := ex.run(ctx, sink); err != nil {
		return nil, err
	}

	out := &SearchResult{Results: ex.results, Stats: stats}
	if opts.Explain {
		pids := make([]int, 0, len(plan))
		stepInfos := make([]PlanStepInfo, 0, len(plan))
		for _, st := range plan {
			pids = append(pids, st.Partition)
			_, executed := ex.executed[st.Partition]
			stepInfos = append(stepInfos, PlanStepInfo{
				Partition: st.Partition,
				OD:        st.OD,
				PathLen:   st.PathLen,
				Est:       st.Est,
				Clusters:  len(st.Clusters),
				Executed:  executed,
			})
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
			Variant:         opts.Variant.String(),
			Plan:            stepInfos,
		}
	}
	return out, nil
}

// selectTarget applies the tie-breaking of Algorithm 3 Lines 10-19 over the
// candidate groups: the target that outranks every other.
// The paper picks at random among equally well-matching groups; the lowest
// group ID stands in for the draw so that RouteRecord, which stores a record
// where this choice lands, and the query agree.
func (s *Skeleton) selectTarget(cands []int, rs pivot.Signature, bestOD int) target {
	var best target
	for _, gid := range cands {
		g := s.Groups[gid]
		node, pathLen := g.Trie.Descend(rs)
		cand := target{group: g, node: node, od: bestOD, pathLen: pathLen}
		if best.group == nil || cand.outranks(best) {
			best = cand
		}
	}
	return best
}

// outranks is the one order over targets, shared by selectTarget and the
// adaptive plan's candidate list: deepest matched path first, then largest
// node, then lowest group ID.
func (t target) outranks(o target) bool {
	if t.pathLen != o.pathLen {
		return t.pathLen > o.pathLen
	}
	if t.node.Count != o.node.Count {
		return t.node.Count > o.node.Count
	}
	return t.group.ID < o.group.ID
}
