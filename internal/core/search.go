package core

import (
	"context"
	"fmt"
	"sort"

	"climber/internal/obs"
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
}

// Explanation traces how Algorithm 3 navigated the index for one query —
// the operator-facing counterpart of the paper's Example 2 walkthrough.
type Explanation struct {
	// RankSensitive and RankInsensitive are the query's P4 dual signature.
	RankSensitive, RankInsensitive pivot.Signature
	// BestOD is the smallest Overlap Distance to any group centroid; equal
	// to the prefix length when the query fell back to G0.
	BestOD int
	// CandidateGroups are the group IDs surviving the OD/WD filtering.
	CandidateGroups []int
	// SelectedGroup is the group whose trie was chosen.
	SelectedGroup int
	// MatchedPath is the pivot-ID prefix matched inside the group's trie
	// (the root-to-GN path of Example 2).
	MatchedPath pivot.Signature
	// TargetNodeSize is the estimated membership of the matched node.
	TargetNodeSize int
	// Partitions are the physical partitions the plan selected, ascending.
	Partitions []int
	// Variant names the plan policy that produced the plan.
	Variant string
	// Plan is the planner's ranked step list with its scores, in execution
	// order, each marked with whether the executor actually ran it — steps
	// with Executed false were skipped by a budget (see
	// QueryStats.BudgetExhausted for which dimension ran out).
	Plan []PlanStepInfo
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
// Figures 7, 9, 11 and 12.
type QueryStats struct {
	// GroupsConsidered is |GList| after the OD/WD filtering.
	GroupsConsidered int
	// TargetNodeSize is the (estimated) record count of the best-matching
	// trie node (the capacity "m" stressed by Figure 11(a)).
	TargetNodeSize int
	// TargetPathLen is the matched root-to-node path length.
	TargetPathLen int
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
	// PartitionsScanned counts distinct partitions loaded.
	PartitionsScanned int
	// RecordsScanned counts raw series compared with ED, including delta
	// records merged from the in-memory ingestion index.
	RecordsScanned int
	// DeltaScanned counts the subset of RecordsScanned served by the
	// in-memory delta index (appended, not yet compacted); always zero
	// without a live ingestion pipeline.
	DeltaScanned int
	// BytesLoaded approximates I/O as full-partition loads, the unit the
	// paper's query-time model charges for.
	BytesLoaded int64
	// CacheHits and CacheMisses count this query's partition opens served
	// from / missing the shared partition cache, across both the planned
	// scan and the within-partition widening pass. Both stay zero when the
	// cache is disabled.
	CacheHits, CacheMisses int
}

// SearchResult is the approximate answer set with its statistics. Distances
// are true (non-squared) Euclidean distances, ascending. Explain is non-nil
// only when requested via SearchOptions.Explain.
type SearchResult struct {
	Results []series.Result
	Stats   QueryStats
	Explain *Explanation
}

// target is one (group, trie node) candidate selected for scanning.
type target struct {
	group   *Group
	node    *trie.Node
	od      int
	pathLen int
}

// Search answers an approximate kNN query (paper Definition 4) using the
// configured variant.
func (ix *Index) Search(q []float64, opts SearchOptions) (*SearchResult, error) {
	return ix.SearchContext(context.Background(), q, opts)
}

// SearchContext is Search under a context. Cancellation is honoured on the
// partition-scan path: every scanning goroutine checks ctx between cluster
// scans (and periodically within large clusters), so a cancelled query stops
// loading and comparing records mid-plan and returns ctx.Err().
func (ix *Index) SearchContext(ctx context.Context, q []float64, opts SearchOptions) (*SearchResult, error) {
	return ix.search(ctx, q, opts, nil)
}

// search is the full-length entry point: validate, transform, then run the
// planner/executor engine, optionally progressively.
func (ix *Index) search(ctx context.Context, q []float64, opts SearchOptions, sink func(Snapshot) bool) (*SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	// Pin the generation for the whole query: skeleton navigation, partition
	// scans, and the delta merge all read one consistent snapshot even if an
	// online reindex swaps the index mid-query.
	g := ix.AcquireGeneration()
	defer g.Release()
	if len(q) != g.Skel.SeriesLen {
		return nil, fmt.Errorf("core: query length %d, index expects %d", len(q), g.Skel.SeriesLen)
	}
	if err := series.CheckFloat32(q); err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	// Lines 2-4 of Algorithm 3: transform the query exactly as records were
	// transformed during Step 4. The scan loop (exec.go) runs on the blocked
	// early-abandon kernels: multi-lane accumulation with the top-k limit
	// checked once per block, the vectorisation-friendly shape of the
	// MESSI/ParIS scan kernels. Disk records are ranked in their encoded
	// float32 form by the raw kernel — the query is rounded to the storage
	// precision once, here — while delta records (held as float64, never
	// round-tripped through a partition file) keep the float64 kernel.
	paaQ := g.Skel.Transformer.Transform(q)
	q32 := series.ToFloat32(q)
	return ix.runQuery(ctx, g, paaQ, opts, sink,
		func(values []float64, bound float64) float64 {
			return series.SqDistEarlyAbandonBlocked(q, values, bound)
		},
		func(rec []byte, bound float64) float64 {
			return series.SqDistEarlyAbandon32Blocked(q32, rec, bound)
		})
}

// runQuery is the engine shared by full-length and prefix queries: navigate
// the skeleton (planner), execute the ranked plan stage by stage under the
// budget (executor), and assemble the result. The caller passes the
// generation it acquired; every read below goes through it.
func (ix *Index) runQuery(ctx context.Context, g *Generation, paaQ []float64, opts SearchOptions, sink func(Snapshot) bool, dist distFunc, rawDist rawDistFunc) (*SearchResult, error) {
	skel := g.Skel

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
	planSpan.SetAttr("steps", int64(len(plan.Steps)))
	planSpan.End()

	stats := QueryStats{
		GroupsConsidered: len(cands),
		TargetNodeSize:   base.node.Count,
		TargetPathLen:    base.pathLen,
		StepsPlanned:     len(plan.Steps),
	}
	ex := newExecutor(ix, g, plan, opts, dist, rawDist, &stats)
	if err := ex.run(ctx, sink); err != nil {
		return nil, err
	}

	out := &SearchResult{Results: ex.results, Stats: stats}
	if opts.Explain {
		pids := make([]int, 0, len(plan.Steps))
		stepInfos := make([]PlanStepInfo, 0, len(plan.Steps))
		for _, st := range plan.Steps {
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
// candidate groups: deepest matched path first, then largest node, then the
// lowest group ID (a deterministic stand-in for the paper's random pick
// among equally well-matching groups, chosen so repeated runs are
// comparable).
func (s *Skeleton) selectTarget(cands []int, rs pivot.Signature, bestOD int) target {
	best := target{pathLen: -1}
	for _, gid := range cands {
		g := s.Groups[gid]
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
