package core

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"climber/internal/obs"
	"climber/internal/series"
	"climber/internal/storage"
)

// Budget bounds the effort of one query, turning it into an anytime query:
// the executor checks the budget between plan steps and, when a dimension
// is exhausted, stops early and returns the best answer assembled so far,
// marked partial (QueryStats.Partial with the exhausted dimension in
// QueryStats.BudgetExhausted). The zero value imposes no bound. Because
// steps are ranked most-promising first, a budgeted answer is always the
// best the skeleton could buy for the spend.
type Budget struct {
	// MaxPartitions stops the query before it loads its n+1-th partition —
	// the paper's partition-load cost model as a hard per-query cap. Unlike
	// SearchOptions.MaxPartitions (which shrinks the adaptive variants'
	// plan), this bounds execution for every variant; a plan wanting more
	// partitions yields a partial answer.
	MaxPartitions int
	// Deadline stops the query at the first step boundary at or past it.
	// The answer degrades gracefully: scans are never interrupted
	// mid-partition, so the overshoot is bounded by one step.
	Deadline time.Time
	// MinRecords is a recall proxy: the query stops once at least this
	// many candidate records have been compared. More candidates compared
	// means higher expected recall, so a caller can trade accuracy for
	// latency without reasoning about partitions or time.
	MinRecords int
}

// IsZero reports whether no budget dimension is set.
func (b Budget) IsZero() bool {
	return b.MaxPartitions <= 0 && b.Deadline.IsZero() && b.MinRecords <= 0
}

// Budget-exhaustion reasons reported in QueryStats.BudgetExhausted.
const (
	// BudgetMaxPartitions marks a query stopped by Budget.MaxPartitions.
	BudgetMaxPartitions = "max-partitions"
	// BudgetDeadline marks a query stopped by Budget.Deadline.
	BudgetDeadline = "deadline"
	// BudgetMinRecords marks a query stopped by Budget.MinRecords.
	BudgetMinRecords = "min-records"
	// BudgetCallback marks a query stopped by a progressive consumer
	// returning false from its snapshot callback.
	BudgetCallback = "callback"
)

// exhausted reports the first spent budget dimension given the partitions
// loaded and records compared so far.
func (b Budget) exhausted(partitions, records int) (string, bool) {
	switch {
	case b.MaxPartitions > 0 && partitions >= b.MaxPartitions:
		return BudgetMaxPartitions, true
	case !b.Deadline.IsZero() && !time.Now().Before(b.Deadline):
		return BudgetDeadline, true
	case b.MinRecords > 0 && records >= b.MinRecords:
		return BudgetMinRecords, true
	}
	return "", false
}

// distFunc computes a candidate's squared distance to the query, early
// abandoning against bound (the current top-k admission threshold). It is
// the decoded form, used where records exist as []float64 — today that is
// the delta merge, whose records never touch disk.
type distFunc func(values []float64, bound float64) float64

// rawDistFunc is distFunc over a record's encoded value bytes (4 bytes of
// little-endian float32 per reading) — the zero-copy form the partition
// scans use, fed directly from mapped or resident partition memory by
// storage.Partition.ScanClusterRaw.
type rawDistFunc func(rec []byte, bound float64) float64

// executor runs one ScanPlan through its stages — planned steps, the
// within-partition widening pass, and the delta merge — accumulating the
// top-k and the query statistics. It is the pull-based half of the engine:
// the planner decides *what* could be scanned; the executor decides, step
// by step and under the budget, *how much* of it actually is.
type executor struct {
	ix *Index
	// gen is the generation the caller pinned for the query; partition
	// opens and the delta merge go through it so a concurrent reindex swap
	// cannot change what this query observes mid-plan.
	gen  *Generation
	plan *ScanPlan
	opts SearchOptions
	// dist ranks decoded (delta) records; rawDist ranks on-disk records in
	// their encoded form. Both must order candidates identically for the
	// merged answer to be coherent — see search.go for how the pair is built.
	dist    distFunc
	rawDist rawDistFunc
	top     *series.TopK
	stats   *QueryStats

	// executed records what was actually scanned, partition → clusters
	// (nil = every cluster): the coverage the widening and delta stages
	// must respect so no record is ever compared twice and the delta merge
	// prunes exactly like the disk scan did.
	executed planMap
	// sinkStopped is set the moment a progressive sink returns false; no
	// further sink invocation may happen after it (the consumer may have
	// torn down its receiving state).
	sinkStopped bool
	// results is the final merged answer (true distances, ascending),
	// populated by the delta stage.
	results []series.Result
	// span is the query's active span (nil when untraced); the stage
	// spans — scan, widen, delta, merge — open as its children.
	span *obs.Span
}

func newExecutor(ix *Index, g *Generation, plan *ScanPlan, opts SearchOptions, dist distFunc, rawDist rawDistFunc, stats *QueryStats) *executor {
	return &executor{
		ix: ix, gen: g, plan: plan, opts: opts, dist: dist, rawDist: rawDist,
		top:      series.NewTopK(opts.K),
		stats:    stats,
		executed: make(planMap, len(plan.Steps)),
	}
}

// markPartial flags the answer as budget-truncated; the first reason wins.
func (e *executor) markPartial(reason string) {
	if !e.stats.Partial {
		e.stats.Partial = true
		e.stats.BudgetExhausted = reason
	}
}

// run drives the stages. sink, when non-nil, receives a monotonically
// non-worsening snapshot after each executed step (and a final one);
// returning false from it stops the query early with a partial answer.
func (e *executor) run(ctx context.Context, sink func(Snapshot) bool) error {
	e.span = obs.SpanFromContext(ctx)
	if err := e.scanPlanned(ctx, sink); err != nil {
		return err
	}
	if err := e.widen(ctx, sink); err != nil {
		return err
	}
	if err := e.mergeDelta(ctx); err != nil {
		return err
	}
	if sink != nil && !e.sinkStopped {
		sink(e.snapshot(true))
	}
	return nil
}

// scanPlanned executes the ranked plan steps. When no step boundaries are
// needed — no progressive sink, and no budget dimension that depends on
// runtime state (Deadline, MinRecords) — every step runs concurrently:
// the paper's distributed execution, where the selected partitions live
// on different workers. A MaxPartitions-only budget is resolved by
// truncating the ranked plan up front, keeping that parallelism. Only a
// deadline/min-records budget or a progressive sink switches to one step
// at a time in rank order, so the budget can be checked (and a snapshot
// emitted) at every step boundary.
func (e *executor) scanPlanned(ctx context.Context, sink func(Snapshot) bool) error {
	sp := e.span.StartChild("scan")
	defer sp.End()
	steps := e.plan.Steps
	budget := e.opts.Budget
	if sink == nil && budget.Deadline.IsZero() && budget.MinRecords <= 0 {
		// No step boundaries needed. A MaxPartitions-only budget is
		// resolved up front — every step loads exactly one partition, so
		// truncating the ranked plan to the cap is exactly the prefix the
		// stepwise loop would execute — and the truncated plan still scans
		// its partitions concurrently, the run-to-completion path's
		// parallelism.
		if budget.MaxPartitions > 0 && len(steps) > budget.MaxPartitions {
			steps = steps[:budget.MaxPartitions]
			e.markPartial(BudgetMaxPartitions)
		}
		if err := e.scanSteps(ctx, steps, nil, true, sp); err != nil {
			return err
		}
		e.stats.StepsExecuted = len(steps)
		for _, st := range steps {
			e.executed[st.Partition] = st.Clusters
		}
		return nil
	}
	for i := range steps {
		if i > 0 {
			if reason, stop := budget.exhausted(e.stats.PartitionsScanned, e.stats.RecordsScanned); stop {
				e.markPartial(reason)
				return nil
			}
		}
		if err := e.scanSteps(ctx, steps[i:i+1], nil, true, sp); err != nil {
			return err
		}
		e.stats.StepsExecuted++
		e.executed[steps[i].Partition] = steps[i].Clusters
		if sink != nil && !sink(e.snapshot(false)) {
			e.sinkStopped = true
			e.markPartial(BudgetCallback)
			return nil
		}
	}
	return nil
}

// widen runs the within-partition expansion: when the scanned trie nodes
// hold fewer than K records, every remaining cluster of the already-loaded
// partitions is scanned too (Section VII-A: CLIMBER-kNN "expands the search
// within the same partition"; the adaptive variants inherit the same final
// step so their candidate set is always a superset of CLIMBER-kNN's, as in
// Figure 9). The partitions are in memory already, so widening charges no
// additional loads — which is why a MaxPartitions-truncated query still
// widens, while deadline/min-records/callback stops (whose point is to cap
// work, not I/O) skip it.
func (e *executor) widen(ctx context.Context, sink func(Snapshot) bool) error {
	if !e.plan.Widen || e.top.Len() >= e.opts.K || e.sinkStopped {
		return nil
	}
	switch e.stats.BudgetExhausted {
	case BudgetDeadline, BudgetMinRecords, BudgetCallback:
		return nil
	}
	sp := e.span.StartChild("widen")
	defer sp.End()
	pids := make([]int, 0, len(e.executed))
	for pid, clusters := range e.executed {
		if clusters == nil {
			continue // already fully scanned
		}
		pids = append(pids, pid)
	}
	if len(pids) == 0 {
		return nil
	}
	sort.Ints(pids)

	// Widening charges no partition loads, so MaxPartitions never bounds
	// it; the runtime-dependent dimensions (Deadline, MinRecords) keep
	// applying at every partition boundary.
	wbudget := e.opts.Budget
	wbudget.MaxPartitions = 0
	if sink == nil && wbudget.IsZero() {
		wsteps := make([]PlanStep, len(pids))
		for i, pid := range pids {
			wsteps[i] = PlanStep{Partition: pid}
		}
		if err := e.scanSteps(ctx, wsteps, e.executed, false, sp); err != nil {
			return err
		}
		for _, pid := range pids {
			e.executed[pid] = nil
		}
		return nil
	}
	for _, pid := range pids {
		if reason, stop := wbudget.exhausted(0, e.stats.RecordsScanned); stop {
			e.markPartial(reason)
			return nil
		}
		// The widening scan of one partition must skip the clusters its
		// planned step already compared; the done set is consulted before
		// executed[pid] is overwritten below.
		if err := e.scanSteps(ctx, []PlanStep{{Partition: pid}}, e.executed, false, sp); err != nil {
			return err
		}
		e.executed[pid] = nil
		if sink != nil && !sink(e.snapshot(false)) {
			e.sinkStopped = true
			e.markPartial(BudgetCallback)
			return nil
		}
	}
	return nil
}

// mergeDelta folds acked-but-uncompacted writes into the final answer and
// finalises results (true distances, ascending). It runs even on partial
// answers: delta records are resident by definition, so merging them costs
// no I/O and only improves the snapshot.
func (e *executor) mergeDelta(ctx context.Context) error {
	dsp := e.span.StartChild("delta")
	deltaTop, err := e.gen.scanDelta(ctx, e.executed, e.opts.K, e.stats, e.dist)
	dsp.SetAttr("records", int64(e.stats.DeltaScanned))
	dsp.End()
	if err != nil {
		return err
	}
	msp := e.span.StartChild("merge")
	defer msp.End()
	results := e.top.Results()
	if deltaTop != nil {
		results = mergeResults(results, deltaTop.Results(), e.opts.K)
	}
	for i := range results {
		results[i].Dist = math.Sqrt(results[i].Dist)
	}
	e.results = results
	msp.SetAttr("results", int64(len(results)))
	return nil
}

// snapshot captures the current answer. Non-final snapshots report the
// disk-scan top-k (delta hits join at the final merge); the final snapshot
// is exactly the query's result set.
func (e *executor) snapshot(final bool) Snapshot {
	var results []series.Result
	if final {
		results = e.results
	} else {
		results = e.top.Results()
		for i := range results {
			results[i].Dist = math.Sqrt(results[i].Dist)
		}
	}
	return Snapshot{
		Results:      results,
		Step:         e.stats.StepsExecuted,
		StepsPlanned: e.stats.StepsPlanned,
		Final:        final,
		Stats:        *e.stats,
	}
}

// cancelCheckStride is how many records a scanning goroutine compares
// between context checks inside one cluster. Cluster boundaries always
// check; the stride bounds the extra latency a cancelled query pays inside
// a single large cluster to a few hundred distance computations.
const cancelCheckStride = 256

// scanSteps scans the given steps, folding candidates into the shared
// top-k with early-abandoning distances. Clusters already covered by the
// done map are skipped (widening must not compare a record twice).
// countLoads charges partition loads to the statistics; the widening pass
// passes false because its partitions are already resident.
//
// Multi-step calls scan their partitions concurrently — the distributed
// execution of the paper, where the selected partitions live on different
// workers. The top-k accumulator is shared under a mutex with a lock-free
// bound cache so early abandoning stays effective across workers.
//
// The traversal is cancellable: each partition-scan goroutine checks ctx
// before opening its partition, between cluster scans, and every
// cancelCheckStride records within a cluster, returning ctx.Err() as soon
// as it observes cancellation. Statistics stay consistent on a cancelled
// query — every record compared and partition loaded before the
// cancellation is still charged.
//
// stage, when traced, receives one "partition" child span per step,
// carrying the partition ID, whether the open hit the shared partition
// cache, and the bytes charged — the per-trace attribution of effort
// that aggregate QueryStats cannot give.
func (e *executor) scanSteps(ctx context.Context, steps []PlanStep, done planMap, countLoads bool, stage *obs.Span) error {
	ix, top, stats, rawDist := e.ix, e.top, e.stats, e.rawDist

	var mu sync.Mutex
	var boundBits atomic.Uint64
	if b, ok := top.Bound(); ok {
		boundBits.Store(math.Float64bits(b))
	} else {
		boundBits.Store(math.Float64bits(math.Inf(1)))
	}
	scanStep := func(st PlanStep) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Records compared by this step, counted without synchronisation —
		// each step runs on one goroutine — and charged once when the step
		// ends, cancelled or not.
		scanned := 0
		defer func() {
			mu.Lock()
			stats.RecordsScanned += scanned
			mu.Unlock()
		}()
		// scan ranks one record in its encoded form, straight out of
		// partition memory: rec is only read inside rawDist and never
		// retained, which is what lets the raw scan hand out zero-copy
		// subslices of a mapped file.
		scan := func(id int, rec []byte) error {
			if scanned++; scanned%cancelCheckStride == 0 {
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
		ssp := stage.StartChild("partition")
		defer ssp.End()
		ssp.SetAttr("partition", int64(st.Partition))
		p, err := ix.Cl.OpenPartition(e.gen.Parts, st.Partition)
		if err != nil {
			return err
		}
		defer p.Close()
		if p.Cached() {
			if p.CacheHit() {
				ssp.SetAttr("cache_hit", 1)
			} else {
				ssp.SetAttr("cache_hit", 0)
			}
		}
		mu.Lock()
		if p.Cached() {
			if p.CacheHit() {
				stats.PartitionCacheHits++
			} else {
				stats.PartitionCacheMisses++
			}
		}
		if countLoads {
			stats.PartitionsScanned++
			bytes := int64(p.Count() * storage.RecordBytes(p.SeriesLen()))
			stats.BytesLoaded += bytes
			ssp.SetAttr("bytes", bytes)
		}
		mu.Unlock()
		var doneSet map[storage.ClusterID]struct{}
		if done != nil {
			doneSet = done[st.Partition]
		}
		if st.Clusters == nil { // whole partition
			for _, ci := range p.Clusters() {
				if doneSet != nil {
					if _, ok := doneSet[ci.ID]; ok {
						continue
					}
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := p.ScanClusterRaw(ci.ID, scan); err != nil {
					return err
				}
			}
			return nil
		}
		ids := make([]storage.ClusterID, 0, len(st.Clusters))
		for c := range st.Clusters {
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
			if err := p.ScanClusterRaw(id, scan); err != nil {
				return err
			}
		}
		return nil
	}

	var err error
	if len(steps) <= 1 {
		for _, st := range steps {
			if e := scanStep(st); e != nil {
				err = e
			}
		}
	} else {
		errs := make([]error, len(steps))
		var wg sync.WaitGroup
		for i, st := range steps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = scanStep(st)
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
	return err
}
