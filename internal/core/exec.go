package core

import (
	"context"
	"encoding/binary"
	"math"
	"sort"
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
	// many partition records have been compared (RecordsScanned minus
	// DeltaScanned: the delta records a step ranks beside its partition's
	// do not count). More candidates compared means higher expected recall,
	// so a caller can trade accuracy for latency without reasoning about
	// partitions or time.
	MinRecords int
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

// executor runs one ranked plan through its stages — planned steps and the
// within-partition widening pass, each step ranking its partition's files
// and delta runs — accumulating the top-k and the query statistics. It is
// the pull-based half of the engine: the planner decides *what* could be
// scanned; the executor decides, step by step and under the budget, *how
// much* of it actually is.
type executor struct {
	ix *Index
	// gen is the view the caller pinned for the query; partition opens and
	// delta scans go through it so a concurrent drain or reindex swap cannot
	// change what this query observes mid-plan. delta is its delta (nil
	// without one), and deltaScan the scan its runs are ranked with, once a
	// step has delta records to rank (rankDelta).
	gen       *Generation
	delta     DeltaSource
	deltaScan *stepScan
	plan      []PlanStep
	opts      SearchOptions
	// rank is the partition scan's kernel: a record's squared distance to
	// q, read straight from its encoded bytes and early abandoning against
	// bound (the current top-k admission threshold). It only reads rec and
	// never retains it, which is what lets the scan hand it zero-copy
	// subslices of a mapped file.
	rank func(rec []byte, bound float64) float64
	// q32 is the query rounded to the storage precision, and bounds its
	// summary lower bounds, one per summary width the scanned runs store
	// (version-4 files and the delta share one, version-3 files have their
	// own), each built when a run of its width is first filtered: a record
	// whose bound exceeds the top-k threshold is skipped without a distance
	// (stepScan.run). A nil bound is a width at which the query covers no
	// whole summary segment.
	q32    []float32
	bounds []widthBound
	top    *series.TopK
	stats  *QueryStats

	// executed records what was actually scanned, partition → clusters
	// (nil = every cluster): the coverage the widening stage must respect so
	// no record is ever compared twice.
	executed map[int]map[storage.ClusterID]struct{}
	// sinkStopped is set the moment a progressive sink returns false; no
	// further sink invocation may happen after it (the consumer may have
	// torn down its receiving state).
	sinkStopped bool
	// results is the final answer (true distances, ascending), populated
	// when the stages are done.
	results []series.Result
	// span is the query's active span (nil when untraced); the stage
	// spans — scan, widen — open as its children.
	span *obs.Span
	// boundsBuf backs bounds: a view holds at most two summary widths.
	boundsBuf [2]widthBound
}

// widthBound is the query's summary lower bound for summaries w bytes wide.
type widthBound struct {
	w  int
	lb *storage.LowerBound
}

// lowerBound returns the query's summary lower bound for summaries w bytes
// wide, building it the first time a run of that width is filtered.
func (e *executor) lowerBound(w int) *storage.LowerBound {
	for _, b := range e.bounds {
		if b.w == w {
			return b.lb
		}
	}
	lb := storage.NewLowerBound(e.q32, e.gen.Parts.SeriesLen, w)
	e.bounds = append(e.bounds, widthBound{w, lb})
	return lb
}

// newExecutor prepares the execution of plan for query q. The scan loop
// runs on the blocked early-abandon kernel: multi-lane accumulation with
// the top-k limit checked once per block, the vectorisation-friendly shape
// of the MESSI/ParIS scan kernels. Every record — in a partition file or in
// the delta, which holds the same layout — is ranked in its encoded float32
// form by the raw kernel; the query is rounded to the storage precision
// once, here. Records carry the full indexed length; the kernel reads their
// first len(q) readings (4 bytes each), which is all of them unless this is
// a prefix query. The summary lower bounds are built from the same
// float32-rounded query, because that is what the kernel subtracts.
func newExecutor(ix *Index, g *Generation, plan []PlanStep, q []float64, opts SearchOptions, stats *QueryStats) *executor {
	q32, n := series.ToFloat32(q), 4*len(q)
	e := &executor{
		ix: ix, gen: g, delta: g.Delta(), plan: plan, opts: opts,
		rank: func(rec []byte, bound float64) float64 {
			return series.SqDistEarlyAbandon32Blocked(q32, rec[:n], bound)
		},
		q32:      q32,
		top:      series.NewTopK(opts.K),
		stats:    stats,
		executed: make(map[int]map[storage.ClusterID]struct{}, len(plan)),
	}
	e.bounds = e.boundsBuf[:0]
	return e
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
	defer func() {
		for _, b := range e.bounds {
			b.lb.Release() // every scan has returned by then
		}
	}()
	e.span = obs.SpanFromContext(ctx)
	if err := e.scanPlanned(ctx, sink); err != nil {
		return err
	}
	if err := e.widen(ctx, sink); err != nil {
		return err
	}
	final := e.snapshot(true)
	e.results = final.Results
	if sink != nil && !e.sinkStopped {
		sink(final)
	}
	return nil
}

// scanPlanned executes the ranked plan steps. A MaxPartitions budget is
// resolved up front: every planned step loads exactly one partition, so
// truncating the ranked plan to the cap is exactly the prefix the step loop
// would execute. The answer is marked partial after the run, so a deadline,
// min-records or callback stop that came first keeps its reason.
func (e *executor) scanPlanned(ctx context.Context, sink func(Snapshot) bool) error {
	sp := e.span.StartChild("scan")
	defer sp.End()
	steps := e.plan
	capped := e.opts.Budget.MaxPartitions > 0 && len(steps) > e.opts.Budget.MaxPartitions
	if capped {
		steps = steps[:e.opts.Budget.MaxPartitions]
	}
	if err := e.runSteps(ctx, steps, e.opts.Budget, false, sink, sp); err != nil {
		return err
	}
	if capped {
		e.markPartial(BudgetMaxPartitions)
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
// work, not I/O) skip it. A fully scanned partition has nothing left, so a
// plan of whole partitions (OD-Smallest) never widens. Whether the scanned
// nodes held K records counts partition records only: delta records, ranked
// beside them, do not stop a query from widening.
func (e *executor) widen(ctx context.Context, sink func(Snapshot) bool) error {
	if e.stats.RecordsScanned-e.stats.DeltaScanned >= e.opts.K || e.sinkStopped {
		return nil
	}
	switch e.stats.BudgetExhausted {
	case BudgetDeadline, BudgetMinRecords, BudgetCallback:
		return nil
	}
	steps := make([]PlanStep, 0, len(e.executed))
	for pid, clusters := range e.executed {
		if clusters != nil {
			steps = append(steps, PlanStep{Partition: pid})
		}
	}
	if len(steps) == 0 {
		return nil
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].Partition < steps[j].Partition })
	sp := e.span.StartChild("widen")
	defer sp.End()
	// A widening pass charges no partition loads, so MaxPartitions never
	// bounds it; the runtime-dependent dimensions (Deadline, MinRecords) keep
	// applying at every partition boundary.
	budget := e.opts.Budget
	budget.MaxPartitions = 0
	return e.runSteps(ctx, steps, budget, true, sink, sp)
}

// runSteps is the one step loop of the executor: it scans steps one at a
// time, in rank order, under budget, on the query's own goroutine, so each
// step ranks against the bound the steps before it reached. A query's
// parallelism comes from the queries running beside it (QueryBatch, the
// server's concurrent requests), not from fanning out its partitions.
//
// The budget is checked before every step but the first planned one: an
// anytime answer always carries the most promising partition's candidates.
// A widening run checks before its first step too, since the planned scan
// already produced an answer. MinRecords counts partition records only
// (Budget). After each step the executed coverage, the planned-step count
// and the sink's snapshot are brought up to date; a widened step records its
// partition as fully scanned.
func (e *executor) runSteps(ctx context.Context, steps []PlanStep, budget Budget, widening bool, sink func(Snapshot) bool, span *obs.Span) error {
	for i, st := range steps {
		if i > 0 || widening {
			if reason, stop := budget.exhausted(e.stats.PartitionsScanned, e.stats.RecordsScanned-e.stats.DeltaScanned); stop {
				e.markPartial(reason)
				return nil
			}
		}
		if err := e.scanStep(ctx, st, widening, span); err != nil {
			return err
		}
		e.executed[st.Partition] = st.Clusters
		if !widening {
			e.stats.StepsExecuted++
		}
		if sink != nil && !sink(e.snapshot(false)) {
			e.sinkStopped = true
			e.markPartial(BudgetCallback)
			return nil
		}
	}
	return nil
}

// snapshot captures the current answer, true distances ascending; the
// final snapshot is exactly the query's result set. Every snapshot holds the
// delta records of the steps run so far, ranked with their partitions.
func (e *executor) snapshot(final bool) Snapshot {
	results := e.top.Results()
	for i := range results {
		results[i].Dist = math.Sqrt(results[i].Dist)
	}
	return Snapshot{
		Results:      results,
		Step:         e.stats.StepsExecuted,
		StepsPlanned: e.stats.StepsPlanned,
		Final:        final,
		Stats:        *e.stats,
	}
}

// cancelCheckStride is how many records a scan compares between context
// checks inside one run of records (stepScan.run), which also checks before
// the first; the stride bounds the extra latency a cancelled query pays
// inside a single large cluster to a few hundred distance computations.
const cancelCheckStride = 256

// scanStep scans one step, folding candidates into the query's top-k with
// early-abandoning distances, each record checked first against its summary
// lower bound (stepScan.run): the step's clusters in the partition's files,
// then the same clusters' runs in the view's delta (rankDelta). A planned
// step scans its listed clusters (nil = every cluster) and charges its
// partition load to the statistics. A widening step scans every cluster its
// planned step did not compare (widening must not compare a record twice),
// delta-only clusters the files do not list included, and charges no load,
// because its partition is already resident. Which record wins a tie at the
// k-th distance does not depend on the scan order: the accumulator orders by
// (distance, ID), and the scan offers it every record not above the bound.
//
// The scan is cancellable: it checks ctx before opening the partition, and
// stepScan.run before every cancelCheckStride records of a cluster, the
// first included; either returns ctx.Err() as soon as it observes
// cancellation. Statistics stay consistent on a cancelled query — every
// record compared and partition loaded before the cancellation is still
// charged.
//
// stage, when traced, receives one "partition" child span for the step,
// carrying the partition ID, the bytes charged and the records pruned by
// summary, those of its "delta" child included — the per-trace attribution
// of effort that aggregate QueryStats cannot give.
func (e *executor) scanStep(ctx context.Context, st PlanStep, widening bool, stage *obs.Span) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ssp := stage.StartChild("partition")
	defer ssp.End()
	ssp.SetAttr("partition", int64(st.Partition))
	p, err := e.ix.Cl.OpenPartition(e.gen.Parts, st.Partition)
	if err != nil {
		return err
	}
	defer p.Close()
	// The step's records ranked and pruned are charged once when the step
	// ends, cancelled or not.
	sc := &stepScan{e: e, top: e.top, recBytes: storage.RecordBytes(p.SeriesLen())}
	defer func() {
		e.stats.RecordsScanned += sc.scanned
		e.ix.Cl.Stats.ScanPrunedRecords.Add(int64(sc.pruned))
		ssp.SetAttr("pruned", int64(sc.pruned))
	}()
	if !widening {
		e.stats.PartitionsScanned++
		bytes := int64(p.Count() * storage.RecordBytes(p.SeriesLen()))
		e.stats.BytesLoaded += bytes
		ssp.SetAttr("bytes", bytes)
	}
	run := func(recs, sums []byte) error { return sc.run(ctx, recs, sums) }
	// A widening step skips the clusters its planned step compared, which
	// executed still records until this step ends.
	f := clusterFilter{planned: st.Clusters}
	if widening {
		f.done = e.executed[st.Partition]
	}
	for _, ci := range p.Clusters() {
		if !f.wants(ci.ID) {
			continue
		}
		if err := p.ScanClusterRuns(ci.ID, run); err != nil {
			return err
		}
	}
	if e.delta == nil || e.delta.Len() == 0 {
		return nil
	}
	scanned, pruned, err := e.rankDelta(ctx, st.Partition, f, ssp)
	sc.scanned += scanned
	sc.pruned += pruned
	return err
}

// clusterFilter picks the clusters one step ranks, in the partition's files
// and in the delta alike: a planned step its own (planned nil = every
// cluster), a widening step every cluster its planned step did not compare
// (done).
type clusterFilter struct {
	planned, done map[storage.ClusterID]struct{}
}

func (f clusterFilter) wants(c storage.ClusterID) bool {
	_, compared := f.done[c]
	_, listed := f.planned[c]
	return !compared && (f.planned == nil || listed)
}

// stepScan is one step's scan: the top-k it ranks into, what it charges
// when it ends — the records it ranked, and the subset it ranked by summary
// alone — and the scratch of its summary pass, allocated once per step
// rather than once per cluster.
type stepScan struct {
	e               *executor
	top             *series.TopK
	scanned, pruned int
	recBytes        int
	lbs             [cancelCheckStride]float64
	kept            [cancelCheckStride]int32
}

// bound is the top-k's admission threshold: +Inf until it holds k records.
func (sc *stepScan) bound() float64 {
	if b, ok := sc.top.Bound(); ok {
		return b
	}
	return math.Inf(1)
}

// summaryFilter turns the summary check of stepScan.run off when false —
// the seam that lets tests compare filtered with unfiltered scans.
var summaryFilter = true

// run ranks one run of records — recs holds them as the partition file
// does, sums their summaries (nil in a version-2 file) — into the top-k,
// cancelCheckStride records at a time, checking ctx before each stretch —
// the one cancellation stride of partition and delta runs alike. The run's
// summary width is its own, len(sums) per record: the file it comes from
// may be of version 4 or of version 3.
//
// While the bound is finite, each stretch starts with a pass over its
// summaries, with the query's lower bound at the run's width, that
// computes every record's lower bound and keeps the records
// whose bound is not above the top-k bound; the table stays in cache for it,
// where a check per record interleaved with the distances would have it
// evicted by the records' bytes. A record whose lower bound is above the
// bound is skipped: its kernel distance is above the bound too
// (storage.LowerBound), so the scan would have discarded it, and skipping it
// changes neither the answer nor the tie outcomes. The bound only tightens,
// so a kept record is checked again right before its distance. A skipped
// record still counts as scanned — it was ranked, by its bound — so
// statistics and budgets do not depend on the filter.
//
// Before each record, the scan prefetches the whole of the next one in the
// stretch — the next kept record when the filter ran — so that record's
// cache misses overlap this one's arithmetic: once the filter skips records,
// the hardware prefetcher sees no stream to follow. A prefetch is a hint
// that reads nothing, so it changes no distance, order or answer.
func (sc *stepScan) run(ctx context.Context, recs, sums []byte) error {
	e, recBytes := sc.e, sc.recBytes
	n := len(recs) / recBytes
	w := 0
	if n > 0 {
		w = len(sums) / n
	}
	for lo := 0; lo < n; lo += cancelCheckStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := min(cancelCheckStride, n-lo)
		sc.scanned += m
		stretch := stretchIndexes[:m]
		var lower *storage.LowerBound
		if w > 0 && summaryFilter && !math.IsInf(sc.bound(), 1) {
			lower = e.lowerBound(w)
		}
		filter := lower != nil
		if filter {
			lbs := sc.lbs[:m]
			lower.Bounds(lbs, sums[lo*w:(lo+m)*w])
			bound, k := sc.bound(), 0
			for j, lb := range lbs {
				// Branch free: whether a record is kept is data, not a
				// pattern a predictor learns.
				sc.kept[k] = int32(j)
				inc := 0
				if lb <= bound {
					inc = 1
				}
				k += inc
			}
			sc.pruned += m - k
			stretch = sc.kept[:k]
		}
		for i, j := range stretch {
			if i+1 < len(stretch) {
				series.Prefetch(recs[(lo+int(stretch[i+1]))*recBytes:][:recBytes])
			}
			bound := sc.bound()
			if filter && sc.lbs[j] > bound {
				sc.pruned++
				continue
			}
			rec := recs[(lo+int(j))*recBytes:][:recBytes]
			// An abandoned distance is above bound, so one equal to it is
			// exact: a tie the accumulator decides by ID.
			if d := e.rank(rec[8:], bound); !(d > bound) {
				sc.top.Push(int(binary.LittleEndian.Uint64(rec)), d)
			}
		}
	}
	return nil
}

// stretchIndexes lists 0..cancelCheckStride-1: the records of a stretch
// stepScan.run ranks without a summary check.
var stretchIndexes = func() (idx [cancelCheckStride]int32) {
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}()
