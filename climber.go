// Package climber is a Go implementation of CLIMBER, the pivot-based
// framework for approximate kNN similarity search over big data series
// (Zhang, Eltabakh, Rundensteiner, Alnuaim — ICDE 2024, extended version
// arXiv:2404.09637).
//
// CLIMBER represents each data series by a dual pivot-permutation-prefix
// signature — a rank-sensitive P4→ vector (the IDs of its m nearest pivots,
// closest first) and a rank-insensitive P4↛ vector (the same IDs sorted) —
// and organises the dataset into a two-level disk-persistent index: coarse
// data-series groups formed in the rank-insensitive space and fine-grained
// Voronoi-aligned partitions carved by rank-sensitive tries. Queries
// navigate the tiny in-memory skeleton to a handful of partitions and rank
// candidates with the true Euclidean distance.
//
// # Quick start
//
//	db, err := climber.Build(dir, data)           // data: [][]float64, equal lengths
//	res, err := db.Search(query, 100)             // top-100 approximate neighbours
//	res, err := db.Search(query, 100, climber.WithVariant(climber.Adaptive4X))
//
// A built database persists under its directory and reopens with
// climber.Open(dir).
//
// # One way to ask
//
// Query is the query entry point; a Request says everything about the
// question and the Response carries results, effort statistics and (on
// request) the planner's explanation:
//
//	req := climber.NewRequest(q, 100, climber.WithVariant(climber.ODSmallest))
//	req.Prefix = true                              // q may be shorter than the indexed length
//	req.Progress = func(u climber.SearchUpdate) bool { return true } // a snapshot per plan step
//	resp, err := db.Query(ctx, req)                // resp.Results, resp.Stats, resp.Explain
//
// QueryBatch answers many queries under one Request's options, and Search
// is Query for callers that want neither a context nor statistics.
//
// # Partition mappings
//
// A partition file is mapped read-only at the first query that touches it
// and stays mapped, shared by every later query, until a compaction replaces
// it, a reindex retires its generation, or the DB closes. There is no budget
// to size: the mapped pages are the kernel's page cache, so the process's
// RSS grows toward the partition bytes queries touch and the kernel reclaims
// those pages under memory pressure. db.CacheStats() reports the opens that
// found a file mapped (Hits), the loads (PartitionsLoaded) and the bytes
// mapped (MappedBytes).
//
// # Anytime queries
//
// Every query runs on a planner/executor engine (internal/core): the
// planner ranks the partitions worth scanning, the executor runs them step
// by step. Budgets bound a query's effort — it stops at a step boundary
// and returns its best partial answer (Stats.Partial):
//
//	resp, err := db.Query(ctx, climber.NewRequest(q, 100, climber.WithTimeBudget(5*time.Millisecond)))
//	resp, err := db.Query(ctx, climber.NewRequest(q, 100, climber.WithMaxPartitions(2)))
//
// Request.Progress streams a monotonically improving snapshot after every
// executed step, so consumers can render early answers or stop when
// satisfied.
//
// # Serving, cancellation, and Close
//
// Query and QueryBatch honour cancellation on the partition-scan path: a
// cancelled context stops the query's partition scan within a few hundred
// records and returns ctx.Err(). Long-lived processes should Close the DB
// when done — Close unmaps the partition files no query still holds and
// makes subsequent calls return ErrClosed.
// cmd/climber-serve exposes an opened DB as a concurrent HTTP JSON service
// (see internal/server) built on exactly these APIs.
//
// # Live ingestion
//
// Every DB carries a streaming write path (internal/ingest): Append and
// AppendContext route new series through the existing index layout, fsync
// them into a write-ahead log under the database directory, and insert them
// into an in-memory delta index that every search ranks with the partitions.
// An acked append is therefore durable (a kill -9 later, Open replays the
// WAL) and immediately searchable. A background compactor drains the delta
// into the partition files once it grows past WithCompactionRecords records
// or its oldest entry ages past WithCompactionAge; Flush forces that drain
// synchronously. Appends may be issued from any number of goroutines — the
// DB serialises writes internally.
package climber

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/ingest"
	"climber/internal/metric"
	"climber/internal/series"
	"climber/internal/storage"
)

// Version identifies this build of the library on the wire: the
// climber_build_info Prometheus gauge exports it, and operators use it
// to correlate deployed binaries with metric changes.
const Version = "0.9.0"

// ErrClosed is returned by every query and mutation method of a DB after
// Close. Use errors.Is to test for it.
var ErrClosed = errors.New("climber: database is closed")

// ErrReadOnly is returned by Append and Flush on a DB opened with
// WithReadOnly. Use errors.Is to test for it.
var ErrReadOnly = errors.New("climber: database opened read-only")

// ErrReindexInProgress is returned by Reindex while another reindex is
// already running, and by Flush and Backup while a reindex holds the
// compaction pipeline paused. Appends and searches are never affected by a
// running reindex. Use errors.Is to test for it.
var ErrReindexInProgress = errors.New("climber: reindex in progress")

// Result is one approximate nearest neighbour: the ID (the position of the
// series in the build input) and its Euclidean distance to the query. It is
// the engine's own result type, carried unconverted from the partition scan
// to the wire.
type Result = series.Result

// Stats describes the effort behind one query; see core.QueryStats for the
// fields. Partial and BudgetExhausted report a budget (WithTimeBudget,
// WithMaxPartitions, WithMinRecords) or a progressive consumer stopping
// the query early.
type Stats = core.QueryStats

// IngestStats reports the cumulative state of the DB's streaming write
// path: the write-ahead log, the in-memory delta index, the background
// compactor and the partition tails it writes. It is the pipeline's own
// counter snapshot; see ingest.Stats for the fields.
type IngestStats = ingest.Stats

// CompactionBuckets are the upper bounds (seconds) of
// IngestStats.CompactDurations.
var CompactionBuckets = ingest.CompactionBuckets

// CacheStats reports the cumulative partition-file counters of every query
// answered by this DB — opens, loads, the mapped bytes — beside the read
// path's other counters (map fallbacks, the partition-buffer pool, summary
// pruning). Each partition file is mapped once and kept mapped (see
// "Partition mappings" above).
type CacheStats struct {
	// Hits counts partition-file opens that found the file mapped; Misses
	// counts opens that loaded it: the first open of each file (a drain's
	// files are new files) and every open of a heap copy.
	Hits, Misses int64
	// Evictions is always 0: nothing is unmapped to make room. The field
	// keeps its place in /stats.
	Evictions int64
	// BytesSaved is the partition-file volume hits avoided loading again.
	BytesSaved int64
	// PartitionsLoaded counts real loads, mappings made and heap copies
	// read (the cost the paper's query-time model charges); it grows with
	// the files touched, not with the opens.
	PartitionsLoaded int64
	// ResidentBytes and MappedBytes both report the file bytes of the
	// partitions held mapped. The kernel can reclaim their pages under
	// pressure, so they measure page-cache footprint rather than heap.
	ResidentBytes, MappedBytes int64
	// MapFallbacks counts partition loads that could not memory-map the
	// file and read it onto the heap instead: 0 where mapping works, every
	// load on a platform without it.
	MapFallbacks int64
	// LoadBuffersReused and LoadBuffersFresh count the partition-sized
	// buffers heap loads and compaction merges took from the recycled pool
	// and the ones they had to allocate; BufferIdleBytes is the capacity
	// the pool holds idle right now. The pool is shared by every DB in the
	// process, and so are these three.
	LoadBuffersReused, LoadBuffersFresh int64
	BufferIdleBytes                     int64
	// ScanPrunedRecords counts the records query scans skipped by their
	// summary lower bound alone: each was counted in RecordsScanned, but
	// its bound already exceeded the top-k bound, so no distance was
	// computed.
	ScanPrunedRecords int64
}

// Explanation is the engine's record of how one query navigated the
// index: the dual signature, group selection, matched trie path, and
// the ranked plan with per-step scores and executed flags.
type Explanation = core.Explanation

// PlanStepInfo is one ranked plan step inside an Explanation.
type PlanStepInfo = core.PlanStepInfo

// Variant selects the query algorithm.
type Variant = core.Variant

// Query algorithm variants (paper Section VI).
const (
	// KNN is the base CLIMBER-kNN algorithm: one best-matching trie node.
	KNN = core.VariantKNN
	// Adaptive2X expands to more trie nodes, capped at 2x the base
	// partition count.
	Adaptive2X = core.VariantAdaptive2X
	// Adaptive4X caps at 4x — the paper's default variation.
	Adaptive4X = core.VariantAdaptive4X
	// ODSmallest scans every group at the smallest overlap distance — an
	// expensive high-recall upper bound.
	ODSmallest = core.VariantODSmallest
)

// Option customises Build and Open.
type Option func(*options)

type options struct {
	cfg      core.Config
	ingest   ingest.Config
	readOnly bool
}

// WithSegments sets the PAA segment count w (default 16).
func WithSegments(w int) Option { return func(o *options) { o.cfg.Segments = w } }

// WithPivots sets the number of Voronoi pivots r (default 200).
func WithPivots(r int) Option { return func(o *options) { o.cfg.NumPivots = r } }

// WithPrefixLen sets the pivot-permutation prefix length m (default 10).
func WithPrefixLen(m int) Option { return func(o *options) { o.cfg.PrefixLen = m } }

// WithCapacity sets the partition capacity in records.
func WithCapacity(c int) Option { return func(o *options) { o.cfg.Capacity = c } }

// WithSampleRate sets the skeleton-construction sampling fraction α.
func WithSampleRate(a float64) Option { return func(o *options) { o.cfg.SampleRate = a } }

// WithSeed fixes the random seed for reproducible builds.
func WithSeed(s uint64) Option { return func(o *options) { o.cfg.Seed = s } }

// WithBlockSize sets the block size in records: the granularity at which a
// build samples its dataset.
func WithBlockSize(b int) Option { return func(o *options) { o.cfg.BlockSize = b } }

// WithMaxCentroids caps the number of data-series groups.
func WithMaxCentroids(n int) Option { return func(o *options) { o.cfg.MaxCentroids = n } }

// WithLinearDecay switches pivot weighting from exponential to linear decay.
func WithLinearDecay() Option {
	return func(o *options) { o.cfg.Decay = metric.LinearDecay; o.cfg.Lambda = 0 }
}

// WithDecayRate sets the decay rate lambda in (0, 1].
func WithDecayRate(l float64) Option { return func(o *options) { o.cfg.Lambda = l } }

// WithBuildWorkers sets the goroutine parallelism of every build phase —
// skeleton construction, the conversion scan, and the shuffle into partition
// files; 0 (the default) uses every available core, 1 forces the sequential
// build. The built index is bit-identical at any worker count — this knob
// trades build wall-clock only, never layout.
func WithBuildWorkers(n int) Option { return func(o *options) { o.cfg.Workers = n } }

// WithPartitionCacheBytes is accepted and ignored. Every partition file a
// query opens is mapped once and stays mapped, shared by every later query,
// until a compaction replaces it, a reindex retires it or the DB closes, so
// there is no cache left to size (see "Partition mappings" above).
//
// Deprecated: partition files are mapped once per process; drop the option.
func WithPartitionCacheBytes(n int64) Option { return func(*options) {} }

// WithMmap is accepted and ignored. Every partition the query engine opens
// is a read-only memory mapping of its immutable file, and a heap copy only
// where the platform cannot map or a mapping fails (CacheStats.MapFallbacks
// counts those), so there is nothing left to switch.
//
// Deprecated: mapping is the only resident form; drop the option.
func WithMmap(on bool) Option { return func(*options) {} }

// WithCompactionRecords sets how many acked-but-uncompacted records the
// in-memory delta index may hold before the background compactor drains it
// into partition files (default 4096). Lower values bound delta memory and
// WAL replay time; higher values batch more records per partition rewrite.
func WithCompactionRecords(n int) Option {
	return func(o *options) { o.ingest.CompactRecords = n }
}

// WithCompactionAge sets how long the oldest uncompacted record may wait
// before a compaction is forced regardless of volume (default 5s), bounding
// WAL replay time under a trickle of writes.
func WithCompactionAge(d time.Duration) Option {
	return func(o *options) { o.ingest.CompactAge = d }
}

// WithReadOnly opens the database without its streaming write path: no WAL
// is opened or replayed, no compactor runs, and Append/Flush return
// ErrReadOnly. This is how tools inspect a directory a live writer owns —
// a second writer would replay and truncate the owner's WAL out from under
// it, so the WAL carries a single-writer file lock and read-only is the
// supported concurrent-access mode. Records still in the owner's WAL (not
// yet compacted) are not visible to a read-only open.
func WithReadOnly() Option {
	return func(o *options) { o.readOnly = true }
}

// Request is one kNN question: the query series and everything that shapes
// how it is answered. Build one with NewRequest to start from the library
// defaults, or write the literal — a literal is taken as written, so its
// zero Variant is KNN, not the Adaptive4X default.
type Request struct {
	// Query is the query series. It must have the indexed length unless
	// Prefix is set.
	Query []float64
	// K is the answer-set size.
	K int
	// Variant selects the query algorithm.
	Variant Variant
	// Prefix admits a Query shorter than the indexed series length — the
	// PAA-family flexibility the paper highlights over DFT/wavelet indexes.
	// Candidates are ranked by Euclidean distance over the first len(Query)
	// readings of each record. Requires Segments <= len(Query) <= series
	// length; a short Query without Prefix is an error.
	Prefix bool
	// MaxPartitions, TimeBudget and MinRecords are the anytime budgets; see
	// WithMaxPartitions, WithTimeBudget and WithMinRecords. Zero is no bound.
	MaxPartitions int
	TimeBudget    time.Duration
	MinRecords    int
	// Explain attaches the planner's navigation record to the Response.
	// Tracing is orthogonal: span timings come from an obs.Trace carried in
	// the context, explanations from this flag; an explain response on the
	// wire carries both.
	Explain bool
	// Progress, when non-nil, makes the query progressive (the ProS serving
	// mode: first answers after one partition, refined step by step): it
	// receives a monotonically improving SearchUpdate after every executed
	// plan step and a final one when the answer is complete. Returning
	// false stops the query early — the Response is the best answer so far,
	// marked partial. Progress runs synchronously on the query's goroutine
	// and must not block for long. Every query scans its partitions one at
	// a time in plan-rank order, so Progress changes neither the answer nor
	// the work done.
	Progress func(SearchUpdate) bool
}

// NewRequest folds opts over the library defaults (Adaptive4X, the paper's
// default variation) into the Request for the k nearest neighbours of q.
func NewRequest(q []float64, k int, opts ...SearchOption) Request {
	r := Request{Query: q, K: k, Variant: Adaptive4X}
	for _, fn := range opts {
		fn(&r)
	}
	return r
}

// Response is the answer to a Request: the approximate nearest neighbours
// ascending by Euclidean distance, the effort behind them, and — when the
// Request set Explain — the planner's navigation record (nil otherwise).
type Response = core.SearchResult

// SearchUpdate is one progressive answer snapshot delivered to
// Request.Progress: the best top-k assembled after a plan step, with Step
// of StepsPlanned executed and the Stats accumulated so far. Snapshots are
// monotonically non-worsening — each one's result set is at least as
// large, and its k-th distance at least as small, as the previous one's —
// and the one marked Final holds exactly the query's returned answer.
type SearchUpdate = core.Snapshot

// SearchOption customises the Request NewRequest (and so Search) builds.
type SearchOption func(*Request)

// WithVariant selects the query algorithm (default Adaptive4X, the paper's
// default variation).
func WithVariant(v Variant) SearchOption {
	return func(r *Request) { r.Variant = v }
}

// WithMaxPartitions bounds a query to at most n partition loads. For the
// adaptive variants it shrinks the plan (the paper's MaxNumPartitions
// parameter); for every variant it is additionally enforced as an
// execution budget, so a plan that still wants more partitions (KNN's base
// node spanning several, OD-Smallest's whole-group scans) stops after n
// loads and returns its best answer marked partial (Stats.Partial).
func WithMaxPartitions(n int) SearchOption {
	return func(r *Request) { r.MaxPartitions = n }
}

// WithTimeBudget turns the query into an anytime query: the engine stops
// at the first plan-step boundary past the budget and returns the best
// answer assembled so far, marked partial (Stats.Partial with
// Stats.BudgetExhausted = "deadline"). Scans are never interrupted
// mid-partition, so the overshoot is bounded by one step; combine with a
// request context deadline for a hard stop. d <= 0 is ignored. Use
// WithMaxPartitions when the goal is an I/O cap rather than a wall-clock
// contract.
func WithTimeBudget(d time.Duration) SearchOption {
	return func(r *Request) {
		if d > 0 {
			r.TimeBudget = d
		}
	}
}

// WithMinRecords is a recall proxy budget: the query stops once at least n
// candidate records have been compared, returning a partial answer when
// the plan held more. More candidates compared means higher expected
// recall, so callers can trade accuracy for latency without reasoning
// about partitions or wall-clock time.
func WithMinRecords(n int) SearchOption {
	return func(r *Request) { r.MinRecords = n }
}

// WithExplain sets Request.Explain: the Response carries the planner's
// navigation record.
func WithExplain() SearchOption {
	return func(r *Request) { r.Explain = true }
}

// DB is a built CLIMBER database. A DB is safe for concurrent use; the
// query and append methods may be called from any number of goroutines —
// writes are serialised internally by the ingestion pipeline. Close
// releases its resources — long-lived processes (servers, tests) should
// defer it.
type DB struct {
	dir    string
	ix     *core.Index
	cl     *cluster.Cluster
	ing    *ingest.Ingester
	closed atomic.Bool

	// reindexing serialises Reindex calls: one rebuild at a time.
	reindexing atomic.Bool
}

func buildOptions(opts []Option) options {
	o := options{cfg: core.DefaultConfig()}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// walPath is the write-ahead log location. Replay filters by record ID
// against the manifest's counts, so a reindex never moves it.
func walPath(dir string) string { return filepath.Join(dir, "wal.clmw") }

// save persists view's manifest to dir/index.clms: the manifest save of
// core.Index.Publish, which commits every drain and every reindex.
func (db *DB) save(view *core.Generation) error {
	return core.SaveSnapshot(view.Skel, view.Parts, core.IndexPathIn(db.dir))
}

// attachIngest starts the streaming write path on a freshly built or opened
// index: WAL replay, a view published with the replayed delta, background
// compactor.
func (db *DB) attachIngest(o options) (*ingest.Ingester, error) {
	return ingest.Open(db.ix, walPath(db.dir), db.save, o.ingest)
}

// Build constructs a CLIMBER database in dir over the given data series.
// All series must have the same length. The input is copied; the returned
// DB is ready to query and persists under dir for later Open calls.
func Build(dir string, data [][]float64, opts ...Option) (*DB, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("climber: empty dataset")
	}
	ds := series.NewDatasetCap(len(data[0]), len(data))
	for i, x := range data {
		if len(x) != ds.Length() {
			return nil, fmt.Errorf("climber: series %d has length %d, want %d", i, len(x), ds.Length())
		}
		ds.Append(x)
	}
	return BuildDataset(dir, ds, opts...)
}

// BuildDataset is Build over an already-materialised internal dataset; it
// is the entry point used by the command-line tools and experiment
// harnesses, which stream datasets without [][]float64 overhead.
func BuildDataset(dir string, ds *series.Dataset, opts ...Option) (_ *DB, err error) {
	o := buildOptions(opts)
	if err := o.cfg.Validate(); err != nil {
		return nil, err
	}
	cl := cluster.New(core.StoreDir(dir), o.cfg.Workers)
	ix, err := core.Build(cl, cluster.Blocks(ds, o.cfg.BlockSize), o.cfg, "climber")
	if err != nil {
		cl.Close()
		return nil, err
	}
	// No partial output survives an error: from here on a failure takes the
	// files this build wrote along.
	written := slices.Clone(ix.Partitions().Paths)
	defer func() {
		if err != nil {
			cl.Close()
			for _, p := range written {
				_ = os.Remove(p) // best effort; err already says what went wrong
			}
		}
	}()
	if err := core.SaveIndex(ix, core.IndexPathIn(dir)); err != nil {
		return nil, err
	}
	written = append(written, core.IndexPathIn(dir))
	// A build defines a brand-new database; a WAL left in dir by a previous
	// one must not replay its (differently-IDed, possibly differently-
	// shaped) entries into the fresh index.
	if err := os.Remove(walPath(dir)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("climber: remove stale WAL: %w", err)
	}
	db := &DB{dir: dir, ix: ix, cl: cl}
	if db.ing, err = db.attachIngest(o); err != nil {
		return nil, err
	}
	return db, nil
}

// Open loads a database previously built in dir. Acked appends that were
// never compacted (the process was killed) are restored from the write-ahead
// log before Open returns: they are searchable immediately and the
// background compactor lands them in partition files shortly after.
//
// A directory whose drain, on a layout written before drains wrote new
// files, was killed after it rewrote a file the manifest names holds records
// the manifest does not count; a read-only open of it is refused until one
// writable open has landed their replay.
func Open(dir string, opts ...Option) (*DB, error) {
	o := buildOptions(opts)
	// A directory reindexed before reindexes wrote into the store names its
	// manifest with a MANIFEST pointer to a gen-NNNN directory.
	root, _, err := core.ActiveGeneration(dir)
	if err != nil {
		return nil, err
	}
	cl := cluster.New(core.StoreDir(dir), o.cfg.Workers)
	ix, err := core.OpenIndex(cl, core.IndexPathIn(root))
	if err == nil && o.readOnly && ix.UncountedRecords() {
		err = fmt.Errorf("climber: %s holds records a killed drain wrote that its manifest does not count; one writable open lands their replay", dir)
	}
	if err == nil && !o.readOnly && root != dir {
		err = ix.UpgradeLayout(dir)
	}
	if err != nil {
		cl.Close()
		return nil, err
	}
	db := &DB{dir: dir, ix: ix, cl: cl}
	if o.readOnly {
		return db, nil
	}
	// Sweep what the view does not name: a half-written file, files of a view
	// whose manifest was never saved (a killed drain or reindex), files of a
	// replaced view whose removal never ran, and what the old layout left.
	// Best-effort — stale files are unreferenced, so a failed sweep costs
	// only disk space.
	_ = core.SweepPartitionFiles(dir, ix.Partitions())
	ing, err := db.attachIngest(o)
	if err != nil {
		cl.Close()
		return nil, err
	}
	db.ing = ing
	return db, nil
}

// engineOptions is the gate every query passes once: the closed check, and
// the Request's options in the engine's terms. The time budget's deadline
// starts counting here, when the query is about to run.
func (db *DB) engineOptions(req Request) (core.SearchOptions, error) {
	if db.closed.Load() {
		return core.SearchOptions{}, ErrClosed
	}
	so := core.SearchOptions{
		K: req.K, Variant: req.Variant, Prefix: req.Prefix, Explain: req.Explain,
		MaxPartitions: req.MaxPartitions,
		Budget:        core.Budget{MaxPartitions: req.MaxPartitions, MinRecords: req.MinRecords},
	}
	if req.TimeBudget > 0 {
		so.Budget.Deadline = time.Now().Add(req.TimeBudget)
	}
	return so, nil
}

// Query answers one Request. Cancelling ctx stops the query's partition
// scan mid-plan (the scan checks the context before each partition and
// every few hundred records) and returns ctx.Err(); a query issued on
// behalf of a network client should pass the request context so a
// disconnect stops the disk and CPU work immediately. After Close the error
// is ErrClosed.
func (db *DB) Query(ctx context.Context, req Request) (Response, error) {
	so, err := db.engineOptions(req)
	if err != nil {
		return Response{}, err
	}
	sr, err := db.ix.Query(ctx, req.Query, so, req.Progress)
	if err != nil {
		return Response{}, err
	}
	return *sr, nil
}

// QueryBatch answers many queries concurrently under the options of one
// Request (its Query and Progress are not used); the responses align
// positionally with the queries. workers <= 0 uses GOMAXPROCS; serving
// layers pass their admission budget instead of letting every batch fan out
// to full machine width. Cancelling ctx aborts the whole batch: queued
// queries never start and in-flight queries stop on their partition-scan
// path; the returned error wraps ctx.Err(). A TimeBudget deadline is fixed
// once for the whole batch, bounding it end to end rather than each query
// separately.
func (db *DB) QueryBatch(ctx context.Context, queries [][]float64, req Request, workers int) ([]Response, error) {
	so, err := db.engineOptions(req)
	if err != nil {
		return nil, err
	}
	return db.ix.QueryBatch(ctx, queries, so, workers)
}

// Search returns the approximate k nearest neighbours of q, ascending by
// Euclidean distance: Query(NewRequest(q, k, opts...)) without a context,
// keeping only the results. The default algorithm is Adaptive4X.
func (db *DB) Search(q []float64, k int, opts ...SearchOption) ([]Result, error) {
	resp, err := db.Query(context.Background(), NewRequest(q, k, opts...))
	return resp.Results, err
}

// SearchWithStatsContext is Query(ctx, NewRequest(q, k, opts...)) returning
// results and stats separately. Pinned by bench/, remove in a [benchmark] PR.
func (db *DB) SearchWithStatsContext(ctx context.Context, q []float64, k int, opts ...SearchOption) ([]Result, Stats, error) {
	resp, err := db.Query(ctx, NewRequest(q, k, opts...))
	return resp.Results, resp.Stats, err
}

// SearchPrefixWithStatsContext is SearchWithStatsContext with
// Request.Prefix set. Pinned by bench/, remove in a [benchmark] PR.
func (db *DB) SearchPrefixWithStatsContext(ctx context.Context, q []float64, k int, opts ...SearchOption) ([]Result, Stats, error) {
	req := NewRequest(q, k, opts...)
	req.Prefix = true
	resp, err := db.Query(ctx, req)
	return resp.Results, resp.Stats, err
}

// SearchBatchWithStatsContextWorkers is QueryBatch(ctx, queries,
// NewRequest(nil, k, opts...), workers) returning results and stats as two
// slices. Pinned by bench/, remove in a [benchmark] PR.
func (db *DB) SearchBatchWithStatsContextWorkers(ctx context.Context, queries [][]float64, k, workers int, opts ...SearchOption) ([][]Result, []Stats, error) {
	batch, err := db.QueryBatch(ctx, queries, NewRequest(nil, k, opts...), workers)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]Result, len(batch))
	stats := make([]Stats, len(batch))
	for i, resp := range batch {
		out[i], stats[i] = resp.Results, resp.Stats
	}
	return out, stats, nil
}

// CacheStats reports the cumulative partition-file and read-path counters
// of this DB, plus the bytes it holds mapped.
func (db *DB) CacheStats() CacheStats {
	s := &db.cl.Stats
	mapped := db.cl.MappedBytes()
	pool := storage.BufferPoolStats()
	return CacheStats{
		Hits:              s.PartitionCacheHits.Load(),
		Misses:            s.PartitionCacheMisses.Load(),
		BytesSaved:        s.PartitionCacheBytesSaved.Load(),
		PartitionsLoaded:  s.PartitionsLoaded.Load(),
		ResidentBytes:     mapped,
		MappedBytes:       mapped,
		MapFallbacks:      s.MapFallbacks.Load(),
		LoadBuffersReused: pool.Reused,
		LoadBuffersFresh:  pool.Fresh,
		BufferIdleBytes:   pool.IdleBytes,
		ScanPrunedRecords: s.ScanPrunedRecords.Load(),
	}
}

// Append inserts new data series into the database. The assigned IDs
// (continuing the build sequence) are returned in input order. When Append
// returns, the series are durable — fsynced into the write-ahead log, so
// they survive a process kill — and immediately visible to every search;
// the background compactor lands them in partition files asynchronously
// (Flush forces it). Append is safe to call from any number of goroutines,
// concurrently with searches; writes are serialised internally.
func (db *DB) Append(data [][]float64) ([]int, error) {
	return db.AppendContext(context.Background(), data)
}

// AppendContext is Append under a context. Cancellation is honoured while
// the call waits its turn behind other writers; once the write-ahead-log
// fsync begins the write is acked regardless (a durability ack cannot be
// retracted).
func (db *DB) AppendContext(ctx context.Context, data [][]float64) ([]int, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if db.ing == nil {
		return nil, ErrReadOnly
	}
	ids, err := db.ing.Append(ctx, data)
	if errors.Is(err, ingest.ErrClosed) {
		return nil, ErrClosed
	}
	return ids, err
}

// Flush synchronously compacts every acked-but-uncompacted write into its
// partition file, persists the manifest, and truncates the write-ahead log.
// Searches are unaffected either way — Flush only moves where records are
// served from.
func (db *DB) Flush() error {
	return db.FlushContext(context.Background())
}

// FlushContext is Flush under a context, honoured while waiting behind
// other writers.
func (db *DB) FlushContext(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.ing == nil {
		return ErrReadOnly
	}
	err := db.ing.Flush(ctx)
	if errors.Is(err, ingest.ErrClosed) {
		return ErrClosed
	}
	if errors.Is(err, ingest.ErrRebuildInProgress) {
		return ErrReindexInProgress
	}
	return err
}

// IngestStats reports the cumulative counters of the streaming write path;
// all zero on a read-only DB.
func (db *DB) IngestStats() IngestStats {
	if db.ing == nil {
		return IngestStats{}
	}
	return db.ing.Stats()
}

// Close releases the database's resources: the ingestion pipeline stops
// (running one final compaction so nothing is left in the WAL), the
// partition files held mapped are dropped, and further queries, appends and
// batch calls return ErrClosed. Close is idempotent and safe to call
// concurrently with running queries — in-flight queries finish normally, on
// the mappings they hold or on files mapped for them alone; they are not
// interrupted (cancel their contexts for that). Files a drain or a reindex
// replaced while such a query held them stay on disk until the next writable
// Open sweeps them: once Close returns, nothing touches the directory, and
// it can be reopened with Open.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	var err error
	if db.ing != nil {
		err = db.ing.Close()
	}
	db.ix.Close()
	if cerr := db.cl.Close(); err == nil {
		err = cerr
	}
	return err
}

// ShardDirs returns the conventional shard directory layout under base:
// base/shard-0 .. base/shard-n-1 — the layout climber-build -shards writes
// and the sharded walkthroughs assume.
func ShardDirs(base string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("shard-%d", i))
	}
	return dirs
}

// Info summarises the database's shape.
type Info struct {
	SeriesLen     int
	NumGroups     int
	NumPartitions int
	SkeletonBytes int
	NumRecords    int
	// Generation counts the successful Reindex calls the database has
	// seen: 0 until the first, then incremented by each one. It is read from
	// the names of the partition files (cluster.Generation), so it survives
	// a reopen, a backup and a restore.
	Generation int
}

// Info reports the database's structural summary. NumRecords counts every
// acked record exactly once: those in partition files plus those still in
// the in-memory delta awaiting compaction (derived from the acked-write
// counters, so a compaction in flight cannot skew it).
func (db *DB) Info() Info {
	records := db.ix.PersistedRecords()
	if db.ing != nil {
		records = db.ing.TotalRecords()
	}
	skel := db.ix.Skeleton()
	parts := db.ix.Partitions()
	return Info{
		SeriesLen:     skel.SeriesLen,
		NumGroups:     skel.NumGroups(),
		NumPartitions: skel.NumPartitions,
		SkeletonBytes: skel.EncodedSize(),
		NumRecords:    records,
		Generation:    cluster.Generation(parts.Paths[0]),
	}
}

// Reindex rebuilds the index online: a fresh sample is drawn from the live
// dataset, a new skeleton (new pivots, new groups, new tries) is built from
// it, every persisted record is re-routed into new partition files, written
// into the store under names no current file has, and the database commits
// to them through the drain's own commit (core.Index.Publish): it saves its
// manifest, naming the new skeleton and files, fsyncs its directory and
// publishes the view. This is the remedy for capacity drift: heavy append
// traffic grows partitions past the capacity the original sample's skeleton
// planned for (the paper's Section V soft-constraint), and a reindex restores
// the built-fresh layout without taking the database offline.
//
// Zero downtime, concretely:
//
//   - Searches run throughout. A query pins the view current at its start
//     and reads it to completion; the moment the new view is published, new
//     queries see it. The replaced view's files are deleted only after its
//     last in-flight reader finishes.
//   - Appends run throughout. Writes acked during the rebuild accumulate in
//     the WAL and the old view's delta; at commit, they are re-routed
//     through the new skeleton into the delta the new view is built with —
//     every acked-before-commit record is visible after, and remains
//     durable, and a query pinned to the old view still finds it there.
//   - Compactions pause during the rebuild (Flush returns
//     ErrReindexInProgress) and resume against the new view after.
//
// Crash safety: the rename of the saved manifest over dir/index.clms is the
// single commit point, as for a drain. A kill at any step before it reopens
// the old view (the next writable Open sweeps the new files); a kill after it
// reopens the new one; WAL replay re-routes surviving entries against
// whichever skeleton the manifest names. The kill-anywhere crash matrix in
// the tests enumerates every fsync/rename step of the protocol and verifies
// exactly this.
//
// Reindex runs synchronously (minutes on a large database — callers wanting
// a background rebuild should run it on their own goroutine) and returns
// ErrReindexInProgress if another reindex is already running, ErrReadOnly on
// a read-only DB, and ctx's error if cancelled mid-rebuild (the database is
// left on the old view, unharmed, and the files the rebuild wrote are
// removed).
func (db *DB) Reindex(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.ing == nil {
		return ErrReadOnly
	}
	if !db.reindexing.CompareAndSwap(false, true) {
		return ErrReindexInProgress
	}
	defer db.reindexing.Store(false)

	// Quiesce the write-side baseline: one final compaction drains the delta
	// and WAL, so the partition files hold exactly the records the rebuild
	// will re-route, then compactions pause. Appends stay live.
	if err := db.ing.BeginRebuild(ctx); err != nil {
		switch {
		case errors.Is(err, ingest.ErrClosed):
			return ErrClosed
		case errors.Is(err, ingest.ErrRebuildInProgress):
			return ErrReindexInProgress
		}
		return err
	}

	newGen, err := db.ix.RebuildGeneration(ctx, "climber")
	if err != nil {
		db.ing.AbortRebuild()
		return err
	}

	// Commit: under the write semaphore, re-route the records appended
	// during the rebuild into the new view's delta and commit the view
	// (core.Index.Publish: manifest save, directory fsync, swap); the old
	// view's files go once their readers are gone. A failure before the
	// manifest's rename, a cancel that came after the rebuild's last scan
	// included, resumes the old view untouched and removes the new files: the
	// next reindex writes the same names. After the rename the files stay,
	// since the manifest on disk may name them.
	if err := db.ing.CommitRebuild(ctx, newGen); err != nil {
		if errors.Is(err, ingest.ErrClosed) {
			return ErrClosed
		}
		return err
	}
	return nil
}

// Backup writes a self-contained snapshot of the database into destDir,
// which must not yet exist (or be an empty directory). The immutable-
// generation layout makes this nearly free: after a synchronous flush (so
// the partition files hold every acked record and the WAL is empty), the
// current generation's partition files are hard-linked into destDir —
// falling back to copies across filesystems — and the skeleton+manifest is
// re-encoded against the backup's own layout. The result is a directory
// climber.Open accepts directly; climber-build -restore copies it back into
// a fresh live directory.
//
// Backup runs under the write barrier: appends wait out the copy (partition
// files must not be rewritten mid-link), searches are unaffected. During a
// reindex, Backup returns ErrReindexInProgress. On a read-only DB the
// barrier is skipped — nothing mutates — so partition tails, which only a
// writer folds, are linked beside their bases, and the WAL, if one was left
// by a writer, is not part of the snapshot.
func (db *DB) Backup(ctx context.Context, destDir string) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.ing == nil {
		return db.backupTo(destDir)
	}
	err := db.ing.Barrier(ctx, func() error { return db.backupTo(destDir) })
	switch {
	case errors.Is(err, ingest.ErrClosed):
		return ErrClosed
	case errors.Is(err, ingest.ErrRebuildInProgress):
		return ErrReindexInProgress
	}
	return err
}

// backupTo assembles the snapshot. Caller holds the write barrier (or the
// DB is read-only), so the generation, its partition files, and its counts
// are all stable.
func (db *DB) backupTo(destDir string) error {
	if ents, err := os.ReadDir(destDir); err == nil && len(ents) > 0 {
		return fmt.Errorf("climber: backup destination %s is not empty", destDir)
	} else if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("climber: backup destination: %w", err)
	}
	if err := os.MkdirAll(destDir, 0o755); err != nil {
		return fmt.Errorf("climber: backup destination: %w", err)
	}
	g := db.ix.AcquireGeneration()
	defer g.Release()

	// The backup is laid out like a freshly built database — index.clms
	// beside one flat partition directory — whatever generation it came from.
	partDir := core.StoreDir(destDir)
	if err := os.Mkdir(partDir, 0o755); err != nil {
		return fmt.Errorf("climber: backup mkdir: %w", err)
	}
	// The barrier folds every tail first; a read-only DB skips it, and its
	// tails go along beside their bases, under the names the view gives them.
	parts := g.Parts.Clone()
	link := func(src string) (string, error) {
		dst := filepath.Join(partDir, filepath.Base(src))
		return dst, linkOrCopy(src, dst)
	}
	for pid, src := range g.Parts.Paths {
		var err error
		if parts.Paths[pid], err = link(src); err != nil {
			return fmt.Errorf("climber: backup partition %d: %w", pid, err)
		}
		if tail, _ := g.Parts.Tail(pid); tail != "" {
			if parts.TailPaths[pid], err = link(tail); err != nil {
				return fmt.Errorf("climber: backup tail of partition %d: %w", pid, err)
			}
		}
	}
	// SaveSnapshot relativises the partition paths against destDir, so the
	// backup opens wherever it is later moved or restored to.
	if err := core.SaveSnapshot(g.Skel, parts, core.IndexPathIn(destDir)); err != nil {
		return err
	}
	if err := storage.SyncPath(partDir); err != nil {
		return err
	}
	return storage.SyncPath(destDir)
}

// linkOrCopy hard-links src to dst, degrading to a full copy when the link
// fails (cross-device backups). Partition files never change under their
// name, so a hard link shares the bytes safely: a later compaction writes new
// files, the retired name is unlinked, and the backup keeps the inode.
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Dir returns the database's directory.
func (db *DB) Dir() string { return db.dir }

// Index exposes the underlying core index for advanced use (experiment
// harnesses, inspection tools).
func (db *DB) Index() *core.Index { return db.ix }
