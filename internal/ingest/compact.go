package ingest

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"climber/internal/core"
	"climber/internal/series"
)

// ErrClosed is returned by Append and Flush after Close.
var ErrClosed = errors.New("ingest: ingester is closed")

// ErrRebuildInProgress is returned by Flush, Barrier, and BeginRebuild while
// an online reindex holds the pipeline's compactions paused. Appends keep
// flowing — they accumulate in the WAL and the live delta until the rebuild
// commits or aborts.
var ErrRebuildInProgress = errors.New("ingest: rebuild in progress")

// Config tunes the ingestion pipeline. The zero value is usable: every
// field falls back to the documented default.
type Config struct {
	// CompactRecords triggers a background compaction once the delta holds
	// at least this many records. Default: 4096.
	CompactRecords int
	// CompactAge triggers a compaction once the oldest uncompacted record
	// has waited this long, bounding how much WAL a restart replays even
	// under a trickle of writes. Default: 5s.
	CompactAge time.Duration
}

func (c Config) withDefaults() Config {
	if c.CompactRecords <= 0 {
		c.CompactRecords = 4096
	}
	if c.CompactAge <= 0 {
		c.CompactAge = 5 * time.Second
	}
	return c
}

// Stats is a snapshot of the pipeline's counters: the write-ahead log, the
// delta index, the compactor and the partition tails. It is the public
// climber.IngestStats too (an alias), so its field names, in this order, are
// the keys of the "ingest" object of a server's /stats.
type Stats struct {
	// AppendCalls and AppendedSeries count acked Append invocations and the
	// series they carried (cumulative, including compacted ones).
	AppendCalls    int64
	AppendedSeries int64
	// ReplayedSeries counts WAL entries restored into the delta at open
	// (non-zero only after recovering from a kill).
	ReplayedSeries int64
	// WALBytes is the log's current size.
	WALBytes int64
	// Compactions and CompactedSeries count completed compactions and the
	// records they landed in partition files.
	Compactions     int64
	CompactedSeries int64
	// DeltaRecords and DeltaBytes describe the resident delta index: acked
	// writes awaiting compaction, and the record and summary bytes they hold.
	DeltaRecords int
	DeltaBytes   int64
	// CompactErrors counts failed compaction attempts (each is retried on
	// the next trigger).
	CompactErrors int64
	// CompactBytesWritten is the partition-file volume completed
	// compactions rewrote. CompactSeconds is their total duration and
	// CompactDurations its histogram: completed compactions per
	// CompactionBuckets bound, not cumulated, the last entry counting those
	// beyond the largest bound.
	CompactBytesWritten int64
	CompactSeconds      float64
	CompactDurations    [len(CompactionBuckets) + 1]int64
	// TailFiles, TailRecords and TailBytes describe the tails on disk now:
	// the small files drains rewrite between folds into the partition bases.
	// A partition's tail folds into its base once it holds an eighth of the
	// base's records.
	TailFiles   int
	TailRecords int
	TailBytes   int64
	// Folds counts partition bases rewritten to take in their tail.
	// TailBytesWritten and FoldBytesWritten split the partition-file volume
	// written, failed and admin folds included, into tail rewrites and folds.
	Folds            int64
	TailBytesWritten int64
	FoldBytesWritten int64
}

// CompactionBuckets are the upper bounds (seconds) of the
// compaction-duration histogram: from one small partition rewritten to a
// drain that touches every partition of a large index.
var CompactionBuckets = [...]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Ingester is the streaming write path of one index: WAL + delta + background
// compactor. Create it with Open; it serialises every mutation internally,
// so any number of goroutines may Append concurrently — with each other and
// with searches. Its live delta is the current view's (see delta): every view
// the index publishes after Open, it publishes, each with the *MemDelta that
// is live from then on.
type Ingester struct {
	ix   *core.Index
	wal  *WAL
	save func(view *core.Generation) error // persists a view's manifest
	cfg  Config
	// baseRecords is the partition-file record count at Open, before WAL
	// replay. TotalRecords builds on it instead of re-summing live counts,
	// so compactions in flight (or half-failed) can never skew the total.
	baseRecords int64

	// sem is a one-slot semaphore serialising appends, compactions, the
	// views they and CommitRebuild publish, and close; lock selects it
	// against ctx.Done() so a caller whose request was cancelled stops
	// waiting behind a long compaction instead of pinning its admission
	// slot. Searches never take it — they read the delta under its own
	// RWMutex. closed is guarded by sem.
	sem    chan struct{}
	closed bool
	// paused suspends compactions while an online reindex is building its
	// new generation: draining the delta mid-rebuild would advance the
	// manifest baseline past records the new generation's files do not hold.
	// Guarded by sem, like closed.
	paused bool

	kick     chan struct{} // nudges the compactor when the size threshold trips
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	appendCalls     atomic.Int64
	appendedSeries  atomic.Int64
	replayedSeries  atomic.Int64
	walBytes        atomic.Int64
	compactions     atomic.Int64
	compactedSeries atomic.Int64
	compactErrors   atomic.Int64
	compactBytes    atomic.Int64
	compactNanos    atomic.Int64
	compactDur      [len(CompactionBuckets) + 1]atomic.Int64
	folds           atomic.Int64
	tailBytes       atomic.Int64
	foldBytes       atomic.Int64

	// lastLogged is when the compactor last logged each error text it has
	// seen; only run touches it.
	lastLogged map[string]time.Time
}

// Open attaches a streaming ingestion pipeline to ix: it opens (creating if
// absent) the WAL at walPath, replays acked-but-uncompacted entries into a
// fresh delta index, publishes the current view again with that delta, and
// starts the background compactor. From then on only the pipeline publishes
// views. save is called with the view each compaction, fold or reindex
// builds, before the view is published and the WAL truncated (see
// core.Index.Publish) — it must persist the view's manifest, so the partition
// files and counts it names (and with them the ID counter seeded at the next
// open) survive.
//
// Replay is idempotent across the crash window: entries whose ID precedes
// the persisted record count were already compacted before the crash (IDs
// are dense and sequential) and are skipped, so a kill between manifest
// save and WAL truncation cannot duplicate records. Over a manifest of the
// legacy layout (core.Index.LegacyTails) a killed drain may also have put
// replayed records in partition files; there Open lands the replay before it
// returns, with a fold of every partition it touches, which replaces what is
// already there, and saves the view's manifest in the current format.
func Open(ix *core.Index, walPath string, save func(view *core.Generation) error, cfg Config) (*Ingester, error) {
	cfg = cfg.withDefaults()
	wal, entries, err := OpenWAL(walPath, ix.Skeleton().SeriesLen)
	if err != nil {
		return nil, err
	}

	delta := NewMemDelta()
	baseline := ix.PersistedRecords()
	maxID := -1
	routed := make([]core.Routed, 0, len(entries))
	for _, e := range entries {
		if e.ID > maxID {
			maxID = e.ID
		}
		if e.ID < baseline {
			continue // already compacted before the crash
		}
		routed = append(routed, core.Routed{ID: e.ID, Route: ix.RouteNew(e.ID, e.Values), Values: e.Values})
	}
	if maxID >= 0 {
		ix.EnsureNextID(maxID + 1)
	}
	var st core.DrainStats
	if ix.LegacyTails() && len(routed) > 0 {
		if st, err = ix.Drain(routed, true, delta, save); err == nil {
			err = wal.Reset()
		}
	} else if err = delta.Add(routed); err == nil {
		ix.SwapGeneration(core.NewGeneration(ix.Skeleton(), ix.Partitions(), delta))
	}
	if err != nil {
		return nil, errors.Join(err, wal.Close())
	}

	g := &Ingester{
		ix:          ix,
		wal:         wal,
		save:        save,
		cfg:         cfg,
		baseRecords: int64(baseline),
		sem:         make(chan struct{}, 1),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	g.written(st)
	g.replayedSeries.Store(int64(len(routed)))
	g.walBytes.Store(wal.Size())
	go g.run()
	return g, nil
}

// Append routes, logs, and indexes the given series, returning their
// assigned IDs in input order. When Append returns nil, every series is
// durable (fsynced in the WAL) and immediately visible to searches (resident
// in the delta index). ctx is honoured while waiting for the write lock and
// before starting the write; the log append itself is not interruptible —
// once the fsync begins, the ack follows.
func (g *Ingester) Append(ctx context.Context, data [][]float64) ([]int, error) {
	if len(data) == 0 {
		return nil, nil
	}
	seriesLen := g.ix.Skeleton().SeriesLen
	for i, r := range data {
		if len(r) != seriesLen {
			return nil, fmt.Errorf("ingest: series %d has length %d, index stores %d", i, len(r), seriesLen)
		}
		if err := series.CheckFloat32(r); err != nil {
			return nil, fmt.Errorf("ingest: series %d: %w", i, err)
		}
	}
	if err := g.lock(ctx); err != nil {
		return nil, err
	}
	defer g.unlock()
	if g.closed {
		return nil, ErrClosed
	}

	first := g.ix.ReserveIDs(len(data))
	ids := make([]int, len(data))
	entries := make([]Entry, len(data))
	routed := make([]core.Routed, len(data))
	for i, r := range data {
		id := first + i
		ids[i] = id
		// Round through float32 up front: partition files store float32, so
		// the delta, the WAL, and the compacted record all carry identical
		// values — a search hit has the same distance wherever it is served
		// from, and replayed routes match the originals.
		vals := roundF32(r)
		entries[i] = Entry{ID: id, Values: vals}
		routed[i] = core.Routed{ID: id, Route: g.ix.RouteNew(id, vals), Values: vals}
	}
	if err := g.wal.Append(entries); err != nil {
		// Nothing durable, nothing indexed: hand the ID reservation back so
		// the sequence stays dense (initNextID re-derives the counter from
		// the record count at the next open; a burned gap below that count
		// would make it reissue IDs of durable records).
		g.ix.UnreserveIDs(first, len(data))
		return nil, err
	}
	delta := g.delta()
	if err := delta.Add(routed); err != nil {
		return nil, err // cannot happen: every series passed the checks above
	}
	g.walBytes.Store(g.wal.Size())
	g.appendCalls.Add(1)
	g.appendedSeries.Add(int64(len(data)))
	if delta.Len() >= g.cfg.CompactRecords {
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
	return ids, nil
}

// Flush synchronously compacts the delta into partition files, persists the
// manifest, and truncates the WAL. It returns once every previously acked
// write is in its partition file (or with the error that stopped the
// compaction, leaving WAL and delta intact for a retry).
func (g *Ingester) Flush(ctx context.Context) error { return g.exclusive(ctx, g.compactLocked) }

// Barrier synchronously compacts the delta, folds every tail into its base,
// and then runs fn while the write semaphore is still held: no append,
// compaction, or generation swap can interleave with fn. Backup uses it to
// copy partition files at a moment when the base files hold every acked
// record and nothing is rewriting them.
func (g *Ingester) Barrier(ctx context.Context, fn func() error) error {
	return g.exclusive(ctx, func() error {
		if err := g.compactLocked(); err != nil {
			return err
		}
		// The WAL is empty now: a kill in the fold loses nothing, and the
		// next open sees the view of the last manifest saved.
		st, err := g.ix.Drain(nil, true, g.delta(), g.save)
		g.written(st)
		if err != nil {
			return fmt.Errorf("ingest: fold tails: %w", err)
		}
		return fn()
	})
}

// exclusive runs fn under the write semaphore unless the pipeline is closed
// or paused for a rebuild.
func (g *Ingester) exclusive(ctx context.Context, fn func() error) error {
	if err := g.lock(ctx); err != nil {
		return err
	}
	defer g.unlock()
	if g.closed {
		return ErrClosed
	}
	if g.paused {
		return ErrRebuildInProgress
	}
	return fn()
}

// BeginRebuild starts the write-side protocol of an online reindex: it runs
// one final compaction and folds every tail — so the base partition files
// hold every record acked so far and the rebuild can source solely from
// them — and then pauses further compactions. Appends stay live; until
// CommitRebuild or AbortRebuild they accumulate in the WAL and the current
// generation's delta.
func (g *Ingester) BeginRebuild(ctx context.Context) error {
	return g.Barrier(ctx, func() error {
		g.paused = true
		return nil
	})
}

// CommitRebuild finishes an online reindex begun with BeginRebuild. Under
// the write semaphore — so no append can slip between the delta snapshot and
// the publish — it re-routes every record acked during the rebuild through
// rebuilt's skeleton into a fresh delta and commits the view of rebuilt's
// skeleton and files with that delta (core.Index.Publish), which becomes the
// pipeline's live one; compactions resume against it. A cancelled ctx, a
// closed pipeline or a failed save fails the commit alike: Publish removes
// rebuilt's files, the old view stays current with the WAL and its delta
// untouched, and compactions resume against it.
func (g *Ingester) CommitRebuild(ctx context.Context, rebuilt *core.Generation) error {
	g.lockBlocking()
	defer g.unlock()
	g.paused = false
	recs := g.delta().Snapshot()
	rerouted := make([]core.Routed, len(recs))
	for i, r := range recs {
		rerouted[i] = core.Routed{ID: r.ID, Route: rebuilt.Skel.RouteRecord(r.Values), Values: r.Values}
	}
	nd := NewMemDelta()
	added := nd.Add(rerouted) // cannot fail: every record passed Append's checks
	return g.ix.Publish(core.NewGeneration(rebuilt.Skel, rebuilt.Parts, nd), func(next *core.Generation) error {
		if g.closed {
			return ErrClosed
		}
		if err := errors.Join(added, ctx.Err()); err != nil {
			return err
		}
		return g.save(next)
	})
}

// AbortRebuild resumes compactions after a failed rebuild, leaving the
// current generation, the WAL, and the delta exactly as they were.
func (g *Ingester) AbortRebuild() {
	g.lockBlocking()
	g.paused = false
	g.unlock()
}

// Close stops the background compactor, runs a final compaction so nothing
// is left for the next open to replay, and closes the WAL. Close is
// idempotent; Append and Flush return ErrClosed afterwards.
func (g *Ingester) Close() error {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done

	g.lockBlocking()
	defer g.unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	err := g.compactLocked()
	if cerr := g.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon drops the ingester the way a killed process would: the
// background compactor stops and the WAL closes with its contents intact —
// no final compaction, no truncation. Acked-but-uncompacted records remain
// in the log for the next Open to replay. Crash-recovery test harnesses use
// it to simulate a kill without exiting the process (which also releases
// the WAL's single-writer file lock, as a real death would).
func (g *Ingester) Abandon() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
	g.lockBlocking()
	defer g.unlock()
	if g.closed {
		return
	}
	g.closed = true
	_ = g.wal.Close()
}

// lock acquires the write semaphore, giving up when ctx is cancelled so a
// dead request does not wait out a compaction.
func (g *Ingester) lock(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *Ingester) lockBlocking() { g.sem <- struct{}{} }
func (g *Ingester) unlock()       { <-g.sem }

// Stats snapshots the pipeline's counters.
func (g *Ingester) Stats() Stats {
	delta := g.delta()
	s := Stats{
		AppendCalls:         g.appendCalls.Load(),
		AppendedSeries:      g.appendedSeries.Load(),
		ReplayedSeries:      g.replayedSeries.Load(),
		WALBytes:            g.walBytes.Load(),
		Compactions:         g.compactions.Load(),
		CompactedSeries:     g.compactedSeries.Load(),
		DeltaRecords:        delta.Len(),
		DeltaBytes:          delta.Bytes(),
		CompactErrors:       g.compactErrors.Load(),
		CompactBytesWritten: g.compactBytes.Load(),
		CompactSeconds:      float64(g.compactNanos.Load()) / 1e9,
		Folds:               g.folds.Load(),
		TailBytesWritten:    g.tailBytes.Load(),
		FoldBytesWritten:    g.foldBytes.Load(),
	}
	s.TailFiles, s.TailRecords, s.TailBytes = g.ix.TailStats()
	for i := range g.compactDur {
		s.CompactDurations[i] = g.compactDur[i].Load()
	}
	return s
}

// TotalRecords returns the database's acked record count: the partition
// records present at open plus every series acked since (replayed or
// appended). Compactions only move records between the delta and the
// partition files, so the sum is exact at every instant — including while a
// compaction is mid-flight or retrying after a failure — and needs no lock.
func (g *Ingester) TotalRecords() int {
	return int(g.baseRecords + g.replayedSeries.Load() + g.appendedSeries.Load())
}

// run is the background compactor: it wakes on the size-threshold kick and
// on a timer that enforces the age threshold.
func (g *Ingester) run() {
	defer close(g.done)
	poll := min(max(g.cfg.CompactAge/4, 50*time.Millisecond), time.Second)
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-g.kick:
		case <-ticker.C:
			if d := g.delta(); d.Len() < g.cfg.CompactRecords && d.OldestAge() < g.cfg.CompactAge {
				continue
			}
		}
		g.lockBlocking()
		if !g.closed {
			if err := g.compactLocked(); err != nil {
				g.compactErrors.Add(1)
				g.logFailure(err)
			}
		}
		g.unlock()
	}
}

// logFailure reports a failed background compaction, which is otherwise only
// a counter: the compactor retries on every trigger, so a standing fault
// (disk full, a file gone) is logged once a minute per distinct text, not
// once per attempt.
func (g *Ingester) logFailure(err error) {
	msg, now := err.Error(), time.Now()
	if last, ok := g.lastLogged[msg]; ok && now.Sub(last) < time.Minute {
		return
	}
	if g.lastLogged == nil {
		g.lastLogged = make(map[string]time.Time)
	}
	g.lastLogged[msg] = now
	slog.Error("background compaction failed; will retry", "err", msg)
}

// written adds what a drain or a fold wrote to the pipeline's counters.
func (g *Ingester) written(st core.DrainStats) {
	g.folds.Add(int64(st.Folds))
	g.tailBytes.Add(st.TailBytes)
	g.foldBytes.Add(st.FoldBytes)
}

// compactLocked drains the delta into partition files. Caller holds the
// write semaphore.
//
// Ordering is what makes a crash at any point safe:
//
//  1. write the records into new partition files — per partition a new
//     tail, or on a fold a new base — and build the view that names them,
//     with a fresh delta; a crash here leaves files no manifest names, which
//     the next open sweeps, and the records in the WAL;
//  2. persist the view's manifest (save) — from here the counts (and the ID
//     counter they seed) include the compacted records, and replay skips
//     them;
//  3. publish the view: queries see the new files and the fresh delta in
//     one swap, and the files only earlier views named are removed once no
//     query holds those views (a crash before that leaves them to the next
//     open's sweep); earlier views keep the old delta, so a query pinned
//     before the publish still finds the drained records in it;
//  4. truncate the WAL — replay now has nothing to re-apply.
//
// Steps 1 to 3 are one core.Index.Drain. No view shows a record twice: the
// published one holds the drained records in its files only, the earlier
// ones in their delta only.
func (g *Ingester) compactLocked() error {
	if g.paused {
		// An online reindex owns the compaction baseline right now; the
		// background compactor simply tries again after the swap.
		return nil
	}
	recs := g.delta().Snapshot()
	if len(recs) == 0 {
		return nil
	}
	begin := time.Now()
	st, err := g.ix.Drain(recs, false, NewMemDelta(), g.save)
	g.written(st)
	if err != nil {
		return fmt.Errorf("ingest: compact: %w", err)
	}
	core.CrashStep("wal-reset")
	if err := g.wal.Reset(); err != nil {
		return err
	}
	g.walBytes.Store(g.wal.Size())
	g.compactions.Add(1)
	g.compactedSeries.Add(int64(len(recs)))
	g.compactBytes.Add(st.TailBytes + st.FoldBytes)
	took := time.Since(begin)
	g.compactNanos.Add(took.Nanoseconds())
	// The first bound at or above the duration; len(CompactionBuckets), the
	// overflow entry, when there is none.
	g.compactDur[sort.SearchFloat64s(CompactionBuckets[:], took.Seconds())].Add(1)
	return nil
}

// delta returns the pipeline's live delta, the current view's. The view
// cannot change under a holder of the write semaphore, since only the
// pipeline publishes views and only under it; a reader without it (Stats,
// the compactor's age check) gets the delta of a view current a moment ago.
func (g *Ingester) delta() *MemDelta { return g.ix.Delta().(*MemDelta) }

// roundF32 copies values through float32, the precision every durable tier
// (WAL, partition files) stores.
func roundF32(values []float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = float64(float32(v))
	}
	return out
}
