package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"log/slog"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/dataset"
	"climber/internal/storage"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Segments = 8
	cfg.NumPivots = 24
	cfg.PrefixLen = 4
	cfg.Capacity = 100
	cfg.SampleRate = 0.2
	cfg.BlockSize = 250
	cfg.Seed = 7
	return cfg
}

// buildIndex builds a small index plus the manifest file an ingester's save
// callback maintains.
func buildIndex(t *testing.T, n int) (*core.Index, string) {
	t.Helper()
	dir := t.TempDir()
	ds := dataset.RandomWalk(64, n, 11)
	cl := cluster.New(filepath.Join(dir, "cluster"), 2)
	bs := cluster.Blocks(ds, testConfig().BlockSize)
	ix, err := core.Build(cl, bs, testConfig(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveIndex(ix, filepath.Join(dir, "index.clms")); err != nil {
		t.Fatal(err)
	}
	return ix, dir
}

func openIngester(t *testing.T, ix *core.Index, dir string, cfg Config) *Ingester {
	t.Helper()
	g, err := Open(ix, filepath.Join(dir, "wal.clmw"), func(view *core.Generation) error {
		return core.SaveSnapshot(view.Skel, view.Parts, filepath.Join(dir, "index.clms"))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func freshSeries(n int) [][]float64 {
	ds := dataset.RandomWalk(64, n, 999)
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, 64)
		copy(x, ds.Get(i))
		out[i] = x
	}
	return out
}

// Appends are searchable from the delta before any compaction, with the
// same pruning the on-disk plan uses.
func TestAppendVisibleBeforeCompaction(t *testing.T) {
	ix, dir := buildIndex(t, 1500)
	g := openIngester(t, ix, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})
	defer g.Close()

	recs := freshSeries(20)
	ids, err := g.Append(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 20 || ids[0] != 1500 {
		t.Fatalf("ids = %v, want 1500..1519", ids[:1])
	}
	if got := g.Stats().DeltaRecords; got != 20 {
		t.Fatalf("delta holds %d records, want 20", got)
	}
	found := 0
	for i, q := range recs[:10] {
		res, err := ix.Search(q, core.SearchOptions{K: 5, Variant: core.VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) > 0 && res.Results[0].ID == ids[i] && res.Results[0].Dist < 1e-4 {
			found++
		}
		if res.Stats.DeltaScanned == 0 {
			t.Fatalf("query %d scanned no delta records despite a populated delta", i)
		}
	}
	if found < 9 { // one random WD tie-break miss allowed, as in build
		t.Fatalf("found %d/10 appended records via the delta, want >= 9", found)
	}
}

// A query pinned to a view before a drain publishes the next one still sees
// the drained records: its view's files lack them, and its view's delta
// keeps them after the compactor gives the published view a fresh one. Each
// round flushes from inside a query, between its first plan step and its
// delta merge, and the query must answer as the same query run just before.
func TestQueryPinnedAcrossDrainSeesDrainedRecords(t *testing.T) {
	ix, dir := buildIndex(t, 1500)
	g := openIngester(t, ix, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})
	defer g.Close()

	opts := core.SearchOptions{K: 5, Variant: core.VariantAdaptive4X}
	const rounds = 10
	found := 0
	for round, q := range freshSeries(rounds) {
		ids, err := g.Append(context.Background(), [][]float64{q})
		if err != nil {
			t.Fatal(err)
		}
		before, err := ix.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		flushed := false
		pinned, err := ix.Query(context.Background(), q, opts, func(s core.Snapshot) bool {
			if !flushed && !s.Final {
				flushed = true
				if err := g.Flush(context.Background()); err != nil {
					t.Error(err)
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !flushed {
			t.Fatalf("round %d: the query ended before its delta merge could be raced", round)
		}
		if !slices.Equal(pinned.Results, before.Results) {
			t.Fatalf("round %d: the query pinned across the drain answered\n%v\nwant\n%v", round, pinned.Results, before.Results)
		}
		if len(pinned.Results) > 0 && pinned.Results[0].ID == ids[0] && pinned.Results[0].Dist < 1e-4 {
			found++
		}
		if got := g.Stats().Compactions; got != int64(round+1) {
			t.Fatalf("round %d: %d compactions", round, got)
		}
	}
	if found < rounds-1 { // one random WD tie-break miss allowed, as in build
		t.Fatalf("the pinned queries found %d/%d drained records, want >= %d", found, rounds, rounds-1)
	}
}

// The view a drain publishes holds each record once, in its files or in its
// delta: at the WAL reset, right after the publish, the current view is
// pinned and read whole, drain after drain, tails and folds alike.
func TestPublishedViewNeverHoldsARecordTwice(t *testing.T) {
	ix, dir := buildIndex(t, 1200)
	g := openIngester(t, ix, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})
	defer g.Close()
	checked := 0
	core.SetCrashStepHook(func(step string) {
		if step != "wal-reset" {
			return
		}
		view := ix.AcquireGeneration()
		defer view.Release()
		files, delta := viewRecords(t, ix, view)
		for id := range delta {
			if files[id] > 0 {
				t.Fatalf("drain %d: record %d is in the published view's files and in its delta", checked, id)
			}
		}
		checked++
	})
	defer core.SetCrashStepHook(nil)
	ctx := context.Background()
	series := freshSeries(200)
	for i := 0; i < len(series); i += 40 {
		if _, err := g.Append(ctx, series[i:i+40]); err != nil {
			t.Fatal(err)
		}
		if err := g.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st := g.Stats(); checked != 5 || st.Folds == 0 || st.TailBytesWritten == 0 {
		t.Fatalf("%d views checked, %d folds, %d tail bytes: want five drains that wrote tails and folds", checked, st.Folds, st.TailBytesWritten)
	}
}

// Flush drains the delta into partition files, truncates the WAL, and
// leaves every record still findable.
func TestFlushCompacts(t *testing.T) {
	ix, dir := buildIndex(t, 1200)
	g := openIngester(t, ix, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})
	defer g.Close()

	recs := freshSeries(30)
	ids, err := g.Append(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Compactions != 1 || st.CompactedSeries != 30 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if st.DeltaRecords != 0 {
		t.Fatalf("delta holds %d records after flush", st.DeltaRecords)
	}
	if st.WALBytes != walHeaderSize {
		t.Fatalf("WAL size %d after flush, want bare header %d", st.WALBytes, walHeaderSize)
	}
	if got := ix.PersistedRecords(); got != 1230 {
		t.Fatalf("partitions hold %d records after flush, want 1230", got)
	}
	found := 0
	for i, q := range recs[:10] {
		res, err := ix.Search(q, core.SearchOptions{K: 5, Variant: core.VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) > 0 && res.Results[0].ID == ids[i] && res.Results[0].Dist < 1e-4 {
			found++
		}
	}
	if found < 9 {
		t.Fatalf("found %d/10 appended records after compaction, want >= 9", found)
	}
}

// The size threshold triggers background compaction without Flush.
func TestBackgroundCompactionBySize(t *testing.T) {
	ix, dir := buildIndex(t, 1000)
	g := openIngester(t, ix, dir, Config{CompactRecords: 16, CompactAge: time.Hour})
	defer g.Close()

	if _, err := g.Append(context.Background(), freshSeries(40)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.Stats().Compactions > 0 && g.Stats().DeltaRecords == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("background compactor never drained the delta: %+v", g.Stats())
}

// Killing the process before compaction must lose nothing: a fresh ingester
// over the same directory replays the WAL, records stay searchable, and ID
// assignment continues past the replayed entries.
func TestCrashRecoveryReplaysWAL(t *testing.T) {
	ix, dir := buildIndex(t, 1200)
	g := openIngester(t, ix, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})

	recs := freshSeries(25)
	ids, err := g.Append(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: Abandon drops the ingester without compacting
	// (releasing the WAL lock as process death would); stand up a fresh
	// index + WAL over the same files, exactly like a restarted process.
	g.Abandon()
	ix2, err := core.OpenIndex(ix.Cl, filepath.Join(dir, "index.clms"))
	if err != nil {
		t.Fatal(err)
	}
	g2 := openIngester(t, ix2, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})
	defer g2.Close()

	if got := g2.Stats().ReplayedSeries; got != 25 {
		t.Fatalf("replayed %d series, want 25", got)
	}
	found := 0
	for i, q := range recs[:10] {
		res, err := ix2.Search(q, core.SearchOptions{K: 5, Variant: core.VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) > 0 && res.Results[0].ID == ids[i] && res.Results[0].Dist < 1e-4 {
			found++
		}
	}
	if found < 9 {
		t.Fatalf("found %d/10 acked records after crash recovery, want >= 9", found)
	}
	// IDs continue after the replayed tail — no reuse.
	more, err := g2.Append(context.Background(), freshSeries(1))
	if err != nil {
		t.Fatal(err)
	}
	if more[0] != ids[len(ids)-1]+1 {
		t.Fatalf("post-recovery ID %d, want %d", more[0], ids[len(ids)-1]+1)
	}
}

// A crash after the partition writes but before the WAL truncation must not
// duplicate records: replay re-applies the entries and the idempotent
// partition merge lands them exactly once.
func TestCrashBetweenCompactAndTruncateIsIdempotent(t *testing.T) {
	ix, dir := buildIndex(t, 1000)
	g := openIngester(t, ix, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})

	recs := freshSeries(10)
	if _, err := g.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	// Land the records in partitions + manifest, but "crash" before the
	// WAL truncation by compacting through the index directly.
	save := func(next *core.Generation) error {
		return core.SaveSnapshot(next.Skel, next.Parts, filepath.Join(dir, "index.clms"))
	}
	if _, err := ix.Drain(snapshotOf(g), false, NewMemDelta(), save); err != nil {
		t.Fatal(err)
	}

	// Restart: WAL still holds all 10 entries; the manifest already counts
	// them, so replay must skip every one.
	g.Abandon()
	ix2, err := core.OpenIndex(ix.Cl, filepath.Join(dir, "index.clms"))
	if err != nil {
		t.Fatal(err)
	}
	g2 := openIngester(t, ix2, dir, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})
	defer g2.Close()
	if got := g2.Stats().ReplayedSeries; got != 0 {
		t.Fatalf("replayed %d series already counted by the manifest, want 0", got)
	}
	if got := ix2.PersistedRecords(); got != 1010 {
		t.Fatalf("partitions hold %d records, want 1010", got)
	}
	requireStoredOnce(t, ix2, 1010)
}

// requireStoredOnce scans every partition, base and tail, of one pinned view
// and fails unless its files hold exactly the IDs 0..want-1, each once, its
// delta holds none of them, and its manifest counts the same.
func requireStoredOnce(t *testing.T, ix *core.Index, want int) {
	t.Helper()
	view := ix.AcquireGeneration()
	defer view.Release()
	seen, delta := viewRecords(t, ix, view)
	for id := 0; id < want; id++ {
		if seen[id] != 1 || delta[id] {
			t.Fatalf("record %d stored %d times, in the delta %v; want once, in the files only", id, seen[id], delta[id])
		}
	}
	if len(seen) != want {
		t.Fatalf("partition files hold %d distinct IDs, want %d", len(seen), want)
	}
	if got := view.Parts.Len(); got != want {
		t.Fatalf("the manifest counts %d records, want %d", got, want)
	}
}

// viewRecords reads a pinned view whole: how often each ID is in its
// partition files, and which IDs its delta holds.
func viewRecords(t *testing.T, ix *core.Index, view *core.Generation) (files map[int]int, delta map[int]bool) {
	t.Helper()
	files, delta = map[int]int{}, map[int]bool{}
	recBytes := storage.RecordBytes(view.Parts.SeriesLen)
	for pid := range view.Parts.Paths {
		p, err := ix.Cl.OpenPartition(view.Parts, pid)
		if err != nil {
			t.Fatal(err)
		}
		err = p.ScanAll(func(id int, values []float64) error {
			files[id]++
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := view.Delta(); d != nil {
			err := d.ScanRuns(pid, func(_ storage.ClusterID, recs, _ []byte) error {
				for off := 0; off < len(recs); off += recBytes {
					delta[int(binary.LittleEndian.Uint64(recs[off:]))] = true
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return files, delta
}

// snapshotOf exposes the delta snapshot for the crash-window test.
func snapshotOf(g *Ingester) []core.Routed { return g.delta().Snapshot() }

func TestAppendValidation(t *testing.T) {
	ix, dir := buildIndex(t, 1000)
	g := openIngester(t, ix, dir, Config{})
	defer g.Close()
	if ids, err := g.Append(context.Background(), nil); err != nil || ids != nil {
		t.Fatalf("empty append: %v, %v", ids, err)
	}
	if _, err := g.Append(context.Background(), [][]float64{make([]float64, 3)}); err == nil {
		t.Fatal("wrong-length append accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Append(ctx, freshSeries(1)); err == nil {
		t.Fatal("append under a cancelled context accepted")
	}
}

func TestClosedIngesterRejectsWrites(t *testing.T) {
	ix, dir := buildIndex(t, 1000)
	g := openIngester(t, ix, dir, Config{})
	if _, err := g.Append(context.Background(), freshSeries(2)); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if _, err := g.Append(context.Background(), freshSeries(1)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := g.Flush(context.Background()); err != ErrClosed {
		t.Fatalf("flush after close: %v, want ErrClosed", err)
	}
	// Close compacted everything: the WAL is empty and records persist.
	if g.Stats().DeltaRecords != 0 {
		t.Fatal("delta not drained by Close")
	}
	if got := ix.PersistedRecords(); got != 1002 {
		t.Fatalf("partitions hold %d records after Close, want 1002", got)
	}
}

// A background compaction that fails is retried on every trigger; the
// failure is logged, once per distinct text per minute, not only counted.
func TestBackgroundCompactionFailureIsLogged(t *testing.T) {
	var logged lockedBuffer
	old := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(old)

	ix, dir := buildIndex(t, 1200)
	var failure atomic.Pointer[error]
	g, err := Open(ix, filepath.Join(dir, "wal.clmw"), func(view *core.Generation) error {
		if e := failure.Load(); e != nil {
			return *e
		}
		return core.SaveSnapshot(view.Skel, view.Parts, filepath.Join(dir, "index.clms"))
	}, Config{CompactRecords: 2, CompactAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// appendUntilErrors keeps the size trigger firing until the compactor has
	// failed n more times.
	appendUntilErrors := func(n int64) {
		t.Helper()
		want := g.Stats().CompactErrors + n
		for deadline := time.Now().Add(20 * time.Second); g.Stats().CompactErrors < want; {
			if time.Now().After(deadline) {
				t.Fatalf("the compactor failed %d times, want %d", g.Stats().CompactErrors, want)
			}
			if _, err := g.Append(context.Background(), freshSeries(2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	disk := errors.New("no space left on device")
	failure.Store(&disk)
	appendUntilErrors(3)
	if n := strings.Count(logged.String(), "background compaction failed"); n != 1 {
		t.Fatalf("three failures with one text logged %d lines:\n%s", n, logged.String())
	}
	if !strings.Contains(logged.String(), "no space left on device") {
		t.Fatalf("the log line does not carry the error:\n%s", logged.String())
	}
	quota := errors.New("disk quota exceeded")
	failure.Store(&quota)
	appendUntilErrors(2)
	if n := strings.Count(logged.String(), "background compaction failed"); n != 2 {
		t.Fatalf("a second distinct failure brought the log to %d lines:\n%s", n, logged.String())
	}
	failure.Store(nil)
	if err := g.Flush(context.Background()); err != nil {
		t.Fatalf("flush once the fault cleared: %v", err)
	}
	if g.Stats().DeltaRecords != 0 {
		t.Fatalf("%d records still in the delta after the flush", g.Stats().DeltaRecords)
	}
	// Every failed attempt had already written the partition files.
	requireStoredOnce(t, ix, g.TotalRecords())
}

// A drain that wrote its partition files and then failed — the manifest save,
// here — is retried with the same records while the files already hold them:
// folded into a base, or in a tail. The retry must replace them where they
// lie, not store a second copy in a fresh tail beside the base.
func TestRetriedDrainAfterFailedSaveStoresOnce(t *testing.T) {
	ix, dir := buildIndex(t, 1200)
	var failure atomic.Pointer[error]
	g, err := Open(ix, filepath.Join(dir, "wal.clmw"), func(view *core.Generation) error {
		if e := failure.Load(); e != nil {
			return *e
		}
		return core.SaveSnapshot(view.Skel, view.Parts, filepath.Join(dir, "index.clms"))
	}, Config{CompactRecords: 1 << 20, CompactAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	series := freshSeries(160)

	// Tails close to the fold threshold...
	if _, err := g.Append(ctx, series[:100]); err != nil {
		t.Fatal(err)
	}
	if err := g.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.TailFiles == 0 {
		t.Fatalf("the first drain left no tail: %+v", st)
	}
	// ...so the next drain folds some and only grows others, and then fails.
	if _, err := g.Append(ctx, series[100:]); err != nil {
		t.Fatal(err)
	}
	disk := errors.New("no space left on device")
	failure.Store(&disk)
	if err := g.Flush(ctx); !errors.Is(err, disk) {
		t.Fatalf("flush with a failing manifest save: %v", err)
	}
	st := g.Stats()
	if st.Folds == 0 || st.TailFiles == 0 || st.DeltaRecords != 60 {
		t.Fatalf("the failed drain should have folded some tails, kept others and the delta: %+v", st)
	}
	failure.Store(nil)
	if err := g.Flush(ctx); err != nil {
		t.Fatalf("flush once the fault cleared: %v", err)
	}
	requireStoredOnce(t, ix, 1360)

	// The same after a restart, and after the fold of everything.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := core.OpenIndex(ix.Cl, filepath.Join(dir, "index.clms"))
	if err != nil {
		t.Fatal(err)
	}
	requireStoredOnce(t, ix2, 1360)
}

// lockedBuffer is a bytes.Buffer the compactor goroutine may write while the
// test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
