package climber

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReindexSoak hammers one database with concurrent appends, searches,
// flushes, and repeated online reindexes (run it under -race). The
// invariants:
//
//   - no operation may fail, except Flush observing ErrReindexInProgress
//     while a rebuild holds the compaction baseline;
//   - a search issued after an append was acked AND after the workload
//     quiesces must find the record — an acked write committed before a
//     generation swap is visible after it, reindexes lose nothing;
//   - the database stays consistent through it all: the final record count
//     equals builds + acked appends.
//
// Visibility holds at every instant, not only at the end: each
// mid-workload search must find the acked or base record it queried at
// distance ≤ 1e-4. A drain publishes its files and the delta without the
// drained records in one view, so a search overlapping a compaction or a
// reindex sees each record in exactly one place, never in neither.
func TestReindexSoak(t *testing.T) {
	dir := t.TempDir()
	base := smallData(800)
	// Aggressive compaction so real compactions race the reindexes too.
	db, err := Build(dir, base, append(append([]Option{}, smallOpts()...),
		WithCompactionRecords(32), WithCompactionAge(20*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		appendBatches = 30
		batchSize     = 5
		reindexes     = 3
	)
	pool := smallData(800 + appendBatches*batchSize)[800:]

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		ackedMu sync.Mutex
		acked   = map[int][]float64{} // id -> series, filled as appends ack
		fails   atomic.Int64
	)
	fail := func(format string, args ...any) {
		fails.Add(1)
		t.Errorf(format, args...)
	}

	// Appender: acks batches one by one, publishing each under the lock so
	// searchers only ever read durable records.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < appendBatches; b++ {
			batch := pool[b*batchSize : (b+1)*batchSize]
			ids, err := db.Append(batch)
			if err != nil {
				fail("append batch %d: %v", b, err)
				return
			}
			ackedMu.Lock()
			for i, id := range ids {
				acked[id] = batch[i]
			}
			ackedMu.Unlock()
		}
	}()

	// Searchers: query already-acked records and base records; an error or
	// a miss is a failure (see the doc comment).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := base[(w*397+i*31)%len(base)]
				ackedMu.Lock()
				for id, s := range acked { // first map entry: arbitrary acked record
					_, q = id, s
					break
				}
				ackedMu.Unlock()
				res, err := db.Search(q, 5)
				if err != nil {
					fail("search: %v", err)
					return
				}
				if len(res) == 0 || res[0].Dist > 1e-4 {
					fail("search missed the record it queried: %+v", res)
					return
				}
				i++
			}
		}(w)
	}

	// Flusher: forced compactions interleave the reindexes; the only
	// tolerated error is the rebuild holding the baseline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if err := db.Flush(); err != nil && !errors.Is(err, ErrReindexInProgress) {
				fail("flush: %v", err)
				return
			}
		}
	}()

	// Reindexer: the swaps under test, back to back on the main goroutine's
	// schedule.
	for r := 0; r < reindexes && fails.Load() == 0; r++ {
		if err := db.Reindex(context.Background()); err != nil {
			t.Fatalf("reindex %d: %v", r, err)
		}
	}
	close(stop)
	wg.Wait()
	if fails.Load() > 0 {
		t.FailNow()
	}

	// Quiesce and verify the end state: every acked record visible, count
	// exact, one more reindex over the final record set still clean.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	ackedMu.Lock()
	defer ackedMu.Unlock()
	want := 800 + len(acked)
	if n := db.Info().NumRecords; n != want {
		t.Fatalf("NumRecords = %d after soak, want %d", n, want)
	}
	for id, s := range acked {
		res, err := db.Search(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != id || res[0].Dist > 1e-4 {
			t.Fatalf("acked record %d lost across reindexes: %+v", id, res)
		}
	}
	if err := db.Reindex(context.Background()); err != nil {
		t.Fatalf("final reindex: %v", err)
	}
	if n := db.Info().NumRecords; n != want {
		t.Fatalf("NumRecords = %d after final reindex, want %d", n, want)
	}
}
