package climber

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// ingestOpts parks the background compactor behind huge thresholds so tests
// control compaction timing explicitly.
func ingestOpts(extra ...Option) []Option {
	return append(append([]Option{}, smallOpts()...),
		append([]Option{WithCompactionRecords(1 << 20), WithCompactionAge(time.Hour)}, extra...)...)
}

// An acked Append must survive a process kill: nothing was flushed or
// closed, yet reopening the directory replays the WAL and every record is
// searchable.
func TestAppendSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1200)
	db, err := Build(dir, data, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	extra := smallData(1230)[1200:] // 30 fresh series
	ids, err := db.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if db.IngestStats().Compactions != 0 {
		t.Fatal("test premise broken: a compaction ran before the simulated kill")
	}
	// Simulated kill -9: nothing flushed, nothing compacted, the WAL's
	// single-writer lock released by the "death".
	db.abandonForTest()

	re, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.IngestStats().ReplayedSeries; got != 30 {
		t.Fatalf("replayed %d series, want 30", got)
	}
	if got := re.Info().NumRecords; got != 1230 {
		t.Fatalf("NumRecords = %d after recovery, want 1230", got)
	}
	found := 0
	for i, q := range extra[:10] {
		res, err := re.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 && res[0].ID == ids[i] && res[0].Dist < 1e-4 {
			found++
		}
	}
	if found < 9 {
		t.Fatalf("found %d/10 acked records after recovery, want >= 9", found)
	}
	// New IDs continue past the recovered tail.
	ids2, err := re.Append(extra[:1])
	if err != nil {
		t.Fatal(err)
	}
	if ids2[0] != 1230 {
		t.Fatalf("post-recovery append ID = %d, want 1230", ids2[0])
	}
}

// Flush moves every acked record from the delta into partition files; the
// WAL empties and searches keep finding the records.
func TestFlushDrainsDelta(t *testing.T) {
	dir := t.TempDir()
	db, err := Build(dir, smallData(1000), ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	extra := smallData(1020)[1000:]
	ids, err := db.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	st := db.IngestStats()
	if st.DeltaRecords != 20 || st.WALBytes <= 12 {
		t.Fatalf("pre-flush ingest stats: %+v", st)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st = db.IngestStats()
	if st.DeltaRecords != 0 || st.Compactions != 1 || st.CompactedSeries != 20 {
		t.Fatalf("post-flush ingest stats: %+v", st)
	}
	res, err := db.Search(extra[7], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != ids[7] || res[0].Dist > 1e-4 {
		t.Fatalf("record invisible after flush: %+v", res)
	}
	if db.Info().NumRecords != 1020 {
		t.Fatalf("NumRecords = %d after flush, want 1020", db.Info().NumRecords)
	}
}

// Appends and searches from many goroutines must be safe (run under -race)
// and every acked record immediately findable — including while background
// compactions publish views under the search traffic. Every answer holds
// distinct IDs in (distance, ID) order, and the search for a just-acked
// series finds it first, at distance 0.
func TestConcurrentAppendAndSearch(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1000)
	// Low thresholds so real compactions race the workload.
	db, err := Build(dir, data, append(append([]Option{}, smallOpts()...),
		WithCompactionRecords(8), WithCompactionAge(50*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		writers      = 4
		perWriter    = 8
		batchSize    = 4
		readers      = 4
		searchesEach = 30
	)
	fresh := smallData(1000 + writers*perWriter*batchSize)[1000:]
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * perWriter * batchSize
			for b := 0; b < perWriter; b++ {
				recs := fresh[base+b*batchSize : base+(b+1)*batchSize]
				ids, err := db.Append(recs)
				if err != nil {
					errCh <- err
					return
				}
				// Each acked batch is immediately searchable.
				res, err := db.Search(recs[0], 3)
				if err == nil {
					err = wellFormed(res)
				}
				if err == nil && (len(res) == 0 || res[0].ID != ids[0] || res[0].Dist != 0) {
					err = fmt.Errorf("the search for just-acked record %d answers %+v", ids[0], res)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < searchesEach; i++ {
				res, err := db.Search(data[(r*131+i*7)%len(data)], 10)
				if err == nil {
					err = wellFormed(res)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	if db.IngestStats().Compactions == 0 {
		t.Fatal("test premise broken: no drain published while the searches ran")
	}
	// Every ID was assigned exactly once: the final record count is exact.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want := 1000 + writers*perWriter*batchSize
	if got := db.Info().NumRecords; got != want {
		t.Fatalf("NumRecords = %d after concurrent appends, want %d", got, want)
	}
}

// wellFormed fails an answer that holds an ID twice or is not in (distance,
// ID) order.
func wellFormed(res []Result) error {
	seen := map[int]bool{}
	for i, r := range res {
		if seen[r.ID] {
			return fmt.Errorf("record %d answers twice: %+v", r.ID, res)
		}
		seen[r.ID] = true
		if i > 0 && !res[i-1].Before(r) {
			return fmt.Errorf("results %d and %d out of (distance, ID) order: %+v", i-1, i, res)
		}
	}
	return nil
}

// The delta scan reports its effort: DeltaScanned is populated while
// records sit in the delta and zero after compaction.
func TestDeltaScannedStat(t *testing.T) {
	db, err := Build(t.TempDir(), smallData(1000), ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	extra := smallData(1010)[1000:]
	if _, err := db.Append(extra); err != nil {
		t.Fatal(err)
	}
	_, st, err := searchStats(db, extra[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaScanned == 0 {
		t.Fatal("DeltaScanned = 0 with a populated delta")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	_, st, err = searchStats(db, extra[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaScanned != 0 {
		t.Fatalf("DeltaScanned = %d after flush, want 0", st.DeltaScanned)
	}
}

// Rebuilding a database in place (the documented remedy for capacity
// drift) must not replay the previous database's WAL into the fresh index.
func TestRebuildInPlaceDiscardsStaleWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Build(dir, smallData(1000), ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(smallData(1010)[1000:]); err != nil {
		t.Fatal(err)
	}
	db.abandonForTest() // uncompacted entries left in wal.clmw

	re, err := Build(dir, smallData(800), ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.IngestStats().ReplayedSeries; got != 0 {
		t.Fatalf("fresh build replayed %d stale WAL series, want 0", got)
	}
	if got := re.Info().NumRecords; got != 800 {
		t.Fatalf("NumRecords = %d after rebuild, want 800", got)
	}
}

// A reading beyond ±MaxFloat32 is finite to the caller but +Inf at the
// precision the index stores. Every library entry point rejects it — a
// query used to come back empty without an error, and an appended series
// turned later answers' distances into NaN — and a rejected Append stores
// nothing.
func TestFloat32OverflowRejected(t *testing.T) {
	data := smallData(1000)
	db, err := Build(t.TempDir(), data, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	big := append([]float64(nil), data[0]...)
	big[5] = 1e39
	entry := map[string]func() error{
		"Search":       func() error { _, err := db.Search(big, 5); return err },
		"SearchPrefix": func() error { _, err := searchPrefix(db, big[:32], 5); return err },
		"SearchBatch":  func() error { _, err := searchBatch(db, [][]float64{data[1], big}, 5); return err },
		"SearchProgressive": func() error {
			_, _, err := searchProgressive(db, big, 5, func(SearchUpdate) bool { return true })
			return err
		},
		"Append": func() error { _, err := db.Append([][]float64{data[1], big}); return err },
	}
	for name, call := range entry {
		if err := call(); err == nil || !strings.Contains(err.Error(), "float32") {
			t.Errorf("%s with a 1e39 reading: error %v, want one naming float32", name, err)
		}
	}
	if n := db.Info().NumRecords; n != 1000 {
		t.Errorf("rejected Append stored records: NumRecords = %d, want 1000", n)
	}
	if n := db.IngestStats().DeltaRecords; n != 0 {
		t.Errorf("rejected Append reached the delta: %d records", n)
	}
	// The largest float32 is storable, and its answers stay finite.
	edge := append([]float64(nil), data[0]...)
	edge[5] = math.MaxFloat32
	if _, err := db.Append([][]float64{edge}); err != nil {
		t.Fatalf("Append of MaxFloat32: %v", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Search(edge, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if math.IsNaN(r.Dist) || math.IsInf(r.Dist, 0) {
			t.Fatalf("answer carries distance %v: %+v", r.Dist, res)
		}
	}
}
