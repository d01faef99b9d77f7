package climber

import (
	"sync"
	"testing"
)

// The acceptance workload: with the cache enabled, a repeated-query
// workload must perform at least 5x fewer partition loads (cluster stats)
// than the same workload against the same index with the cache off.
func TestPartitionCacheReducesPartitionLoads(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1500)
	buildAndClose(t, dir, data, smallOpts()...)
	queries := [][]float64{data[3], data[400], data[800], data[1200], data[1499]}
	const rounds = 10

	run := func(db *DB) int64 {
		for r := 0; r < rounds; r++ {
			for _, q := range queries {
				if _, err := db.Search(q, 20); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db.CacheStats().PartitionsLoaded
	}

	cold, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	warm, err := Open(dir, WithPartitionCacheBytes(256<<20), WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	loadsOff := run(cold)
	loadsOn := run(warm)
	t.Logf("partition loads: cache-off %d, cache-on %d (%.1fx fewer)",
		loadsOff, loadsOn, float64(loadsOff)/float64(loadsOn))
	if loadsOn == 0 {
		t.Fatal("cache-on workload reported zero loads")
	}
	if loadsOff < 5*loadsOn {
		t.Fatalf("cache saved only %.1fx partition loads (off=%d on=%d), want >= 5x",
			float64(loadsOff)/float64(loadsOn), loadsOff, loadsOn)
	}
	cs := warm.CacheStats()
	if cs.Hits == 0 || cs.Misses == 0 || cs.BytesSaved == 0 {
		t.Fatalf("cache counters not surfaced: %+v", cs)
	}
	// Per-query stats surface the hits too: a repeated query is all hits.
	_, stats, err := searchStats(warm, queries[0], 20)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartitionCacheHits == 0 || stats.PartitionCacheMisses != 0 {
		t.Fatalf("repeat query stats = %+v, want all cache hits", stats)
	}
}

// WithPartitionCacheBytes(0) — the default — must preserve today's
// behaviour exactly: identical answers, identical per-query cost
// accounting, and zeroed cache counters. And the cache, when on, must not
// change any answer or any per-query cost either.
func TestPartitionCacheEquivalence(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1500)
	buildAndClose(t, dir, data, smallOpts()...)
	off, err := Open(dir, WithPartitionCacheBytes(0), WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	on, err := Open(dir, WithPartitionCacheBytes(64<<20), WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	for _, qid := range []int{1, 250, 700, 1100, 1499} {
		for _, v := range []Variant{KNN, Adaptive2X, Adaptive4X, ODSmallest} {
			a, sa, err := searchStats(off, data[qid], 25, WithVariant(v))
			if err != nil {
				t.Fatal(err)
			}
			b, sb, err := searchStats(on, data[qid], 25, WithVariant(v))
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("q%d %v: result counts %d vs %d", qid, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("q%d %v: result %d differs: %+v vs %+v", qid, v, i, a[i], b[i])
				}
			}
			if sa.PartitionsScanned != sb.PartitionsScanned ||
				sa.RecordsScanned != sb.RecordsScanned ||
				sa.BytesLoaded != sb.BytesLoaded ||
				sa.GroupsConsidered != sb.GroupsConsidered {
				t.Fatalf("q%d %v: cost accounting diverged: %+v vs %+v", qid, v, sa, sb)
			}
			if sa.PartitionCacheHits != 0 || sa.PartitionCacheMisses != 0 {
				t.Fatalf("q%d %v: cache-off query reports cache traffic: %+v", qid, v, sa)
			}
		}
	}
	if cs := off.CacheStats(); cs.Hits != 0 || cs.Misses != 0 || cs.Evictions != 0 || cs.BytesSaved != 0 {
		t.Fatalf("cache-off DB reports cache counters: %+v", cs)
	}
}

// Concurrent SearchBatch calls over one shared cached DB: exercised under
// `go test -race ./...` in CI, this doubles as the data-race check for the
// shared in-memory partitions and the singleflight path.
func TestPartitionCacheConcurrentSearchBatch(t *testing.T) {
	data := smallData(1500)
	db := buildAndReopenFrom(t, data, WithPartitionCacheBytes(128<<20))
	queries := make([][]float64, 24)
	for i := range queries {
		queries[i] = data[(i*61)%len(data)]
	}
	want, err := searchBatch(db, queries, 10)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 6
	var wg sync.WaitGroup
	got := make([][][]Result, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c], errs[c] = searchBatch(db, queries, 10)
		}()
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i := range want {
			if len(got[c][i]) != len(want[i]) || got[c][i][0] != want[i][0] {
				t.Fatalf("caller %d query %d diverged under concurrency", c, i)
			}
		}
	}
	if cs := db.CacheStats(); cs.Hits == 0 {
		t.Fatalf("concurrent batches produced no cache hits: %+v", cs)
	}
}

// buildAndReopenFrom is buildAndReopen over caller-supplied data.
func buildAndReopenFrom(t *testing.T, data [][]float64, extra ...Option) *DB {
	t.Helper()
	dir := t.TempDir()
	buildAndClose(t, dir, data, smallOpts()...)
	db, err := Open(dir, extra...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// Append rewrites partition files; the cache must drop its stale copies so
// queries observe the appended records.
func TestPartitionCacheInvalidatedByAppend(t *testing.T) {
	data := smallData(1200)
	db := buildAndReopenFrom(t, data, WithPartitionCacheBytes(128<<20))

	// Warm the cache over the whole index.
	for _, qid := range []int{0, 200, 400, 600, 800, 1000} {
		if _, err := db.Search(data[qid], 10, WithVariant(ODSmallest)); err != nil {
			t.Fatal(err)
		}
	}
	extra := smallData(1230)[1200:] // 30 fresh series
	ids, err := db.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range extra {
		res, err := db.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != ids[i] || res[0].Dist > 1e-3 {
			t.Fatalf("appended record %d invisible through the cache: %+v", ids[i], res)
		}
	}
}
