package climber

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Every partition file a query touches is mapped once, at its first open,
// and every later open of it is a hit: over ten rounds of the same queries
// the loads equal the distinct files touched, whatever the deprecated
// WithPartitionCacheBytes says — none, a budget smaller than those files, or
// one that holds them all.
func TestPartitionFileMappedOnce(t *testing.T) {
	dir := t.TempDir()
	data := smallData(6000)
	buildAndClose(t, dir, data, smallOpts()...)
	var queries [][]float64
	for i := 0; i < len(data); i += 150 {
		queries = append(queries, data[i])
	}
	const rounds = 10
	for _, budget := range []int64{0, 1 << 20, 256 << 20} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			db, err := Open(dir, WithPartitionCacheBytes(budget), WithReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			touched := make(map[int]bool)
			var steps int64 // partition opens the plans ran, widening aside
			for r := 0; r < rounds; r++ {
				for i, q := range queries {
					v := []Variant{ODSmallest, Adaptive4X}[i%2]
					resp, err := db.Query(context.Background(), NewRequest(q, 20, WithVariant(v), WithExplain()))
					if err != nil {
						t.Fatal(err)
					}
					for _, st := range resp.Explain.Plan {
						if st.Executed {
							touched[st.Partition] = true
							steps++
						}
					}
				}
			}
			var bytes int64
			for pid := range touched {
				info, err := os.Stat(db.ix.Partitions().Paths[pid])
				if err != nil {
					t.Fatal(err)
				}
				bytes += info.Size()
			}
			if bytes <= 1<<20 {
				t.Fatalf("test premise broken: the queries touch %d bytes, within the 1 MiB budget", bytes)
			}
			cs := db.CacheStats()
			files := int64(len(touched))
			if cs.PartitionsLoaded != files || cs.Misses != files {
				t.Fatalf("%d loads and %d misses for %d distinct files touched", cs.PartitionsLoaded, cs.Misses, files)
			}
			// Every other open hit: at least every step after the first
			// open of its file.
			if cs.Hits < steps-files {
				t.Fatalf("%d hits in %d steps over %d files", cs.Hits, steps, files)
			}
			if cs.Evictions != 0 || cs.BytesSaved == 0 || cs.MappedBytes != bytes || cs.ResidentBytes != bytes {
				t.Fatalf("counters %+v, want no evictions and the %d bytes touched mapped", cs, bytes)
			}
		})
	}
}

// WithPartitionCacheBytes is ignored: a DB opened with no budget and one
// opened with a budget give identical answers, identical per-query cost
// accounting and identical counters.
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
			if sa != sb {
				t.Fatalf("q%d %v: stats diverged: %+v vs %+v", qid, v, sa, sb)
			}
		}
	}
	if a, b := off.CacheStats(), on.CacheStats(); a != b || a.Hits == 0 {
		t.Fatalf("counters diverged or no open hit:\n%+v\n%+v", a, b)
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

// A drain replaces partition files with new ones: queries must observe the
// appended records, and only the files the drain wrote — the tails it
// created or grew, the bases it folded — are mapped; the files it kept stay
// mapped.
func TestPartitionCacheInvalidatedByAppend(t *testing.T) {
	data := smallData(1200)
	db := buildAndReopenFrom(t, data, WithCompactionRecords(1<<20), WithCompactionAge(time.Hour))

	// touch runs the queries and returns the partitions they opened.
	touch := func(qs [][]float64) map[int]bool {
		t.Helper()
		touched := make(map[int]bool)
		for _, q := range qs {
			resp, err := db.Query(context.Background(), NewRequest(q, 10, WithVariant(ODSmallest), WithExplain()))
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range resp.Explain.Plan {
				if st.Executed {
					touched[st.Partition] = true
				}
			}
		}
		return touched
	}
	// files lists the store's partition files, bases and tails.
	files := func() map[string]os.FileInfo {
		t.Helper()
		ents, err := os.ReadDir(db.cl.Dir())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]os.FileInfo, len(ents))
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Join(db.cl.Dir(), e.Name())] = info
		}
		return out
	}

	appended := smallData(1230)[1200:] // 30 fresh series
	var ids []int
	drain := func(batch [][]float64) {
		t.Helper()
		got, err := db.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	queries := [][]float64{data[0], data[200], data[400], data[600], data[800], data[1000]}
	queries = append(queries, appended...)

	// The first drain writes tails; the queries map them. The second
	// rewrites some of those tails.
	drain(appended[:15])
	warmed := touch(queries)
	before := files()
	drain(appended[15:])
	after := files()
	wrote := func(path string) bool {
		old, ok := before[path]
		now, exists := after[path]
		return exists && (!ok || !os.SameFile(old, now))
	}

	loads := db.CacheStats().PartitionsLoaded
	touched := touch(queries)
	// The files the queries open: those the second drain wrote and those
	// of partitions never opened before are loaded, the rest stay mapped.
	var want int64
	rewritten, kept := 0, 0
	parts := db.ix.Partitions()
	for pid := range touched {
		fs := []string{parts.Paths[pid]}
		if tail, _ := parts.Tail(pid); tail != "" {
			fs = append(fs, tail)
		}
		for _, f := range fs {
			switch {
			case wrote(f):
				want++
				if warmed[pid] {
					rewritten++
				}
			case !warmed[pid]:
				want++
			default:
				kept++
			}
		}
	}
	if rewritten == 0 || kept == 0 {
		t.Fatalf("test premise broken: of the files the queries open, the drain wrote %d of mapped partitions and left %d", rewritten, kept)
	}
	if got := db.CacheStats().PartitionsLoaded - loads; got != want {
		t.Fatalf("after the drain the queries loaded %d files, want the %d it wrote or never mapped", got, want)
	}
	for i, q := range appended {
		res, err := db.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != ids[i] || res[0].Dist > 1e-3 {
			t.Fatalf("appended record %d invisible after the drains: %+v", ids[i], res)
		}
	}
}
