package pcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"climber/internal/storage"
)

// writePartition writes a small partition file with n records and returns
// its path and on-disk size.
func writePartition(t *testing.T, dir, name string, n int) (string, int64) {
	t.Helper()
	const seriesLen = 8
	recs := make([]storage.Incoming, n)
	for i := range recs {
		vals := make([]float64, seriesLen)
		for j := range vals {
			vals[j] = float64(i + j)
		}
		recs[i] = storage.Incoming{Cluster: storage.ClusterID(i % 3), ID: i, Values: vals}
	}
	path := filepath.Join(dir, name)
	if _, _, err := storage.MergePartitions(path, seriesLen, nil, recs, nil); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, info.Size()
}

func loader(path string, loads *atomic.Int64) func() (*storage.Partition, error) {
	return func() (*storage.Partition, error) {
		loads.Add(1)
		return storage.LoadPartition(path)
	}
}

// memBytesOf returns the cache charge of one partition file — the budget
// unit since charging switched from file size to MemBytes.
func memBytesOf(t *testing.T, path string) int64 {
	t.Helper()
	p, err := storage.LoadPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	return p.MemBytes()
}

func TestGetCachesAndCountsHits(t *testing.T) {
	dir := t.TempDir()
	path, size := writePartition(t, dir, "p0.clmp", 10)
	c := New(1<<20, Counters{})
	var loads atomic.Int64

	p1, hit, err := c.Get(path, loader(path, &loads))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Get must be a miss")
	}
	if !p1.InMemory() {
		t.Fatal("cached partition should be in-memory")
	}
	p2, hit, err := c.Get(path, loader(path, &loads))
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second Get must be a hit")
	}
	if p1 != p2 {
		t.Fatal("hit must return the shared partition")
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("loads = %d, want 1", got)
	}
	if got := c.counters.Hits.Load(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := c.counters.Misses.Load(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := c.counters.BytesSaved.Load(); got != size {
		t.Fatalf("bytes saved = %d, want %d", got, size)
	}
	if got := c.Bytes(); got != p1.MemBytes() {
		t.Fatalf("resident bytes = %d, want MemBytes %d", got, p1.MemBytes())
	}
}

// The singleflight contract: N concurrent Gets for one key perform exactly
// one disk load, and every caller receives the same partition.
func TestSingleflight(t *testing.T) {
	dir := t.TempDir()
	path, _ := writePartition(t, dir, "p0.clmp", 50)
	c := New(1<<20, Counters{})
	var loads atomic.Int64

	const goroutines = 32
	ps := make([]*storage.Partition, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, _, err := c.Get(path, loader(path, &loads))
			if err != nil {
				t.Error(err)
				return
			}
			ps[g] = p
		}()
	}
	close(start)
	wg.Wait()

	if got := loads.Load(); got != 1 {
		t.Fatalf("loads = %d, want exactly 1 for %d concurrent Gets", got, goroutines)
	}
	for g := 1; g < goroutines; g++ {
		if ps[g] != ps[0] {
			t.Fatalf("goroutine %d received a different partition", g)
		}
	}
	if h, m := c.counters.Hits.Load(), c.counters.Misses.Load(); h != goroutines-1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", h, m, goroutines-1)
	}
}

// Eviction must drop the least recently used partitions first and keep the
// resident volume within budget.
func TestEvictionOrderAndBudget(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 4)
	for i := range paths {
		paths[i], _ = writePartition(t, dir, fmt.Sprintf("p%d.clmp", i), 10)
	}
	c := New(3*memBytesOf(t, paths[0]), Counters{}) // room for exactly three partitions
	var loads atomic.Int64

	for _, p := range paths[:3] {
		if _, _, err := c.Get(p, loader(p, &loads)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch p0 so p1 becomes the LRU entry.
	if _, hit, err := c.Get(paths[0], loader(paths[0], &loads)); err != nil || !hit {
		t.Fatalf("re-Get p0: hit=%v err=%v", hit, err)
	}
	// Loading p3 must evict p1 (LRU), not p0 (recently used) or p2.
	if _, _, err := c.Get(paths[3], loader(paths[3], &loads)); err != nil {
		t.Fatal(err)
	}
	if c.Contains(paths[1]) {
		t.Fatal("LRU partition p1 should have been evicted")
	}
	for _, want := range []string{paths[0], paths[2], paths[3]} {
		if !c.Contains(want) {
			t.Fatalf("%s should be resident", filepath.Base(want))
		}
	}
	if got := c.counters.Evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := c.Bytes(); got > c.Budget() {
		t.Fatalf("resident bytes %d exceed budget %d", got, c.Budget())
	}
	if got, want := c.Keys(), []string{paths[3], paths[0], paths[2]}; len(got) != 3 ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("MRU order = %v, want %v", got, want)
	}
}

// A partition larger than the whole budget must pass through uncached
// rather than flushing the entire cache.
func TestOversizedPartitionNotCached(t *testing.T) {
	dir := t.TempDir()
	small, _ := writePartition(t, dir, "small.clmp", 5)
	big, _ := writePartition(t, dir, "big.clmp", 1000)
	c := New(memBytesOf(t, small)+1, Counters{})
	var loads atomic.Int64

	if _, _, err := c.Get(small, loader(small, &loads)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(big, loader(big, &loads)); err != nil {
		t.Fatal(err)
	}
	if c.Contains(big) {
		t.Fatal("oversized partition must not be cached")
	}
	if !c.Contains(small) {
		t.Fatal("oversized load must not evict fitting entries")
	}
}

func TestInvalidate(t *testing.T) {
	dir := t.TempDir()
	path, _ := writePartition(t, dir, "p0.clmp", 10)
	c := New(1<<20, Counters{})
	var loads atomic.Int64

	if _, _, err := c.Get(path, loader(path, &loads)); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(path)
	if c.Contains(path) {
		t.Fatal("Invalidate must drop the entry")
	}
	if c.Bytes() != 0 {
		t.Fatalf("resident bytes = %d after invalidate, want 0", c.Bytes())
	}
	if _, hit, err := c.Get(path, loader(path, &loads)); err != nil || hit {
		t.Fatalf("Get after invalidate: hit=%v err=%v, want fresh load", hit, err)
	}
	if got := loads.Load(); got != 2 {
		t.Fatalf("loads = %d, want 2 (reload after invalidate)", got)
	}
}

// Invalidate racing an in-flight load must prevent the (possibly stale)
// loaded partition from entering the cache: a writer that replaces the
// file between the load's read and its insert would otherwise pin
// pre-write contents for every later query.
func TestInvalidateDuringInflightLoadNotCached(t *testing.T) {
	dir := t.TempDir()
	path, _ := writePartition(t, dir, "p0.clmp", 10)
	c := New(1<<20, Counters{})

	loading := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(path, func() (*storage.Partition, error) {
			close(loading)
			<-release // the "file rewrite + Invalidate" happens now
			return storage.LoadPartition(path)
		})
		done <- err
	}()
	<-loading
	c.Invalidate(path)
	// A Get issued after the invalidation must not coalesce onto the
	// stale flight: it performs its own fresh load and caches it.
	var loads atomic.Int64
	fresh, hit, err := c.Get(path, loader(path, &loads))
	if err != nil || hit {
		t.Fatalf("post-invalidate Get: hit=%v err=%v, want fresh miss", hit, err)
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("post-invalidate Get performed %d loads, want its own 1", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The stale flight's result must neither displace the fresh entry nor
	// have been cached itself.
	if !c.Contains(path) {
		t.Fatal("fresh post-invalidate load should stay cached")
	}
	p, hit, err := c.Get(path, loader(path, &loads))
	if err != nil || !hit {
		t.Fatalf("Get after settle: hit=%v err=%v", hit, err)
	}
	if p != fresh {
		t.Fatal("cached entry is not the fresh post-invalidate load")
	}
}

func TestLoadErrorNotCached(t *testing.T) {
	c := New(1<<20, Counters{})
	wantErr := fmt.Errorf("boom")
	_, _, err := c.Get("missing", func() (*storage.Partition, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if c.Len() != 0 {
		t.Fatal("failed load must not be cached")
	}
	// The key must not be poisoned: a later Get retries the load.
	dir := t.TempDir()
	path, _ := writePartition(t, dir, "p0.clmp", 3)
	var loads atomic.Int64
	if _, _, err := c.Get(path, func() (*storage.Partition, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("first Get err = %v, want %v", err, wantErr)
	}
	if _, hit, err := c.Get(path, loader(path, &loads)); err != nil || hit {
		t.Fatalf("retry after failed load: hit=%v err=%v", hit, err)
	}
}
