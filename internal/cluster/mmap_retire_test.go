package cluster

import (
	"sync"
	"testing"

	"climber/internal/dataset"
	"climber/internal/storage"
)

// buildPartitions shuffles a small dataset into partitions on a fresh
// cluster, whose opens share one registered mapping per file (or load heap
// copies of their own while storage.FailMappings is in force).
func buildPartitions(t *testing.T, n int) (*Cluster, *PartitionSet) {
	t.Helper()
	c := testCluster(t)
	ds := dataset.RandomWalk(32, n, 11)
	bs := Blocks(ds, n/3+1)
	ps, err := c.Shuffle(bs, 2, Dest{Root: c.Dir(), Name: "rw"}, routesOf(bs, func(id int) Route {
		return Route{Partition: id % 2, Cluster: storage.ClusterID(id % 3)}
	}))
	if err != nil {
		t.Fatal(err)
	}
	return c, ps
}

// clusterIDsOf lists every cluster ID in a partition, directory order.
func clusterIDsOf(p *storage.Partition) []storage.ClusterID {
	cis := p.Clusters()
	ids := make([]storage.ClusterID, len(cis))
	for i, ci := range cis {
		ids[i] = ci.ID
	}
	return ids
}

// TestRetireUnmapsOnlyAfterLastHandleDrains is the reindex-shaped unmap
// ordering check: when a generation is retired, the swap path invalidates
// every mapping under the old generation's directory while queries
// pinned to that generation may still hold open handles. The invalidation
// must not unmap under those readers — the mapping may only go away when the
// last handle closes.
func TestRetireUnmapsOnlyAfterLastHandleDrains(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	c, ps := buildPartitions(t, 120)

	h, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mapped() {
		t.Fatal("open did not memory-map the partition")
	}

	// Second concurrent reader of the same mapping, as a second in-flight
	// query against the retiring generation would hold.
	h2, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Partition != h.Partition {
		t.Fatal("the registry returned distinct partitions for one path")
	}

	// Retire the generation: drop every mapping under its root, exactly
	// what the reindex swap does before deleting the directory.
	c.InvalidatePartitionPrefix(c.dir)
	if got := c.MappedBytes(); got != 0 {
		t.Fatalf("the registry still holds %d mapped bytes after retire", got)
	}

	// Both readers must still be able to scan the full mapping.
	for _, rd := range []*PartitionHandle{h, h2} {
		seen := 0
		err := rd.ScanClustersRaw(clusterIDsOf(rd.Partition), func(id int, rec []byte) error {
			seen++
			_ = rec[len(rec)-1] // touch the far end of the mapped record
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != rd.Count() {
			t.Fatalf("scanned %d of %d records after retire", seen, rd.Count())
		}
	}

	// First close: the other handle still pins the mapping.
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	if !h.InMemory() || !h.Mapped() {
		t.Fatal("mapping torn down while a handle was still open")
	}
	// Last close drains the partition: now it unmaps.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if h.Partition.InMemory() {
		t.Fatal("partition still resident after the last handle closed")
	}
}

// TestRetireDuringConcurrentScans runs the same ordering under -race with
// scans in flight while the invalidation lands, over mappings and over the
// recycled heap buffers a failed mapping falls back to.
func TestRetireDuringConcurrentScans(t *testing.T) {
	for _, backing := range []string{"mmap", "heap"} {
		t.Run(backing, func(t *testing.T) {
			if backing == "mmap" && !storage.MapSupported() {
				t.Skip("mmap unsupported on this platform")
			}
			if backing == "heap" {
				defer storage.FailMappings()()
			}
			retireDuringScans(t)
		})
	}
}

func retireDuringScans(t *testing.T) {
	c, ps := buildPartitions(t, 200)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			<-start
			for iter := 0; iter < 30; iter++ {
				h, err := c.OpenPartition(ps, pid%len(ps.Paths))
				if err != nil {
					errs <- err
					return
				}
				err = h.ScanClustersRaw(clusterIDsOf(h.Partition), func(id int, rec []byte) error {
					_ = rec[len(rec)-1]
					return nil
				})
				if cerr := h.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			for len(errs) > 0 {
				t.Error(<-errs)
			}
			return
		case err := <-errs:
			t.Fatal(err)
		default:
			c.InvalidatePartitionPrefix(c.dir)
		}
	}
}

// An invalidation that lands between a miss's mapping and its registration
// may be a writer's, and the file mapped the one it replaced: the mapping
// serves that open alone and is never registered, so the next open maps the
// file again and sees the new contents. After Close nothing is registered.
func TestStaleMappingNotRegistered(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	c := testCluster(t)
	path := PartitionPath(c.Dir(), "stale", 0)
	write := func(n int) {
		t.Helper()
		if _, _, err := storage.MergePartitions(path, 3, nil, tailRecords(0, n), nil); err != nil {
			t.Fatal(err)
		}
	}
	write(8)
	ps := &PartitionSet{Paths: []string{path}, SeriesLen: 3, Counts: []int{8}}
	c.beforeRegister = func(string) {
		c.beforeRegister = nil
		write(12)
		c.InvalidatePartition(path)
		ps.SetLayout(0, 12, 0)
	}
	old, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if old.Count() != 8 || !old.Mapped() {
		t.Fatalf("first open: %d records, mapped %v; want the old 8, mapped", old.Count(), old.Mapped())
	}
	if got := c.MappedBytes(); got != 0 {
		t.Fatalf("a mapping overtaken by an invalidation was registered: %d bytes", got)
	}

	fresh, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Count() != 12 || c.Stats.PartitionsLoaded.Load() != 2 {
		t.Fatalf("second open: %d records after %d loads; want the new 12, mapped again", fresh.Count(), c.Stats.PartitionsLoaded.Load())
	}
	if got, want := c.MappedBytes(), fresh.SizeBytes(); got != want {
		t.Fatalf("registry holds %d bytes, want the new file's %d", got, want)
	}
	again, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Partition != fresh.Partition || c.Stats.PartitionCacheHits.Load() != 1 {
		t.Fatal("third open did not hit the registered mapping")
	}
	if got := c.Stats.PartitionsLoaded.Load(); got != 2 {
		t.Fatalf("PartitionsLoaded = %d, want 2", got)
	}

	// The unregistered mapping is this handle's alone: it still reads, and
	// its Close unmaps it.
	if seen := countRecords(t, old); seen != 8 {
		t.Fatalf("the old mapping streams %d records", seen)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if old.Partition.InMemory() {
		t.Fatal("closing the only handle on an unregistered mapping left it mapped")
	}

	// Close drops the registry's reference; the handles keep theirs, and an
	// open after Close maps for itself.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.MappedBytes(); got != 0 {
		t.Fatalf("Close left %d bytes registered", got)
	}
	if seen := countRecords(t, fresh); seen != 12 {
		t.Fatalf("a handle open across Close streams %d records", seen)
	}
	late, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if late.Partition == fresh.Partition || c.Stats.PartitionsLoaded.Load() != 3 || c.MappedBytes() != 0 {
		t.Fatalf("open after Close: shared %v after %d loads, %d bytes registered",
			late.Partition == fresh.Partition, c.Stats.PartitionsLoaded.Load(), c.MappedBytes())
	}
	for _, h := range []*PartitionHandle{fresh, again, late} {
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.Partition.InMemory() || late.Partition.InMemory() {
		t.Fatal("a mapping outlived its last handle after Close")
	}
}

// Two first opens of one file both map it; the one that registers second
// shares the first's mapping and unmaps its own.
func TestRacingFirstOpensShareOneMapping(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	c, ps := buildPartitions(t, 60)
	var first *PartitionHandle
	c.beforeRegister = func(string) {
		c.beforeRegister = nil
		var err error
		if first, err = c.OpenPartition(ps, 0); err != nil {
			t.Fatal(err)
		}
	}
	second, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Partition != first.Partition || c.Stats.PartitionCacheMisses.Load() != 2 {
		t.Fatalf("shared %v after %d misses; want one mapping, two misses", second.Partition == first.Partition, c.Stats.PartitionCacheMisses.Load())
	}
	if got := c.Stats.PartitionsLoaded.Load(); got != 2 {
		t.Fatalf("PartitionsLoaded = %d, want both maps counted", got)
	}
	if got, want := c.MappedBytes(), first.SizeBytes(); got != want {
		t.Fatalf("registry holds %d bytes, want one file's %d", got, want)
	}
	if seen := countRecords(t, second); seen != second.Count() {
		t.Fatalf("the shared mapping streams %d of %d records", seen, second.Count())
	}
	first.Close()
	second.Close()
	if !second.Partition.InMemory() {
		t.Fatal("closing the handles unmapped the registered mapping")
	}
}

// countRecords streams every record of h and returns how many it saw.
func countRecords(t *testing.T, h *PartitionHandle) int {
	t.Helper()
	seen := 0
	err := h.ScanAll(func(int, []float64) error {
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seen
}
