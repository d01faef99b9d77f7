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
	ps, err := c.Shuffle(bs, 2, Dest{Name: "rw"}, routesOf(bs, func(id int) Route {
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

// TestRetireUnmapsOnlyAfterLastHandleDrains is the unmap ordering check:
// when a view's files are retired, handles opened on them may still be held
// (here, two). The retirement must not unmap under those readers — the
// mapping may only go away when the last handle closes.
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

	// Retire the view: drop the mapping of every file it names, exactly
	// what a swap does once no reader holds the view, before removing them.
	c.Retire(ps.Files()...)
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
// scans in flight while retirements land, over mappings and over the
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
			c.Retire(ps.Files()...)
		}
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

// Close drops the registry's reference and the handles keep theirs: a handle
// held across Close still streams, and an open after Close maps the file for
// itself, registers nothing, and unmaps it with its last handle.
func TestOpenAfterCloseMapsForItself(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	c, ps := buildPartitions(t, 60)
	held, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.MappedBytes(); got != 0 {
		t.Fatalf("Close left %d bytes registered", got)
	}
	if seen := countRecords(t, held); seen != held.Count() {
		t.Fatalf("a handle held across Close streams %d of %d records", seen, held.Count())
	}
	loaded := c.Stats.PartitionsLoaded.Load()
	late, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if late.Partition == held.Partition || !late.Mapped() || c.Stats.PartitionsLoaded.Load() != loaded+1 {
		t.Fatalf("open after Close: shared %v, mapped %v, %d loads after %d",
			late.Partition == held.Partition, late.Mapped(), c.Stats.PartitionsLoaded.Load(), loaded)
	}
	if got := c.MappedBytes(); got != 0 {
		t.Fatalf("an open after Close registered %d bytes", got)
	}
	if seen := countRecords(t, late); seen != late.Count() {
		t.Fatalf("the open after Close streams %d of %d records", seen, late.Count())
	}
	for _, h := range []*PartitionHandle{held, late} {
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if held.Partition.InMemory() || late.Partition.InMemory() {
		t.Fatal("a mapping outlived its last handle after Close")
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
