package cluster

import (
	"sync"
	"testing"

	"climber/internal/dataset"
	"climber/internal/storage"
)

// buildCachedPartitions shuffles a small dataset into partitions on a
// cluster with the cache enabled, so opens serve shared memory-mapped
// partitions (heap copies while storage.FailMappings is in force).
func buildCachedPartitions(t *testing.T, n int) (*Cluster, *PartitionSet) {
	t.Helper()
	c := testCluster(t)
	c.EnablePartitionCache(1 << 30)
	ds := dataset.RandomWalk(32, n, 11)
	bs := Blocks(ds, n/3+1)
	ps, err := c.Shuffle(bs, 2, Dest{Root: c.Dir(), Name: "rw"}, func(id int, values []float64) (Route, error) {
		return Route{Partition: id % 2, Cluster: storage.ClusterID(id % 3)}, nil
	})
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
// every cached partition under the old generation's directory while queries
// pinned to that generation may still hold open handles. The invalidation
// must not unmap under those readers — the mapping may only go away when the
// last handle closes.
func TestRetireUnmapsOnlyAfterLastHandleDrains(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	c, ps := buildCachedPartitions(t, 120)

	h, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mapped() {
		t.Fatal("cached open did not memory-map the partition")
	}

	// Second concurrent reader of the same mapping, as a second in-flight
	// query against the retiring generation would hold.
	h2, err := c.OpenPartition(ps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Partition != h.Partition {
		t.Fatal("cache returned distinct partitions for one path")
	}

	// Retire the generation: drop every cached partition under its root,
	// exactly what the reindex swap does before deleting the directory.
	c.InvalidatePartitionPrefix(c.dir)
	if got, mapped := c.CacheResidentBytes(); got != 0 || mapped != 0 {
		t.Fatalf("cache still charges %d resident / %d mapped bytes after retire", got, mapped)
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
	c, ps := buildCachedPartitions(t, 200)

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
