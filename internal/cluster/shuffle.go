package cluster

import (
	"fmt"
	"os"
	"sync"

	"climber/internal/storage"
)

// Route is the destination of one record after re-distribution: a physical
// partition and the record cluster (trie node) within it.
type Route struct {
	Partition int
	Cluster   storage.ClusterID
}

// PartitionSet references the physical partition files produced by a
// shuffle, indexed by partition ID. It is also a Source whose blocks are the
// partition files, which is how a reindex reads a built index back.
type PartitionSet struct {
	Paths     []string
	SeriesLen int
	Counts    []int // records per partition
}

// Len returns the number of records across all partitions, per Counts.
func (ps *PartitionSet) Len() int {
	total := 0
	for _, c := range ps.Counts {
		total += c
	}
	return total
}

// Length returns the length of every series.
func (ps *PartitionSet) Length() int { return ps.SeriesLen }

// NumBlocks returns the number of partition files.
func (ps *PartitionSet) NumBlocks() int { return len(ps.Paths) }

// ScanBlock streams every record of partition i through fn.
func (ps *PartitionSet) ScanBlock(i int, fn func(id int, values []float64) error) error {
	p, err := storage.OpenPartition(ps.Paths[i])
	if err != nil {
		return err
	}
	defer p.Close()
	return p.ScanAll(fn)
}

// Dest is where a shuffle puts its partition files: Name-partNNNNN.clmp under
// Root, which is created when missing.
type Dest struct {
	Root string
	Name string
	// Sync makes the output durable before Shuffle returns: every partition
	// file is fsynced, then Root. Step, when set, is told the name of each
	// durability step (the directory creation, each partition file, the
	// directory fsync) just before it runs — the reindex crash matrix. The
	// flush is pooled, so Step is called from several goroutines at once.
	Sync bool
	Step func(step string)
}

func (d Dest) step(name string) {
	if d.Step != nil {
		d.Step(name)
	}
}

// Shuffle re-distributes all of src into physical partitions (paper Figure 6,
// Step 4): workers scan the blocks in parallel, route every record via the
// provided function (which encapsulates signature generation plus group/trie
// navigation), and the records are regrouped into per-partition, per-cluster
// files under dst.
//
// route is invoked concurrently and must be safe for that.
func (c *Cluster) Shuffle(src Source, numPartitions int, dst Dest,
	route func(id int, values []float64) (Route, error)) (*PartitionSet, error) {
	if numPartitions <= 0 {
		return nil, fmt.Errorf("cluster: shuffle needs at least one partition, got %d", numPartitions)
	}
	writers := make([]*storage.PartitionWriter, numPartitions)
	locks := make([]sync.Mutex, numPartitions)
	for i := range writers {
		writers[i] = storage.NewPartitionWriter(src.Length())
	}

	err := c.ScanBlocks(src, nil, func(id int, values []float64) error {
		r, err := route(id, values)
		if err != nil {
			return err
		}
		if r.Partition < 0 || r.Partition >= numPartitions {
			return fmt.Errorf("cluster: record %d routed to invalid partition %d of %d", id, r.Partition, numPartitions)
		}
		locks[r.Partition].Lock()
		err = writers[r.Partition].Append(r.Cluster, id, values)
		locks[r.Partition].Unlock()
		return err
	})
	if err != nil {
		return nil, err
	}
	dst.step("gen-dirs")
	if err := os.MkdirAll(dst.Root, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: create partition dir: %w", err)
	}

	// Flush the partition writers concurrently, bounded by the store's
	// worker pool. Each writer sorts its clusters and records before
	// writing, so the bytes of every partition file are identical to a
	// sequential flush — only the wall-clock changes.
	ps := &PartitionSet{SeriesLen: src.Length(), Paths: make([]string, numPartitions), Counts: make([]int, numPartitions)}
	errs := make([]error, numPartitions)
	sem := make(chan struct{}, c.workers)
	var wg sync.WaitGroup
	for i, w := range writers {
		path := PartitionPath(dst.Root, dst.Name, i)
		ps.Paths[i] = path
		ps.Counts[i] = w.Count()
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			dst.step(fmt.Sprintf("partition-%05d", i))
			if errs[i] = w.Flush(path); errs[i] == nil && dst.Sync {
				errs[i] = storage.SyncPath(path)
			}
		}()
	}
	wg.Wait()
	// The first error by partition order is the one returned, which keeps
	// the failure deterministic regardless of flush scheduling.
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}
	if err == nil && dst.Sync {
		// The partition files must be findable, not only durable, before
		// anything that references them is written.
		dst.step("gen-dir-sync")
		err = storage.SyncPath(dst.Root)
	}
	if err != nil {
		// A failed shuffle must not leave partial output behind: remove
		// every partition file this shuffle wrote, the successfully
		// flushed ones included (paths that never materialised are fine
		// to miss).
		for _, p := range ps.Paths {
			_ = os.Remove(p)
		}
		return nil, err
	}
	return ps, nil
}

// PartitionHandle is a reader's reference to one open partition. Without a
// partition cache it owns a file-backed partition and Close releases the
// file, exactly as before; with the cache enabled it holds one reference to
// a shared resident partition — Close returns that reference, and the
// partition normally stays resident for the next query. If the cache
// dropped the partition (eviction, invalidation) while this handle was
// scanning, the handle's reference is what kept the bytes — including a
// memory mapping — alive, and Close is where they are finally freed.
type PartitionHandle struct {
	*storage.Partition
	cached bool
	hit    bool
}

// Close releases the handle's partition reference. For cached handles the
// shared partition usually stays resident (the cache holds its own
// reference); uncached handles tear down their private partition.
func (h *PartitionHandle) Close() error {
	return h.Partition.Release()
}

// Cached reports whether the handle aliases the shared partition cache.
func (h *PartitionHandle) Cached() bool { return h.cached }

// CacheHit reports whether opening this handle was served without a disk
// load (false whenever the cache is disabled).
func (h *PartitionHandle) CacheHit() bool { return h.hit }

// OpenPartition opens one physical partition for reading and accounts for
// the load in the store's statistics (the dominant query-time cost in the
// paper is "the number of partitions touched"). When a partition cache is
// enabled, the load is served from — and retained in — the shared cache:
// concurrent opens of the same partition trigger exactly one disk read, and
// only real disk loads are charged to PartitionsLoaded.
func (c *Cluster) OpenPartition(ps *PartitionSet, id int) (*PartitionHandle, error) {
	path := ps.Paths[id]
	pc := c.pcache.Load()
	if pc == nil {
		p, err := storage.OpenPartition(path)
		if err != nil {
			return nil, err
		}
		c.Stats.PartitionsLoaded.Add(1)
		return &PartitionHandle{Partition: p}, nil
	}
	p, hit, err := pc.Get(path, func() (*storage.Partition, error) {
		p, err := c.loadResident(path)
		if err != nil {
			return nil, err
		}
		c.Stats.PartitionsLoaded.Add(1)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return &PartitionHandle{Partition: p, cached: true, hit: hit}, nil
}

// loadResident brings one partition file into memory for the cache: a
// read-only memory mapping when mmap is enabled and the platform supports
// it, a heap copy otherwise. A mapping failure (filesystem without mmap
// support, exhausted vm.max_map_count, …) degrades to the heap copy rather
// than failing the query — the two are interchangeable behind the Partition
// API.
func (c *Cluster) loadResident(path string) (*storage.Partition, error) {
	if c.mmap.Load() && storage.MapSupported() {
		if p, err := storage.MapPartition(path); err == nil {
			return p, nil
		}
	}
	return storage.LoadPartition(path)
}
