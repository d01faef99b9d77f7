package cluster

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"

	"climber/internal/storage"
)

// Route is the destination of one record after re-distribution: a physical
// partition and the record cluster (trie node) within it.
type Route struct {
	Partition int
	Cluster   storage.ClusterID
}

// PartitionSet is one view of the physical partition files, indexed by
// partition ID. It is also a Source whose blocks are the partition files,
// which is how a reindex reads a built index back.
//
// A partition is a base file (Paths) and, once records were appended to it,
// at most one tail (TailPaths): a drain writes the small tail and only now and
// then folds it into the base. A file never changes under its name — a drain
// writes new files under new names and a new set that lists them — so a set
// is immutable once published and readers share it without a lock.
type PartitionSet struct {
	Paths     []string
	SeriesLen int
	// Counts holds the records per partition, base and tail together.
	Counts []int
	// Tails holds how many of Counts sit in each partition's tail file, and
	// TailPaths names that file ("" for none); both may be nil when no
	// partition has a tail.
	Tails     []int
	TailPaths []string
}

// Len returns the number of records across all partitions, per Counts.
func (ps *PartitionSet) Len() int {
	total := 0
	for _, c := range ps.Counts {
		total += c
	}
	return total
}

// Tail returns partition pid's tail file and the records in it: "" and 0
// when it has none.
func (ps *PartitionSet) Tail(pid int) (path string, records int) {
	if ps.Tails == nil {
		return "", 0
	}
	return ps.TailPaths[pid], ps.Tails[pid]
}

// Clone returns a copy of the set that the caller may change, its tail
// slices allocated even when ps has no tail: the start of the next view.
func (ps *PartitionSet) Clone() *PartitionSet {
	c := &PartitionSet{Paths: slices.Clone(ps.Paths), SeriesLen: ps.SeriesLen, Counts: slices.Clone(ps.Counts),
		Tails: make([]int, len(ps.Paths)), TailPaths: make([]string, len(ps.Paths))}
	copy(c.Tails, ps.Tails)
	copy(c.TailPaths, ps.TailPaths)
	return c
}

// Files returns every file the set names, bases then tails.
func (ps *PartitionSet) Files() []string {
	files := slices.Clone(ps.Paths)
	for _, t := range ps.TailPaths {
		if t != "" {
			files = append(files, t)
		}
	}
	return files
}

// Length returns the length of every series.
func (ps *PartitionSet) Length() int { return ps.SeriesLen }

// NumBlocks returns the number of partition files.
func (ps *PartitionSet) NumBlocks() int { return len(ps.Paths) }

// ScanBlock streams every record of partition i's base file through fn. A
// set read as a build source has had its tails folded (core.Index.Drain); one
// that has not is refused rather than read short.
func (ps *PartitionSet) ScanBlock(i int, fn func(id int, values []float64) error) error {
	if _, tail := ps.Tail(i); tail > 0 {
		return fmt.Errorf("cluster: partition %d still has %d records in a tail", i, tail)
	}
	p, err := storage.OpenPartition(ps.Paths[i])
	if err != nil {
		return err
	}
	defer p.Close()
	return p.ScanAll(fn)
}

// Dest names the partition files a shuffle writes into the store's
// directory, Name-partNNNNN.clmp, which is created when missing.
type Dest struct {
	Name string
	// Sync makes the output durable before Shuffle returns: every partition
	// file is fsynced, then the directory. Step, when set, is told the name of
	// each durability step (the directory creation, each partition file, the
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

// Unrouted is the route of an ID below the ID bound that a shuffle's source
// does not hold — a reindex's source lacks the appended records its delta
// still holds, for one.
var Unrouted = Route{Partition: -1}

// Convert routes every record of src (paper Figure 6, Step 4, the
// conversion): route is called on the store's workers, concurrently, and its
// result for record id lands in routes[id] — Shuffle's input. idBound must be
// above every ID of src; an ID below it that src does not hold keeps the
// route Unrouted.
func (c *Cluster) Convert(src Source, idBound int, route func(values []float64) Route) ([]Route, error) {
	routes := make([]Route, idBound)
	for i := range routes {
		routes[i] = Unrouted
	}
	err := c.ScanBlocks(src, nil, func(id int, values []float64) error {
		if id < 0 || id >= len(routes) {
			return fmt.Errorf("record ID %d is not below the ID bound %d", id, len(routes))
		}
		routes[id] = route(values)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return routes, nil
}

// Shuffle re-distributes all of src into physical partitions (paper Figure 6,
// Step 4) under dst, record id to routes[id] — the conversion's output: the
// signature and group/trie navigation of every record. An ID src does not
// hold has the route Unrouted.
//
// It is a counting sort, and it writes each record once. The routes give
// every partition's directory — how many records each of its clusters holds
// — and every ID its final slot in its partition's file, in canonical order
// (clusters ascending, IDs ascending within a cluster). Workers then scan
// src in parallel and encode each record straight into its slot of its
// partition's storage.Layout (no copy, no lock, no sort), and the layouts
// are written, bounded by the store's worker pool. So every file holds the
// bytes storage.MergePartitions writes of its records — whatever the
// scheduling or the cut of src into blocks — and a partition no record
// routes to is an empty file. The index is held in memory once, encoded,
// until its files are written.
//
// A record that is not finite in float32 fails the shuffle: the error
// returned names the first such record in partition order, then file order,
// and nothing is written. On any failure no partition file is left behind.
func (c *Cluster) Shuffle(src Source, numPartitions int, dst Dest, routes []Route) (*PartitionSet, error) {
	if numPartitions <= 0 {
		return nil, fmt.Errorf("cluster: shuffle needs at least one partition, got %d", numPartitions)
	}
	seriesLen := src.Length()
	layouts, slots, err := layOut(seriesLen, numPartitions, routes)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, l := range layouts {
			l.Release()
		}
	}()

	// A record refused by the encoder does not stop the scan: of all the
	// refusals, the one returned is the first by partition, then by slot,
	// whatever the workers' order.
	var (
		mu      sync.Mutex
		bad     = -1
		badSlot int32
		refusal error
	)
	err = c.ScanBlocks(src, nil, func(id int, values []float64) error {
		if id < 0 || id >= len(routes) || routes[id].Partition < 0 {
			return fmt.Errorf("cluster: record %d has no route", id)
		}
		pid, slot := routes[id].Partition, slots[id]
		if err := layouts[pid].Put(int(slot), id, values); err != nil {
			mu.Lock()
			if bad < 0 || pid < bad || (pid == bad && slot < badSlot) {
				bad, badSlot, refusal = pid, slot, err
			}
			mu.Unlock()
		}
		return nil
	})
	if err == nil {
		err = refusal
	}
	if err != nil {
		return nil, err
	}
	dst.step("gen-dirs")
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: create partition dir: %w", err)
	}

	ps := &PartitionSet{SeriesLen: seriesLen, Paths: make([]string, numPartitions), Counts: make([]int, numPartitions)}
	errs := make([]error, numPartitions)
	sem := make(chan struct{}, c.workers)
	var wg sync.WaitGroup
	for i, l := range layouts {
		path := PartitionPath(c.dir, dst.Name, i)
		ps.Paths[i] = path
		ps.Counts[i] = l.Len()
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			dst.step(fmt.Sprintf("partition-%05d", i))
			if _, errs[i] = l.Commit(path, nil); errs[i] == nil && dst.Sync {
				errs[i] = storage.SyncPath(path)
			}
			l.Release()
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
		err = storage.SyncPath(c.dir)
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

// layOut is the counting half of Shuffle: from the routes it builds every
// partition's Layout and gives every routed ID its slot in it — the clusters
// of a partition ascending, the IDs of a cluster ascending.
func layOut(seriesLen, numPartitions int, routes []Route) ([]*storage.Layout, []int32, error) {
	// A destination is one (partition, cluster) pair; dest[id] names
	// record id's until it is replaced by the record's slot.
	type destination struct {
		Route
		count, next int
	}
	var dests []destination
	index := make(map[Route]int32)
	dest := make([]int32, len(routes))
	for id, r := range routes {
		if r.Partition < 0 {
			continue
		}
		if r.Partition >= numPartitions {
			return nil, nil, fmt.Errorf("cluster: record %d routed to invalid partition %d of %d", id, r.Partition, numPartitions)
		}
		d, ok := index[r]
		if !ok {
			d = int32(len(dests))
			index[r] = d
			dests = append(dests, destination{Route: r})
		}
		dests[d].count++
		dest[id] = d
	}

	byPartition := make([][]int32, numPartitions)
	for d, dd := range dests {
		byPartition[dd.Partition] = append(byPartition[dd.Partition], int32(d))
	}
	layouts := make([]*storage.Layout, numPartitions)
	for pid, ds := range byPartition {
		slices.SortFunc(ds, func(a, b int32) int { return cmp.Compare(dests[a].Cluster, dests[b].Cluster) })
		dir := make([]storage.ClusterInfo, len(ds))
		next := 0
		for i, d := range ds {
			dir[i] = storage.ClusterInfo{ID: dests[d].Cluster, Count: dests[d].count}
			dests[d].next = next
			next += dests[d].count
		}
		layouts[pid] = storage.NewLayout(seriesLen, dir)
	}
	// IDs ascending: each takes the next slot of its destination.
	for id, r := range routes {
		if r.Partition < 0 {
			continue
		}
		d := &dests[dest[id]]
		dest[id] = int32(d.next)
		d.next++
	}
	return layouts, dest, nil
}

// PartitionHandle is a reader's reference to one open partition: its base
// file and, when it has one, its tail, read as one — Count, Clusters and every
// scan cover the base's records and then the tail's. It holds one reference to
// each file's partition, which is usually the store's registered mapping, and
// Close returns them; the mappings stay registered for the next open. If a
// file was retired while the handle was scanning, the handle's reference is
// what kept its mapping alive, and Close is where it is finally unmapped. A
// heap copy, where mapping failed, belongs to the handle alone.
//
// The embedded Partition is the base file; its promoted methods other than
// the ones redefined here (SeriesLen, Mapped, SizeBytes, Verify, …) speak of
// that file alone.
type PartitionHandle struct {
	*storage.Partition
	tail *storage.Partition // nil when the partition has no tail

	dirOnce sync.Once
	dir     []storage.ClusterInfo // Clusters() of a handle with a tail
}

// Close releases the handle's partition references. A registered mapping
// stays mapped for the next open; one the registry dropped meanwhile, and a
// heap copy, is torn down by the last Release.
func (h *PartitionHandle) Close() error {
	err := h.Partition.Release()
	if h.tail != nil {
		if terr := h.tail.Release(); err == nil {
			err = terr
		}
	}
	return err
}

// Count returns the number of records in the partition, tail included.
func (h *PartitionHandle) Count() int {
	if h.tail == nil {
		return h.Partition.Count()
	}
	return h.Partition.Count() + h.tail.Count()
}

// Clusters returns the partition's directory, sorted by cluster ID: a
// cluster present in both files is listed once with the two counts added.
// The slice is owned by the handle; callers must not modify it.
func (h *PartitionHandle) Clusters() []storage.ClusterInfo {
	if h.tail == nil {
		return h.Partition.Clusters()
	}
	h.dirOnce.Do(func() {
		a, b := h.Partition.Clusters(), h.tail.Clusters()
		h.dir = make([]storage.ClusterInfo, 0, len(a)+len(b))
		for len(a) > 0 || len(b) > 0 {
			switch {
			case len(b) == 0 || (len(a) > 0 && a[0].ID < b[0].ID):
				h.dir = append(h.dir, storage.ClusterInfo{ID: a[0].ID, Count: a[0].Count})
				a = a[1:]
			case len(a) == 0 || b[0].ID < a[0].ID:
				h.dir = append(h.dir, storage.ClusterInfo{ID: b[0].ID, Count: b[0].Count})
				b = b[1:]
			default:
				h.dir = append(h.dir, storage.ClusterInfo{ID: a[0].ID, Count: a[0].Count + b[0].Count})
				a, b = a[1:], b[1:]
			}
		}
	})
	return h.dir
}

// ScanCluster streams the records of one cluster through fn; see
// storage.Partition.ScanCluster.
func (h *PartitionHandle) ScanCluster(id storage.ClusterID, fn func(id int, values []float64) error) error {
	if err := h.Partition.ScanCluster(id, fn); err != nil || h.tail == nil {
		return err
	}
	return h.tail.ScanCluster(id, fn)
}

// ScanClusters streams the records of each listed cluster through fn.
func (h *PartitionHandle) ScanClusters(ids []storage.ClusterID, fn func(id int, values []float64) error) error {
	if err := h.Partition.ScanClusters(ids, fn); err != nil || h.tail == nil {
		return err
	}
	return h.tail.ScanClusters(ids, fn)
}

// ScanAll streams every record of the partition through fn.
func (h *PartitionHandle) ScanAll(fn func(id int, values []float64) error) error {
	if err := h.Partition.ScanAll(fn); err != nil || h.tail == nil {
		return err
	}
	return h.tail.ScanAll(fn)
}

// ScanClustersRaw streams each listed cluster through fn in encoded form.
func (h *PartitionHandle) ScanClustersRaw(ids []storage.ClusterID, fn func(id int, rec []byte) error) error {
	if err := h.Partition.ScanClustersRaw(ids, fn); err != nil || h.tail == nil {
		return err
	}
	return h.tail.ScanClustersRaw(ids, fn)
}

// ScanClusterRuns streams one cluster's records and their summaries through
// fn in runs, under the lifetime rules of storage.Partition.ScanClusterRuns.
func (h *PartitionHandle) ScanClusterRuns(id storage.ClusterID, fn func(recs, sums []byte) error) error {
	if err := h.Partition.ScanClusterRuns(id, fn); err != nil || h.tail == nil {
		return err
	}
	return h.tail.ScanClusterRuns(id, fn)
}

// OpenPartition opens partition id of the view ps for reading and accounts
// for the load in the store's statistics (the dominant query-time cost in the
// paper is "the number of partitions touched"). Each file is mapped at its
// first open and served from the store's registry after that (see openFile),
// so PartitionsLoaded grows with the files touched, not with the opens. The
// view's files never change under their names, so the base and the tail it
// names are read as they are; the caller holds the view, which keeps them
// from being retired while it reads.
func (c *Cluster) OpenPartition(ps *PartitionSet, id int) (*PartitionHandle, error) {
	h := &PartitionHandle{}
	var err error
	if h.Partition, err = c.openFile(ps.Paths[id]); err != nil {
		return nil, err
	}
	if tail, _ := ps.Tail(id); tail != "" {
		if h.tail, err = c.openFile(tail); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// openFile opens one partition file: the registered mapping of path
// when there is one (a hit), else a fresh load (a miss) that is registered
// when it is a mapping. The mapping is made without the registry lock, so two
// first opens of a file may both map it; the second to register releases its
// own and shares the first's. After Close a mapping is not registered and
// serves this open alone. A heap copy never is: unlike clean file pages, heap
// memory is not the kernel's to reclaim. No open races a Retire of its file:
// a file is retired only once no view that names it is held.
func (c *Cluster) openFile(path string) (*storage.Partition, error) {
	c.mu.Lock()
	p := c.mapped[path]
	if p != nil {
		// The registry's reference keeps p alive until the lock drops.
		p.Retain()
	}
	c.mu.Unlock()
	if p != nil {
		c.Stats.PartitionCacheHits.Add(1)
		c.Stats.PartitionCacheBytesSaved.Add(p.SizeBytes())
		return p, nil
	}
	p, err := c.load(path)
	if err != nil {
		return nil, err
	}
	c.Stats.PartitionCacheMisses.Add(1)
	if !p.Mapped() {
		return p, nil
	}
	if c.beforeRegister != nil {
		c.beforeRegister(path)
	}
	c.mu.Lock()
	if c.mapped == nil {
		c.mu.Unlock()
		return p, nil
	}
	if first := c.mapped[path]; first != nil {
		first.Retain()
		c.mu.Unlock()
		_ = p.Release()
		return first, nil
	}
	p.Retain()
	c.mapped[path] = p
	c.mu.Unlock()
	return p, nil
}

// load brings one partition file into memory, the one way the store holds a
// partition: a read-only memory mapping. Where the platform cannot map or the
// mapping fails (a filesystem without mmap support, an exhausted
// vm.max_map_count, …) the file is copied onto the heap instead, counted in
// Stats.MapFallbacks: the two are interchangeable behind the Partition API,
// so the fallback changes what a load costs, never an answer.
func (c *Cluster) load(path string) (*storage.Partition, error) {
	p, err := storage.MapPartition(path)
	if err != nil {
		if p, err = storage.LoadPartition(path); err != nil {
			return nil, err
		}
		c.Stats.MapFallbacks.Add(1)
	}
	c.Stats.PartitionsLoaded.Add(1)
	return p, nil
}
