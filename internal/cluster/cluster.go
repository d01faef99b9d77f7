// Package cluster is the partition store of one CLIMBER process: a single
// directory of partition files, the shared partition cache in front of it,
// and the build-time primitives that fill it. Distribution across machines
// is internal/shard's job; this package never sees more than one directory.
//
// The build side keeps the shape of the paper's pipeline (Section V,
// Figure 6) because the construction algorithms are written against it:
//
//   - IngestBlocks stages the raw dataset as capacity-bounded block files —
//     the input format of core.Build and of the tardis/dpisax/dss baselines.
//     Reading records back from blocks is what makes the stored float32
//     values, not the caller's float64s, the ones an index is built from.
//   - SampleBlocks selects whole random blocks, so skeleton construction
//     avoids a full scan (partition-level sampling).
//   - ScanBlocks streams blocks through a callback on a pool of workers.
//   - Shuffle routes every record to a (partition, cluster) and writes the
//     final partition files (Figure 6, Step 4).
//
// The query side is OpenPartition: a refcounted handle on one partition,
// served from the cache (decoded or memory-mapped) when one is enabled.
//
// The store creates its directory only when a writer is about to put a file
// in it; opening and reading never touch the filesystem's metadata.
package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"climber/internal/pcache"
	"climber/internal/series"
	"climber/internal/storage"
)

// Stats is the store's read-side accounting. All fields are updated
// atomically and safe to read concurrently.
type Stats struct {
	// PartitionsLoaded counts real partition disk loads — the paper's
	// dominant query-time cost.
	PartitionsLoaded atomic.Int64

	// Partition-cache accounting (all zero while the cache is disabled).
	// PartitionsLoaded counts only real disk loads, so the hit counters
	// here explain the gap between partition opens and partition loads.
	PartitionCacheHits       atomic.Int64
	PartitionCacheMisses     atomic.Int64
	PartitionCacheEvictions  atomic.Int64
	PartitionCacheBytesSaved atomic.Int64
}

// Cluster is one partition store. It is safe for concurrent use.
type Cluster struct {
	dir     string
	workers int
	Stats   Stats

	// pcache, when set, serves OpenPartition from shared in-memory
	// partitions instead of per-query file opens.
	pcache atomic.Pointer[pcache.Cache]

	// mmap, when set, makes cached partition loads memory-map the file
	// instead of copying it onto the heap (falling back to the copy when
	// the platform or filesystem cannot map).
	mmap atomic.Bool
}

// New returns the store rooted at dir. workers bounds the goroutines of
// ScanBlocks and of Shuffle's flush; 0 or less uses every available core.
// Nothing is created on disk until IngestBlocks or Shuffle writes a file.
func New(dir string, workers int) *Cluster {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Cluster{dir: dir, workers: workers}
}

// PartitionPath returns the file of partition pid under root: the store's
// own directory for the build-time shuffle, a gen-NNNN root for reindex.
//
//climber:genpath
func PartitionPath(root, name string, pid int) string {
	return filepath.Join(root, fmt.Sprintf("%s-part%05d.clmp", name, pid))
}

// blockPath returns the file of raw-dataset block idx under dir.
//
//climber:genpath
func blockPath(dir, name string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-block%05d.clmb", name, idx))
}

// EnablePartitionCache installs a shared partition cache of at most budget
// bytes under OpenPartition; budget <= 0 disables caching again. Queries
// already holding partition handles are unaffected either way. With the
// cache enabled, OpenPartition hands out shared in-memory partitions:
// Stats.PartitionsLoaded then charges only real disk loads, while
// hits/misses/evictions/bytes-saved are tracked in the PartitionCache*
// counters.
func (c *Cluster) EnablePartitionCache(budget int64) {
	if budget <= 0 {
		c.pcache.Store(nil)
		return
	}
	c.pcache.Store(pcache.New(budget, pcache.Counters{
		Hits:       &c.Stats.PartitionCacheHits,
		Misses:     &c.Stats.PartitionCacheMisses,
		Evictions:  &c.Stats.PartitionCacheEvictions,
		BytesSaved: &c.Stats.PartitionCacheBytesSaved,
	}))
}

// PartitionCache returns the installed cache, or nil when caching is off.
func (c *Cluster) PartitionCache() *pcache.Cache { return c.pcache.Load() }

// EnableMmap switches cached partition loads between memory mapping (the
// zero-copy read path) and heap copies. It affects future loads only;
// already-resident partitions keep their current backing until evicted or
// invalidated.
func (c *Cluster) EnableMmap(on bool) { c.mmap.Store(on) }

// MmapEnabled reports whether cached partition loads memory-map.
func (c *Cluster) MmapEnabled() bool { return c.mmap.Load() }

// CacheResidentBytes returns the partition cache's resident byte volume and
// the memory-mapped share of it; both are zero while the cache is disabled.
func (c *Cluster) CacheResidentBytes() (resident, mapped int64) {
	pc := c.pcache.Load()
	if pc == nil {
		return 0, 0
	}
	return pc.Bytes(), pc.MappedBytes()
}

// Close releases the store's resources: the partition cache (if enabled)
// is purged and uninstalled, dropping every resident partition. The store
// holds no other live resources — partition and block files are opened per
// operation — so Close is cheap, idempotent, and safe to call while
// stragglers finish (they fall back to uncached file opens). The on-disk
// layout is untouched and the store can keep serving afterwards, so
// callers that want "closed" semantics enforce them a level up (DB.Close).
func (c *Cluster) Close() error {
	if pc := c.pcache.Swap(nil); pc != nil {
		pc.Purge()
	}
	return nil
}

// InvalidatePartition drops a partition file's cache entry, if the cache is
// enabled and holds one. Writers that replace a partition file must call
// this so subsequent queries observe the new contents.
func (c *Cluster) InvalidatePartition(path string) {
	if pc := c.pcache.Load(); pc != nil {
		pc.Invalidate(path)
	}
}

// InvalidatePartitionPrefix drops every cached partition whose file path
// starts with prefix — the whole-directory form of InvalidatePartition,
// used when a retired index generation's files are deleted after its last
// reader drains.
func (c *Cluster) InvalidatePartitionPrefix(prefix string) {
	if pc := c.pcache.Load(); pc != nil {
		pc.InvalidatePrefix(prefix)
	}
}

// BlockSet references the raw dataset staged as block files in the store's
// directory.
type BlockSet struct {
	Paths     []string
	SeriesLen int
	Total     int // total records across all blocks
}

// Remove deletes the block files. Blocks are build input, not part of an
// index: a caller that staged them only to build removes them afterwards.
func (bs *BlockSet) Remove() {
	for _, p := range bs.Paths {
		_ = os.Remove(p) // best-effort: a leftover block costs disk, never correctness
	}
}

// IngestBlocks writes the dataset into block files of at most blockSize
// records — the layout the paper assumes for its partition-level sampling
// ("the original dataset in most applications gets stored across partitions
// without any special or custom organization"). A failed ingest removes the
// blocks it already wrote.
func (c *Cluster) IngestBlocks(ds *series.Dataset, blockSize int, name string) (_ *BlockSet, err error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("cluster: block size must be positive, got %d", blockSize)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: create store dir: %w", err)
	}
	bs := &BlockSet{SeriesLen: ds.Length(), Total: ds.Len()}
	defer func() {
		if err != nil {
			bs.Remove()
		}
	}()
	for lo := 0; lo < ds.Len(); lo += blockSize {
		hi := min(lo+blockSize, ds.Len())
		path := blockPath(c.dir, name, len(bs.Paths))
		bs.Paths = append(bs.Paths, path)
		bw, err := storage.NewBlockWriter(path, ds.Length())
		if err != nil {
			return nil, err
		}
		for id := lo; id < hi; id++ {
			if err := bw.Append(id, ds.Get(id)); err != nil {
				bw.Close()
				return nil, err
			}
		}
		if err := bw.Close(); err != nil {
			return nil, err
		}
	}
	return bs, nil
}

// SampleBlocks selects whole blocks uniformly at random so that roughly
// rate × Total records are covered, never fewer than one block. This is the
// paper's partition-level sampling (Section V): a subset of data partitions
// is read in full, avoiding a scatter-read of individual records.
func (c *Cluster) SampleBlocks(bs *BlockSet, rate float64, rng *rand.Rand) []string {
	if rate >= 1 {
		out := make([]string, len(bs.Paths))
		copy(out, bs.Paths)
		return out
	}
	n := int(float64(len(bs.Paths))*rate + 0.5)
	if n < 1 {
		n = 1
	}
	perm := rng.Perm(len(bs.Paths))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = bs.Paths[perm[i]]
	}
	return out
}

// errScanAborted marks a worker that stopped because a peer already failed.
// It is internal to ScanBlocks and never escapes it.
var errScanAborted = errors.New("cluster: scan aborted after peer failure")

// ScanBlocks streams every record of the listed blocks through fn using the
// store's worker pool. fn is invoked concurrently from multiple workers
// and must be safe for that; the values slice is only valid during the
// call. The scan fails fast: the first error raises a stop flag, and every
// other worker abandons its current block at the next record instead of
// scanning the remaining dataset for an answer that will be thrown away.
// The error returned is the first one raised.
func (c *Cluster) ScanBlocks(paths []string, fn func(id int, values []float64) error) error {
	work := make(chan string, len(paths))
	for _, p := range paths {
		work <- p
	}
	close(work)

	var (
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	// scan wraps fn with the stop check so a peer's failure interrupts even
	// a worker deep inside a large block, not just between blocks.
	scan := func(id int, values []float64) error {
		if stop.Load() {
			return errScanAborted
		}
		return fn(id, values)
	}

	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range work {
				if stop.Load() {
					return
				}
				if err := storage.ScanBlock(path, scan); err != nil {
					if err != errScanAborted {
						fail(err)
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
