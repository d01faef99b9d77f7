// Package cluster is the partition store of one CLIMBER process: a single
// directory of partition files, the registry of their mappings, and the
// build-time primitives that fill it. Distribution across machines
// is internal/shard's job; this package never sees more than one directory.
//
// The build side keeps the shape of the paper's pipeline (Section V,
// Figure 6) because the construction algorithms are written against it. It
// reads a Source — records cut into blocks — of which there are two: Blocks
// views a dataset in memory as blocks of consecutive IDs (the input of
// core.Build and of the tardis/dpisax/dss baselines; readings come out
// rounded to float32, the values an index stores), and a PartitionSet reads
// the partition files of a built index back (the input of a reindex).
//
//   - SampleBlocks selects whole random blocks, so skeleton construction
//     avoids a full scan (partition-level sampling).
//   - ScanBlocks streams blocks through a callback on a pool of workers, and
//     SampleDataset collects what such a scan keeps, in ID order.
//   - Convert routes every record to a (partition, cluster), and Shuffle
//     writes the final partition files from those routes (Figure 6, Step 4)
//     under a Dest.
//
// The query side is OpenPartition: a refcounted handle on one partition of a
// view (a PartitionSet), a read-only memory mapping of its files (a heap copy
// where mapping fails). A file never changes under its name: a drain writes
// new files and a new view naming them (internal/core), and a file no view
// names any more is retired (Retire) once the last reader of a view naming it
// is gone. So each file is mapped once, at its first open, and stays mapped
// in the store's registry until it is retired or the store closes. A
// partition that took appends is two files — the base the build or a fold
// wrote and a tail (TailPath) that drains replace until it is folded into
// the base — and the handle reads them as one: Count, Clusters and every
// scan cover the base's records, then the tail's, through the same kernels.
// Nothing above this package reads tails on their own.
//
// The store creates a directory only when Shuffle is about to put a file in
// it; cutting blocks, opening and reading never touch the filesystem's
// metadata.
package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"climber/internal/series"
	"climber/internal/storage"
)

// Stats is the store's read-side accounting. All fields are updated
// atomically and safe to read concurrently.
type Stats struct {
	// PartitionsLoaded counts real partition loads — mappings made and heap
	// copies read, the paper's dominant query-time cost. With every file
	// mapped once it grows with the files touched, not with the opens.
	PartitionsLoaded atomic.Int64
	// MapFallbacks counts the loads among them that could not map the file
	// and copied it onto the heap instead: zero where mapping works, every
	// load on a platform without it.
	MapFallbacks atomic.Int64
	// ScanPrunedRecords counts the records query scans ranked by their
	// summary lower bound alone, skipping the distance: each exceeded the
	// top-k bound already.
	ScanPrunedRecords atomic.Int64

	// PartitionCacheHits counts file opens served by a registered mapping
	// and PartitionCacheMisses the ones that loaded the file: the first open
	// of a file and every open of a heap copy. PartitionCacheBytesSaved sums
	// the file sizes of the hits.
	PartitionCacheHits       atomic.Int64
	PartitionCacheMisses     atomic.Int64
	PartitionCacheBytesSaved atomic.Int64
}

// Cluster is one partition store. It is safe for concurrent use.
type Cluster struct {
	dir     string
	workers int
	Stats   Stats

	// mu guards the registry: the mapping of every partition file opened so
	// far, by path, each holding one reference of its own. Nothing is
	// mapped or unmapped under mu.
	mu     sync.Mutex
	mapped map[string]*storage.Partition // nil once the store is closed
	// beforeRegister, when set, runs between a miss's mapping and its
	// registration: the seam that lets a test land a second open there.
	beforeRegister func(path string)
}

// New returns the store rooted at dir. workers bounds the goroutines of
// ScanBlocks and of Shuffle's flush; 0 or less uses every available core.
// Nothing is created on disk until Shuffle writes a file.
func New(dir string, workers int) *Cluster {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Cluster{dir: dir, workers: workers, mapped: make(map[string]*storage.Partition)}
}

// Dir returns the store's directory: where a build's Shuffle puts its
// partition files.
func (c *Cluster) Dir() string { return c.dir }

// PartitionPath returns the file of partition pid under root, the store's
// directory.
func PartitionPath(root, name string, pid int) string {
	return filepath.Join(root, fmt.Sprintf("%s-part%05d.clmp", name, pid))
}

// GenerationName returns the name under which reindex n writes its partition
// files: name with the count in it, so each reindex writes files no earlier
// view names.
func GenerationName(name string, n int) string { return fmt.Sprintf("%s-g%d", name, n) }

// Generation returns the number of reindexes behind the partition file at
// path, the inverse of PartitionPath under a GenerationName: the n of a
// "-gn-" in the file's stem, else the n of a gen-NNNN directory holding it
// (where reindexes wrote their files before they wrote into the store), else
// 0. A fold keeps the stem (FoldedPath), so every base of a view gives the
// same answer.
func Generation(path string) int {
	dir, file := filepath.Split(path)
	stem, _, _ := strings.Cut(file, ".")
	if i := strings.LastIndex(stem, "-part"); i >= 0 {
		stem = stem[:i]
	}
	if i := strings.LastIndex(stem, "-g"); i >= 0 {
		if n, err := strconv.Atoi(stem[i+2:]); err == nil && n > 0 && stem[i+2:] == strconv.Itoa(n) {
			return n
		}
	}
	parent := filepath.Base(dir)
	if n, err := strconv.Atoi(strings.TrimPrefix(parent, "gen-")); err == nil && n > 0 && parent == fmt.Sprintf("gen-%04d", n) {
		return n
	}
	return 0
}

// TailPath returns the name of the first tail of the partition whose base
// file is base — the small second file that takes a partition's appended
// records between folds into the base — and of any tail of the legacy layout.
func TailPath(base string) string { return base + ".tail" }

// GrownTailPath returns the name of a tail of count records that replaces an
// earlier tail of base: a tail only grows, so no other tail of base has it.
func GrownTailPath(base string, count int) string { return fmt.Sprintf("%s.%d.tail", base, count) }

// FoldedPath returns the name of the base a fold of base leaves holding count
// records: base's name up to its first dot, then the count. A partition only
// grows, so no other base of it has that name but a redone fold's.
func FoldedPath(base string, count int) string {
	dir, name := filepath.Split(base)
	stem, _, _ := strings.Cut(name, ".")
	return filepath.Join(dir, fmt.Sprintf("%s.%d.clmp", stem, count))
}

// MappedBytes returns the file bytes of the partition mappings the registry
// holds. Their pages are the kernel's page cache: they count toward the
// process's RSS as they are touched, and the kernel can reclaim them.
func (c *Cluster) MappedBytes() (n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.mapped {
		n += p.SizeBytes()
	}
	return n
}

// Close drops the registry's reference to every mapping and stops
// registering new ones: an open after Close maps its files for itself, and
// its handle unmaps them. A mapping a reader still holds is unmapped at that
// reader's last Release. The on-disk layout is untouched, Close is
// idempotent, and the store keeps serving afterwards, so callers that want
// "closed" semantics enforce them a level up (DB.Close).
func (c *Cluster) Close() error {
	c.mu.Lock()
	dropped := c.mapped
	c.mapped = nil
	c.mu.Unlock()
	for _, p := range dropped {
		_ = p.Release()
	}
	return nil
}

// Retire drops the registry's mapping of each of paths, if it holds one: the
// files of views no reader holds any more, which nothing opens again. Readers
// holding a mapping keep scanning it until they release it.
func (c *Cluster) Retire(paths ...string) {
	var dropped []*storage.Partition
	c.mu.Lock()
	for _, path := range paths {
		if p := c.mapped[path]; p != nil {
			delete(c.mapped, path)
			dropped = append(dropped, p)
		}
	}
	c.mu.Unlock()
	for _, p := range dropped {
		_ = p.Release()
	}
}

// Source is a set of records a build reads, cut into blocks — the unit of
// work of ScanBlocks and of SampleBlocks. *BlockSet (a dataset in memory) and
// *PartitionSet (the partition files of a built index) are the two sources.
type Source interface {
	// Len is the number of records and Length the length of each series.
	Len() int
	Length() int
	// NumBlocks is the number of blocks, and ScanBlock streams the records
	// of block i through fn. The values slice is only valid during the call.
	NumBlocks() int
	ScanBlock(i int, fn func(id int, values []float64) error) error
}

// BlockSet is a dataset cut into blocks of consecutive record IDs — the
// layout the paper assumes for its partition-level sampling ("the original
// dataset in most applications gets stored across partitions without any
// special or custom organization"). It is a view: the dataset stays where it
// is and nothing is written.
type BlockSet struct {
	ds        *series.Dataset
	blockSize int
}

// Blocks cuts ds into blocks of blockSize records, which must be positive
// (core.Config.Validate checks the configured one).
func Blocks(ds *series.Dataset, blockSize int) *BlockSet {
	if blockSize <= 0 {
		panic(fmt.Sprintf("cluster: block size must be positive, got %d", blockSize))
	}
	return &BlockSet{ds: ds, blockSize: blockSize}
}

// Len returns the number of records in the dataset.
func (bs *BlockSet) Len() int { return bs.ds.Len() }

// Length returns the length of every series.
func (bs *BlockSet) Length() int { return bs.ds.Length() }

// NumBlocks returns the number of blocks: the last one may be short.
func (bs *BlockSet) NumBlocks() int {
	return (bs.ds.Len() + bs.blockSize - 1) / bs.blockSize
}

// ScanBlock streams block i with every reading rounded to float32: an index
// is built from the values its partition files will store, not from the
// caller's float64s.
func (bs *BlockSet) ScanBlock(i int, fn func(id int, values []float64) error) error {
	lo := i * bs.blockSize
	hi := min(lo+bs.blockSize, bs.ds.Len())
	vals := make([]float64, bs.ds.Length())
	for id := lo; id < hi; id++ {
		for j, v := range bs.ds.Get(id) {
			vals[j] = float64(float32(v))
		}
		if err := fn(id, vals); err != nil {
			return err
		}
	}
	return nil
}

// SampleBlocks selects whole blocks uniformly at random so that roughly
// rate × Len records are covered, never fewer than one block. This is the
// paper's partition-level sampling (Section V): a subset of data partitions
// is read in full, avoiding a scatter-read of individual records.
func (c *Cluster) SampleBlocks(src Source, rate float64, rng *rand.Rand) []int {
	if rate >= 1 {
		return nil
	}
	nb := src.NumBlocks()
	return rng.Perm(nb)[:min(max(int(float64(nb)*rate+0.5), 1), nb)]
}

// SampleDataset scans the listed blocks of src (nil: all of them) and returns
// the records keep admits (nil: all of them) as a dataset in ID order: worker
// scheduling must not influence what is built from a sample.
func (c *Cluster) SampleDataset(src Source, blocks []int, keep func(id int) bool) (*series.Dataset, error) {
	type rec struct {
		id   int
		vals []float64
	}
	var mu sync.Mutex
	var recs []rec
	err := c.ScanBlocks(src, blocks, func(id int, values []float64) error {
		if keep != nil && !keep(id) {
			return nil
		}
		r := rec{id, slices.Clone(values)}
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	sample := series.NewDatasetCap(src.Length(), len(recs))
	for _, r := range recs {
		sample.Append(r.vals)
	}
	return sample, nil
}

// errScanAborted marks a worker that stopped because a peer already failed.
// It is internal to ScanBlocks and never escapes it.
var errScanAborted = errors.New("cluster: scan aborted after peer failure")

// ScanBlocks streams every record of the listed blocks of src (nil: all of
// them) through fn using the store's worker pool. fn is invoked concurrently
// from multiple workers and must be safe for that; the values slice is only
// valid during the call. The scan fails fast: the first error raises a stop
// flag, and every other worker abandons its current block at the next record
// instead of scanning the remaining dataset for an answer that will be thrown
// away. The error returned is the first one raised.
func (c *Cluster) ScanBlocks(src Source, blocks []int, fn func(id int, values []float64) error) error {
	if blocks == nil {
		blocks = make([]int, src.NumBlocks())
		for i := range blocks {
			blocks[i] = i
		}
	}
	work := make(chan int, len(blocks))
	for _, b := range blocks {
		work <- b
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
			for b := range work {
				if stop.Load() {
					return
				}
				if err := src.ScanBlock(b, scan); err != nil {
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
