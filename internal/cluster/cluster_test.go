package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"climber/internal/dataset"
	"climber/internal/series"
	"climber/internal/storage"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	return New(t.TempDir(), 4)
}

func TestIngestAndScanBlocks(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(32, 100, 7)
	bs := Blocks(ds, 30)
	if bs.NumBlocks() != 4 { // ceil(100/30)
		t.Fatalf("got %d blocks, want 4", bs.NumBlocks())
	}
	if bs.Len() != 100 || bs.Length() != 32 {
		t.Fatalf("Len, Length = %d, %d, want 100, 32", bs.Len(), bs.Length())
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	err := c.ScanBlocks(bs, nil, func(id int, values []float64) error {
		mu.Lock()
		seen[id]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("scanned %d distinct records, want 100", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d scanned %d times", id, n)
		}
	}

	// A listed subset scans those blocks only: block 3 is IDs 90..99.
	clear(seen)
	err = c.ScanBlocks(bs, []int{3}, func(id int, values []float64) error {
		mu.Lock()
		seen[id]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 || seen[90] != 1 || seen[99] != 1 {
		t.Fatalf("scan of the short last block saw %v, want IDs 90..99 once each", seen)
	}
}

// The store touches the filesystem only when Shuffle is about to put a file in
// it: constructing one over a directory that does not exist, and cutting a
// dataset into blocks and scanning them through it, must not create that
// directory — nor anything else.
func TestNewCreatesNothing(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	c := New(dir, 1)
	bs := Blocks(dataset.RandomWalk(8, 10, 1), 5)
	if err := c.ScanBlocks(bs, nil, func(int, []float64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(parent); err != nil || len(ents) != 0 {
		t.Fatalf("New, Blocks and ScanBlocks left %v on disk (err = %v)", ents, err)
	}
	_, err := c.Shuffle(bs, 1, Dest{Name: "rw"}, make([]Route, bs.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(PartitionPath(dir, "rw", 0)); err != nil {
		t.Fatalf("Shuffle did not create the store dir and its partition file: %v", err)
	}
}

func TestScanBlocksValuesMatchDataset(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 20, 3)
	bs := Blocks(ds, 7)
	var mu sync.Mutex
	err := c.ScanBlocks(bs, nil, func(id int, values []float64) error {
		mu.Lock()
		defer mu.Unlock()
		want := ds.Get(id)
		for j := range values {
			// Exactly the float32 rounding a partition file applies: an
			// index is built from the values it will store.
			if values[j] != float64(float32(want[j])) {
				t.Errorf("record %d value %d = %g, want %g rounded to float32", id, j, values[j], want[j])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleBlocks(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 200, 9)
	bs := Blocks(ds, 10) // 20 blocks
	rng := rand.New(rand.NewPCG(5, 5))
	sample := c.SampleBlocks(bs, 0.25, rng)
	if len(sample) != 5 {
		t.Fatalf("sampled %d blocks, want 5", len(sample))
	}
	// Distinct blocks of the set.
	seen := map[int]bool{}
	for _, b := range sample {
		if seen[b] || b < 0 || b >= 20 {
			t.Fatalf("block %d sampled twice or out of range", b)
		}
		seen[b] = true
	}
	// A tiny rate still samples at least one block.
	if got := c.SampleBlocks(bs, 0.0001, rng); len(got) != 1 {
		t.Fatalf("minimum sample = %d blocks, want 1", len(got))
	}
	// Rate 1 returns nil, which ScanBlocks and SampleDataset read as every
	// block.
	if got := c.SampleBlocks(bs, 1.0, rng); got != nil {
		t.Fatalf("full sample = %v, want nil", got)
	}
}

// A sample comes back in ID order whatever the order the workers scanned it
// in, holds the float32-rounded readings, and honours the keep filter.
func TestSampleDataset(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 200, 9)
	bs := Blocks(ds, 10)
	sample, err := c.SampleDataset(bs, []int{17, 2, 9}, func(id int) bool { return id%2 == 1 })
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for _, b := range []int{2, 9, 17} {
		for id := b*10 + 1; id < (b+1)*10; id += 2 {
			want = append(want, id)
		}
	}
	if sample.Len() != len(want) {
		t.Fatalf("sample holds %d records, want %d", sample.Len(), len(want))
	}
	for i, id := range want {
		for j, v := range sample.Get(i) {
			if v != float64(float32(ds.Get(id)[j])) {
				t.Fatalf("sample record %d is not dataset record %d rounded to float32", i, id)
			}
		}
	}
	all, err := c.SampleDataset(bs, nil, nil)
	if err != nil || all.Len() != 200 {
		t.Fatalf("unfiltered sample of every block: %d records, %v; want 200", all.Len(), err)
	}
}

// routesOf routes every ID of src, 0 to src.Len()-1, with route: the
// conversion a shuffle takes.
func routesOf(src Source, route func(id int) Route) []Route {
	routes := make([]Route, src.Len())
	for id := range routes {
		routes[id] = route(id)
	}
	return routes
}

func TestShuffle(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 90, 2)
	bs := Blocks(ds, 25)
	// Route by id modulo 3 partitions, cluster = id modulo 2.
	ps, err := c.Shuffle(bs, 3, Dest{Name: "rw"}, routesOf(bs, func(id int) Route {
		return Route{Partition: id % 3, Cluster: storage.ClusterID(id % 2)}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Paths) != 3 {
		t.Fatalf("got %d partitions, want 3", len(ps.Paths))
	}
	total := 0
	for pid, cnt := range ps.Counts {
		if cnt != 30 {
			t.Fatalf("partition %d holds %d records, want 30", pid, cnt)
		}
		total += cnt
	}
	if total != 90 {
		t.Fatalf("shuffle moved %d records, want 90", total)
	}

	// Verify partition contents: every record in the right partition and
	// cluster.
	for pid := range ps.Paths {
		p, err := c.OpenPartition(ps, pid)
		if err != nil {
			t.Fatal(err)
		}
		err = p.ScanAll(func(id int, values []float64) error {
			if id%3 != pid {
				t.Errorf("record %d landed in partition %d", id, pid)
			}
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats.PartitionsLoaded.Load(); got != 3 {
		t.Fatalf("PartitionsLoaded = %d, want 3", got)
	}
}

// A partition no record routes to is still written: an empty file that
// opens, verifies and scans nothing.
func TestShuffleWritesEmptyPartitions(t *testing.T) {
	c := testCluster(t)
	bs := Blocks(dataset.RandomWalk(16, 40, 2), 25)
	ps, err := c.Shuffle(bs, 3, Dest{Name: "rw"}, routesOf(bs, func(id int) Route {
		return Route{Partition: 2 * (id % 2)}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Counts[1] != 0 || ps.Len() != 40 {
		t.Fatalf("partition counts %v, want nothing in partition 1", ps.Counts)
	}
	p, err := storage.OpenPartition(ps.Paths[1])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Verify(); err != nil || p.Count() != 0 || p.SeriesLen() != 16 {
		t.Fatalf("empty partition: %d records of length %d, verify %v", p.Count(), p.SeriesLen(), err)
	}
	h, err := c.OpenPartition(ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.ScanAll(func(id int, _ []float64) error { return fmt.Errorf("record %d in an empty partition", id) }); err != nil {
		t.Fatal(err)
	}
}

// A PartitionSet is a Source too — how a reindex reads an index back: a
// shuffle of the partition files into files of a second name, beside them,
// moves every record with its float32 readings intact (the scan of a
// partition file reuses its values slice, so this is also the shuffle keeping
// a copy), and with Dest.Sync it announces each durability step (the writes
// are pooled, so partition steps come in any order).
func TestShuffleFromPartitionsDurable(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 90, 2)
	bs := Blocks(ds, 25)
	first, err := c.Shuffle(bs, 3, Dest{Name: "rw"}, routesOf(bs, func(id int) Route {
		return Route{Partition: id % 3, Cluster: storage.ClusterID(id % 2)}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 90 || first.Length() != 16 || first.NumBlocks() != 3 {
		t.Fatalf("partition source: Len, Length, NumBlocks = %d, %d, %d", first.Len(), first.Length(), first.NumBlocks())
	}

	var mu sync.Mutex
	var steps []string
	second, err := c.Shuffle(first, 2, Dest{Name: "rw-g1", Sync: true, Step: func(step string) {
		mu.Lock()
		steps = append(steps, step)
		mu.Unlock()
	}}, routesOf(first, func(id int) Route {
		return Route{Partition: id % 2}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(steps); n != 4 || steps[0] != "gen-dirs" || steps[n-1] != "gen-dir-sync" {
		t.Fatalf("durability steps = %v", steps)
	}
	sort.Strings(steps[1:3])
	if steps[1] != "partition-00000" || steps[2] != "partition-00001" {
		t.Fatalf("durability steps = %v", steps)
	}
	seen := 0
	err = c.ScanBlocks(second, nil, func(id int, values []float64) error {
		mu.Lock()
		defer mu.Unlock()
		seen++
		for j, v := range values {
			if v != float64(float32(ds.Get(id)[j])) {
				t.Errorf("record %d value %d changed on its way through two shuffles", id, j)
			}
		}
		return nil
	})
	if err != nil || seen != 90 {
		t.Fatalf("second shuffle holds %d records, %v; want 90", seen, err)
	}
}

// breakFlushTarget arranges for partition writes into dir to fail: the
// directory is made read-only. Root bypasses permission bits, so when a probe
// write still succeeds the helper falls back to squatting a directory on the
// partition path itself, which makes the writer's rename over it fail
// regardless of privilege.
func breakFlushTarget(t *testing.T, dir, partPath string) {
	t.Helper()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	probe := filepath.Join(dir, ".probe")
	if f, err := os.Create(probe); err == nil {
		f.Close()
		os.Remove(probe)
		if err := os.Mkdir(partPath, 0o755); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Remove(partPath) })
	}
}

// A shuffle whose flush fails half-way must not leave the partitions that
// flushed successfully behind — callers retry the whole shuffle, and stale
// part-files would either collide with the retry or leak disk forever.
func TestShuffleCleansUpOnFlushFailure(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 90, 2)
	bs := Blocks(ds, 25)
	breakFlushTarget(t, c.dir, PartitionPath(c.dir, "shuf", 1))

	_, err := c.Shuffle(bs, 3, Dest{Name: "shuf"}, routesOf(bs, func(id int) Route {
		return Route{Partition: id % 3, Cluster: storage.ClusterID(id % 2)}
	}))
	if err == nil {
		t.Fatal("shuffle into an unwritable store dir succeeded")
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".clmp" {
			t.Fatalf("failed shuffle leaked partition file %s", e.Name())
		}
	}
}

// The first scan error must stop the other workers promptly: without the
// stop flag every remaining block is scanned to completion, so the count of
// records visited after the failure would approach the dataset size.
func TestScanBlocksStopsOnFirstError(t *testing.T) {
	c := testCluster(t) // 4 workers
	ds := dataset.RandomWalk(8, 200, 4)
	bs := Blocks(ds, 10) // 20 blocks

	errBoom := errors.New("boom")
	var after atomic.Int64
	var failed atomic.Bool
	err := c.ScanBlocks(bs, nil, func(id int, values []float64) error {
		if id == 0 { // first record of the first block: fail immediately
			failed.Store(true)
			return errBoom
		}
		// Slow the healthy workers down so the stop flag demonstrably wins
		// the race against them finishing their blocks — and slow them
		// further once the failure is in: the failing worker still has to
		// get from here to ScanBlocks' stop flag, and if it loses its CPU on
		// the way, three workers that no longer sleep finish all 19 blocks
		// in microseconds. At 1 ms a record it would have to stay off the
		// CPU for 17 ms to let 50 through.
		if failed.Load() {
			after.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("ScanBlocks error = %v, want %v", err, errBoom)
	}
	// In-flight records on the other workers are allowed through; scanning
	// a large share of the remaining ~199 records means nobody stopped.
	if n := after.Load(); n > 50 {
		t.Fatalf("%d records scanned after the failure; workers did not stop", n)
	}
}

func TestShuffleRejectsBadPartition(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 10, 2)
	bs := Blocks(ds, 5)
	_, err := c.Shuffle(bs, 2, Dest{Name: "rw"}, routesOf(bs, func(id int) Route {
		return Route{Partition: 7}
	}))
	if err == nil {
		t.Fatal("out-of-range partition route accepted")
	}
}

// Cutting blocks cannot fail, so a block size that is not positive — which
// core.Config.Validate never lets through — is a programming error.
func TestBlocksPanicsOnBadBlockSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero block size accepted")
		}
	}()
	Blocks(series.NewDataset(4), 0)
}

func TestWorkers(t *testing.T) {
	if c := testCluster(t); c.workers != 4 {
		t.Fatalf("workers = %d, want 4", c.workers)
	}
	if c := New(t.TempDir(), 0); c.workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d for New(dir, 0), want every core (%d)", c.workers, runtime.GOMAXPROCS(0))
	}
}

// Generation reads back the reindex count GenerationName puts in a stem,
// through a fold's and a tail's name, and the one of a gen-NNNN directory of
// the layout before reindexes wrote into the store.
func TestGenerationIsThePathsCount(t *testing.T) {
	base := PartitionPath("/db/cluster", GenerationName("climber", 12), 3)
	for path, want := range map[string]int{
		PartitionPath("/db/cluster", "climber", 3): 0,
		base:                                      12,
		FoldedPath(base, 208):                     12,
		GrownTailPath(FoldedPath(base, 208), 9):   12,
		"/db/gen-0002/climber-part00001.clmp":     2,
		"/db/gen-0002/climber-part00001.40.clmp":  2,
		"/db/gen-2/climber-part00001.clmp":        0,
		"/db/gen-0002/climber-g+3-part00001.clmp": 2,
		"/db/cluster/my-gadget-part00001.clmp":    0,
	} {
		if got := Generation(path); got != want {
			t.Errorf("Generation(%s) = %d, want %d", path, got, want)
		}
	}
}
