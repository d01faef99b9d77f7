package cluster

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
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
	bs, err := c.IngestBlocks(ds, 30, "rw")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Paths) != 4 { // ceil(100/30)
		t.Fatalf("got %d blocks, want 4", len(bs.Paths))
	}
	if bs.Total != 100 {
		t.Fatalf("Total = %d, want 100", bs.Total)
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	err = c.ScanBlocks(bs.Paths, func(id int, values []float64) error {
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

	// Blocks are build input: removing the set leaves the store empty.
	bs.Remove()
	if ents, err := os.ReadDir(c.dir); err != nil || len(ents) != 0 {
		t.Fatalf("store dir after BlockSet.Remove: %v, %v", ents, err)
	}
}

// The store touches the filesystem only when a writer is about to put a file
// in it: constructing one over a directory that does not exist — and opening
// partitions elsewhere through it — must not create that directory.
func TestNewCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	c := New(dir, 1)
	c.EnablePartitionCache(1 << 20)
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("New created %s (stat err = %v)", dir, err)
	}
	if _, err := c.IngestBlocks(dataset.RandomWalk(8, 10, 1), 5, "rw"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("IngestBlocks did not create the store dir: %v", err)
	}
}

func TestScanBlocksValuesMatchDataset(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 20, 3)
	bs, err := c.IngestBlocks(ds, 7, "rw")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	err = c.ScanBlocks(bs.Paths, func(id int, values []float64) error {
		mu.Lock()
		defer mu.Unlock()
		want := ds.Get(id)
		for j := range values {
			if float32(want[j]) != float32(values[j]) {
				t.Errorf("record %d value %d = %g, want %g", id, j, values[j], want[j])
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
	bs, err := c.IngestBlocks(ds, 10, "rw") // 20 blocks
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	sample := c.SampleBlocks(bs, 0.25, rng)
	if len(sample) != 5 {
		t.Fatalf("sampled %d blocks, want 5", len(sample))
	}
	// Distinct paths.
	seen := map[string]bool{}
	for _, p := range sample {
		if seen[p] {
			t.Fatalf("block %s sampled twice", p)
		}
		seen[p] = true
	}
	// A tiny rate still samples at least one block.
	if got := c.SampleBlocks(bs, 0.0001, rng); len(got) != 1 {
		t.Fatalf("minimum sample = %d blocks, want 1", len(got))
	}
	// Rate 1 returns everything.
	if got := c.SampleBlocks(bs, 1.0, rng); len(got) != 20 {
		t.Fatalf("full sample = %d blocks, want 20", len(got))
	}
}

func TestShuffle(t *testing.T) {
	c := testCluster(t)
	ds := dataset.RandomWalk(16, 90, 2)
	bs, err := c.IngestBlocks(ds, 25, "rw")
	if err != nil {
		t.Fatal(err)
	}
	// Route by id modulo 3 partitions, cluster = id modulo 2.
	ps, err := c.Shuffle(bs, 3, "rw", func(id int, values []float64) (Route, error) {
		return Route{Partition: id % 3, Cluster: storage.ClusterID(id % 2)}, nil
	})
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

// breakFlushTarget arranges for partition flushes into dir to fail: the
// directory is made read-only. Root bypasses permission bits, so when a probe
// write still succeeds the helper falls back to squatting a directory on the
// partition path itself, which makes the writer's os.Create fail regardless
// of privilege.
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
	bs, err := c.IngestBlocks(ds, 25, "rw")
	if err != nil {
		t.Fatal(err)
	}
	breakFlushTarget(t, c.dir, PartitionPath(c.dir, "shuf", 1))

	_, err = c.Shuffle(bs, 3, "shuf", func(id int, values []float64) (Route, error) {
		return Route{Partition: id % 3, Cluster: storage.ClusterID(id % 2)}, nil
	})
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
	bs, err := c.IngestBlocks(ds, 10, "rw") // 20 blocks
	if err != nil {
		t.Fatal(err)
	}

	errBoom := errors.New("boom")
	var after atomic.Int64
	var failed atomic.Bool
	err = c.ScanBlocks(bs.Paths, func(id int, values []float64) error {
		if failed.Load() {
			after.Add(1)
			return nil
		}
		if id == 0 { // first record of the first block: fail immediately
			failed.Store(true)
			return errBoom
		}
		// Slow the healthy workers down so the stop flag demonstrably wins
		// the race against them finishing their blocks.
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
	bs, err := c.IngestBlocks(ds, 5, "rw")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Shuffle(bs, 2, "rw", func(id int, values []float64) (Route, error) {
		return Route{Partition: 7}, nil
	})
	if err == nil {
		t.Fatal("out-of-range partition route accepted")
	}
}

func TestIngestBlocksValidation(t *testing.T) {
	c := testCluster(t)
	ds := series.NewDataset(4)
	if _, err := c.IngestBlocks(ds, 0, "x"); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestWorkers(t *testing.T) {
	if c := testCluster(t); c.workers != 4 {
		t.Fatalf("workers = %d, want 4", c.workers)
	}
	if c := New(t.TempDir(), 0); c.workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d for New(dir, 0), want every core (%d)", c.workers, runtime.GOMAXPROCS(0))
	}
}
