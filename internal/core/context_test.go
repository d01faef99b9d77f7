package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"climber/internal/cluster"
)

func TestSearchContextPreCancelled(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1000, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Query(ctx, ds.Get(0), SearchOptions{K: 10}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled search returned %v, want context.Canceled", err)
	}
	if _, err := ix.Query(ctx, ds.Get(0)[:32], SearchOptions{K: 10, Prefix: true}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled prefix search returned %v, want context.Canceled", err)
	}
}

func TestSearchContextBackgroundMatchesSearch(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)
	for _, qid := range []int{3, 700, 1400} {
		a, err := ix.Search(ds.Get(qid), SearchOptions{K: 20, Variant: VariantAdaptive4X})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix.Query(context.Background(), ds.Get(qid), SearchOptions{K: 20, Variant: VariantAdaptive4X}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Results) != len(b.Results) {
			t.Fatalf("query %d: %d vs %d results", qid, len(a.Results), len(b.Results))
		}
		for i := range a.Results {
			if a.Results[i] != b.Results[i] {
				t.Fatalf("query %d result %d differs: %+v vs %+v", qid, i, a.Results[i], b.Results[i])
			}
		}
	}
}

// TestCancelMidScanStopsPlan drives the executor's scan directly with a rank
// kernel that cancels the context at the first compared record. The scan
// must stop at the next cluster boundary — well before the partition's
// record count — and return context.Canceled, with the effort statistics
// still accounting the work actually done.
func TestCancelMidScanStopsPlan(t *testing.T) {
	cfg := testConfig()
	ix, _, _, _ := buildTestIndex(t, 3000, cfg)

	// Find a partition with at least two clusters so "stop at the next
	// cluster boundary" is observable.
	pid, firstCluster, total := -1, 0, 0
	for cand := 0; cand < ix.Skeleton().NumPartitions; cand++ {
		p, err := ix.Cl.OpenPartition(ix.Partitions(), cand)
		if err != nil {
			t.Fatal(err)
		}
		cis := p.Clusters()
		if len(cis) >= 2 && p.Count() > cis[0].Count {
			pid, firstCluster, total = cand, cis[0].Count, p.Count()
		}
		p.Close()
		if pid >= 0 {
			break
		}
	}
	if pid < 0 {
		t.Skip("no multi-cluster partition in this layout")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan := []PlanStep{{Partition: pid}} // whole partition
	var stats QueryStats
	compared := 0
	g := ix.AcquireGeneration()
	defer g.Release()
	// The partition scan ranks records through the executor's rank kernel,
	// so the cancelling distance function replaces it.
	ex := newExecutor(ix, g, plan, nil, SearchOptions{K: 10}, &stats)
	ex.rank = func(rec []byte, bound float64) float64 {
		compared++
		cancel()
		return math.Inf(1) // the distance does not matter, only the cancel
	}
	err := ex.scanStep(ctx, plan[0], false, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled plan returned %v, want context.Canceled", err)
	}
	if compared == 0 {
		t.Fatal("distance function never ran; the cancel happened too early to be mid-scan")
	}
	if stats.RecordsScanned > firstCluster {
		t.Fatalf("scanned %d records after the cancel, want at most the first cluster's %d (partition holds %d)",
			stats.RecordsScanned, firstCluster, total)
	}
	if stats.RecordsScanned == 0 || stats.PartitionsScanned != 1 {
		t.Fatalf("stats inconsistent after cancel: %+v", stats)
	}
}

// A batch stops when its context is cancelled, before it starts or while
// its queries run: mid-flight, the progressive sink of the third query
// cancels, with one worker, so the queries after it wait on a worker that has
// run a query already. Either way the error wraps context.Canceled, and no
// worker of the batch is left once it returns.
func TestSearchBatchContextCancel(t *testing.T) {
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1000, cfg)
	queries := make([][]float64, 16)
	for i := range queries {
		queries[i] = ds.Get(i * 50)
	}
	for _, when := range []string{"before", "mid-flight"} {
		t.Run(when, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			workers := 4
			if when == "before" {
				cancel()
			} else {
				workers = 1
				batchSink = func(i int) func(Snapshot) bool {
					if i != 2 {
						return nil
					}
					return func(Snapshot) bool { cancel(); return true }
				}
				defer func() { batchSink = nil }()
			}
			if _, err := ix.QueryBatch(ctx, queries, SearchOptions{K: 10}, workers); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled batch returned %v, want an error wrapping context.Canceled", err)
			}
			if n := waitGoroutines("(*Index).QueryBatch", 5*time.Second); n > 0 {
				t.Fatalf("%d workers of the batch are left after it returned", n)
			}
		})
	}
}

// waitGoroutines waits up to timeout for no goroutine's stack to name fn, and
// returns how many still do.
func waitGoroutines(fn string, timeout time.Duration) int {
	end := time.Now().Add(timeout)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, fn) {
				n++
			}
		}
		if n == 0 || time.Now().After(end) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A rebuild whose context is cancelled stops at the next block of its scan
// and writes nothing, and one whose flush fails removes what it wrote: the
// store lists the index's files only. The next rebuild writes the same
// names, the -g1- stem, and succeeds.
func TestRebuildGenerationCancelled(t *testing.T) {
	ix, _, cl, _ := buildTestIndex(t, 1500, testConfig())
	listing := func() []string {
		t.Helper()
		ents, err := os.ReadDir(cl.Dir())
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	before := listing()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.RebuildGeneration(ctx, "test"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rebuild returned %v, want context.Canceled", err)
	}
	if after := listing(); !slices.Equal(after, before) {
		t.Fatalf("cancelled rebuild changed the store from %v to %v", before, after)
	}

	// A directory squatted on partition 1's file fails its flush.
	squat := cluster.PartitionPath(cl.Dir(), cluster.GenerationName("test", 1), 1)
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.RebuildGeneration(context.Background(), "test"); err == nil {
		t.Fatal("rebuild over a squatted partition path succeeded")
	}
	// The failed flush removes every path it wrote to, the squat included.
	if after := listing(); !slices.Equal(after, before) {
		t.Fatalf("failed rebuild changed the store from %v to %v", before, after)
	}

	g, err := ix.RebuildGeneration(context.Background(), "test")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Parts.Paths {
		if filepath.Dir(p) != cl.Dir() || cluster.Generation(p) != 1 {
			t.Fatalf("rebuilt partition %s is not a generation-1 file of the store", p)
		}
	}
}
