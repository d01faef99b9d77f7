// Package dss implements the Distributed Sequential Scan baseline of the
// paper's evaluation (Section VII-A): "the vanilla full scan solution that
// scans all data partitions in parallel to generate the exact answer set
// (i.e., the ground truth) for the kNN queries".
//
// Dss is exact (recall 1.0) but touches every block, so its query time is
// the upper bound every approximate technique is measured against.
package dss

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"climber/internal/cluster"
	"climber/internal/series"
)

// Search scans every block of the dataset in parallel and returns the
// exact k nearest neighbours of q by Euclidean distance, ascending.
func Search(cl *cluster.Cluster, bs *cluster.BlockSet, q []float64, k int) ([]series.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dss: k must be positive, got %d", k)
	}
	if len(q) != bs.Length() {
		return nil, fmt.Errorf("dss: query length %d, dataset stores %d", len(q), bs.Length())
	}

	top := series.NewTopK(k)
	var mu sync.Mutex
	// boundBits caches the current admission threshold so workers can
	// early-abandon without taking the lock; math.Inf while the heap is not
	// yet full.
	var boundBits atomic.Uint64
	boundBits.Store(math.Float64bits(math.Inf(1)))

	err := cl.ScanBlocks(bs, nil, func(id int, values []float64) error {
		bound := math.Float64frombits(boundBits.Load())
		d := series.SqDistEarlyAbandon(q, values, bound)
		// An abandoned distance is above bound; one equal to it is exact and
		// the accumulator decides the tie by ID, whichever worker gets there
		// first.
		if d > bound {
			return nil
		}
		mu.Lock()
		top.Push(id, d)
		if b, ok := top.Bound(); ok {
			boundBits.Store(math.Float64bits(b))
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finish(top), nil
}

// SearchDataset returns the exact kNN over an in-memory dataset — the
// ground-truth oracle used by tests and by experiments that pre-compute
// exact answers once per query workload.
func SearchDataset(ds *series.Dataset, q []float64, k int) []series.Result {
	top := series.NewTopK(k)
	for id := 0; id < ds.Len(); id++ {
		if bound, ok := top.Bound(); ok {
			d := series.SqDistEarlyAbandon(q, ds.Get(id), bound)
			if d < bound {
				top.Push(id, d)
			}
			continue
		}
		top.Push(id, series.SqDist(q, ds.Get(id)))
	}
	return finish(top)
}

// SearchDatasetPrefix is the exact oracle for queries shorter than the
// stored series: distances are evaluated over the first len(q) readings of
// every record (the prefix-query semantics of core.SearchOptions.Prefix).
func SearchDatasetPrefix(ds *series.Dataset, q []float64, k int) []series.Result {
	top := series.NewTopK(k)
	for id := 0; id < ds.Len(); id++ {
		prefix := ds.Get(id)[:len(q)]
		if bound, ok := top.Bound(); ok {
			d := series.SqDistEarlyAbandon(q, prefix, bound)
			if d < bound {
				top.Push(id, d)
			}
			continue
		}
		top.Push(id, series.SqDist(q, prefix))
	}
	return finish(top)
}

// finish converts a squared-distance accumulator into sorted plain-distance
// results.
func finish(top *series.TopK) []series.Result {
	res := top.Results()
	for i := range res {
		res[i].Dist = math.Sqrt(res[i].Dist)
	}
	return res
}
