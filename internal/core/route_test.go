package core

import (
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
)

// BenchmarkRouteRecord measures Skeleton.RouteRecord — PAA, the P4 dual
// signature, Algorithm 1's group choice and Algorithm 3's target — on a
// skeleton of the default shape (r = 200 pivots, m = 10, w = 16) drawn from
// a 20 000-series random-walk sample standing in for 200 000 records. One
// op routes one series, so ns/op is the per-series cost every record of a
// build, every append and every query plan pays.
func BenchmarkRouteRecord(b *testing.B) {
	const length = 256
	cfg := DefaultConfig()
	sample := dataset.RandomWalk(length, 20000, 3)
	skel, err := BuildSkeleton(sample, length, cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs := dataset.RandomWalk(length, 1024, 4)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		skel.RouteRecord(recs.Get(i % recs.Len()))
		i++
	}
}

// BenchmarkShuffle measures the re-distribution of a build (paper Figure 6,
// Step 4b): cluster.Shuffle of 20 000 random-walk series of length 256, each
// to the route Skeleton.RouteRecord gave it, into the partition files of a
// default-shape skeleton (capacity 2 000, drawn from a 10 % sample). One op
// writes every file once; ns/record is the per-series cost of the scan, the
// encode and the writes, and B/op what one shuffle allocates.
func BenchmarkShuffle(b *testing.B) {
	const length, n = 256, 20000
	cfg := DefaultConfig()
	skel, err := BuildSkeleton(dataset.RandomWalk(length, n/10, 3), length, cfg)
	if err != nil {
		b.Fatal(err)
	}
	bs := cluster.Blocks(dataset.RandomWalk(length, n, 4), cfg.BlockSize)
	cl := cluster.New(b.TempDir(), 0)
	routes, err := cl.Convert(bs, bs.Len(), skel.RouteRecord)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := cl.Shuffle(bs, skel.NumPartitions, cluster.Dest{Name: "bench"}, routes); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
