package core

import (
	"testing"

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
