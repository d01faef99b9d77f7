package series

import "math"

// Dist returns the Euclidean distance between two equal-length series
// (paper Definition 3). It panics if the lengths differ, because comparing
// series of different lengths is a programming error in every caller.
func Dist(x, y []float64) float64 {
	return math.Sqrt(SqDist(x, y))
}

// SqDist returns the squared Euclidean distance between two equal-length
// series. Working with squared distances avoids the square root in hot loops
// such as pivot ranking and kNN scans; ordering is preserved.
func SqDist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("series: distance between series of different lengths")
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// SqDistEarlyAbandon returns the squared Euclidean distance between x and y,
// abandoning the accumulation as soon as it exceeds limit. If abandoned, the
// returned value is some number > limit (not the true distance). This is the
// classic early-abandoning optimisation used by data-series scans: a record
// that cannot enter the current top-k is rejected in O(first few readings).
// Like SqDist it panics when the lengths differ.
func SqDistEarlyAbandon(x, y []float64, limit float64) float64 {
	if len(x) != len(y) {
		panic("series: distance between series of different lengths")
	}
	var s float64
	for i, v := range x {
		d := v - y[i]
		s += d * d
		if s > limit {
			return s
		}
	}
	return s
}

// Blocked-kernel geometry. The lane count breaks the floating-point
// dependency chain of the scalar loop into independent accumulators the
// compiler keeps in separate registers — gc does not vectorise the loop; the
// lanes buy instruction-level parallelism, nothing more. The float32 scan
// kernel (distance32.go) has its own, wider lane count.
//
// abandonBlock is how many readings an early-abandoning kernel accumulates
// between limit checks, amortising the branch (and, in the float32 kernel,
// the lane fold) that a scalar kernel pays per element. The float64 and
// float32 kernels share it. Measured with the float32 assembly kernel on
// the benchmark's warm-knn and cold-od data (two --trace 1 runs each): block
// 32 read series.sqdist32_ea_ns_per_elem 0.20-0.21 / 0.15-0.19 and
// core.scan_us 214-235 / 3082-3576; block 64 read 0.18-0.19 / 0.15 and
// 230-243 / 2873-2918 — no difference the runs can resolve, so the finer
// abandon granularity stays.
const (
	distLanes    = 4
	abandonBlock = 32
)

// SqDistBlocked is SqDist with its dependency chain broken: the accumulation
// runs in distLanes independent lanes folded once at the end. It panics when
// the lengths differ. The result is the same sum in a different association
// order, so it can differ from SqDist in the last few ULPs — callers that
// pin answers bit-for-bit must compare against the same kernel.
func SqDistBlocked(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("series: distance between series of different lengths")
	}
	y = y[:len(x)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+distLanes <= len(x); i += distLanes {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// SqDistEarlyAbandonBlocked is the early-abandoning companion of
// SqDistBlocked: it accumulates in the same independent lanes and checks the
// limit once per abandonBlock readings instead of once per element, so the
// common no-abandon path runs at the blocked kernel's speed. If abandoned,
// the returned value is some number > limit (not the true distance). When
// the limit is never crossed the result is bit-identical to SqDistBlocked —
// the lanes see the same additions in the same order. It panics when the
// lengths differ.
func SqDistEarlyAbandonBlocked(x, y []float64, limit float64) float64 {
	if len(x) != len(y) {
		panic("series: distance between series of different lengths")
	}
	y = y[:len(x)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+abandonBlock <= len(x); i += abandonBlock {
		for j := i; j < i+abandonBlock; j += distLanes {
			d0 := x[j] - y[j]
			d1 := x[j+1] - y[j+1]
			d2 := x[j+2] - y[j+2]
			d3 := x[j+3] - y[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if s := (s0 + s1) + (s2 + s3); s > limit {
			return s
		}
	}
	for ; i+distLanes <= len(x); i += distLanes {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(x); i++ {
		d := x[i] - y[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}
