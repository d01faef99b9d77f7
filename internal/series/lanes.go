package series

import "fmt"

// Lane kernel: the distances from one point to many, the pivot ranking of
// every routed series (pivot.Set.RankSensitive). The points are stored
// transposed in groups of LaneWidth — coordinate j of the group's sixteen
// points side by side — so one pass over x measures sixteen points at once,
// one per float64 lane of four 4-wide vector registers. Each lane sums its
// own point's squared differences over j = 0…dim−1 in order, subtract,
// multiply, add, with no fused multiply-add: exactly SqDist's arithmetic, so
// every lane's result is bit-equal to SqDist of its point. (Go on amd64
// fuses only an explicit math.FMA, so SqDist rounds the product there too.)
// Only amd64 with AVX2 runs it (HasLaneKernel, the scan kernel's detection);
// callers keep a portable loop for other machines and for the points that do
// not fill a group.

// LaneWidth is the number of points one group of a lane layout holds.
const LaneWidth = 16

// LaneLayout returns the lane layout of the first full groups of the points
// in flat (n × dim coordinates, point after point): coordinate j of point
// 16g+k at index (g·dim + j)·16 + k. The n mod 16 points past the last full
// group are left out.
func LaneLayout(flat []float64, dim int) []float64 {
	groups := len(flat) / dim / LaneWidth
	lanes := make([]float64, groups*dim*LaneWidth)
	for g := 0; g < groups; g++ {
		for k := 0; k < LaneWidth; k++ {
			p := flat[(g*LaneWidth+k)*dim:][:dim]
			for j, v := range p {
				lanes[(g*dim+j)*LaneWidth+k] = v
			}
		}
	}
	return lanes
}

// SqDistLanes writes to out[16g+k] the squared distance between x and point
// k of group g of lanes, a LaneLayout of len(out) points of len(x)
// coordinates; len(out) must be a multiple of LaneWidth. Each value is
// bit-equal to SqDist of its point. It panics when the lengths do not fit
// and when the machine has no lane kernel (HasLaneKernel is false).
func SqDistLanes(x, lanes, out []float64) {
	if len(out)%LaneWidth != 0 || len(lanes) != len(out)*len(x) {
		panic(fmt.Sprintf("series: lane layout of %d values for %d points of dimension %d", len(lanes), len(out), len(x)))
	}
	if len(x) == 0 {
		clear(out)
		return
	}
	sqDistLanes(x, lanes, out)
}
