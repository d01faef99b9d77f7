//go:build !amd64

package series

// HasLaneKernel is false off amd64: callers of SqDistLanes use their
// portable loop.
const HasLaneKernel = false

func sqDistLanes(x, lanes, out []float64) {
	panic("series: no lane kernel on this architecture")
}
