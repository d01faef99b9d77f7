package series

// HasLaneKernel reports whether SqDistLanes runs on this machine: the lane
// kernel needs AVX2, which the scan kernel's start-up detection establishes.
var HasLaneKernel = useAVX2

//go:noescape
func sqDistLanesAVX2(x, lanes, out []float64)

func sqDistLanes(x, lanes, out []float64) {
	if !useAVX2 {
		panic("series: SqDistLanes needs AVX2")
	}
	sqDistLanesAVX2(x, lanes, out)
}
