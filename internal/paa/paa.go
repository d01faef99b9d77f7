// Package paa implements Piecewise Aggregate Approximation (paper Section
// IV-B Step 1, Figure 3), the segmentation and dimensionality-reduction
// technique CLIMBER applies before pivot-based feature extraction.
//
// Given a raw series X of length n and a number of segments w << n, PAA
// divides X into w segments over the x-axis and represents each segment by
// its mean value, yielding a vector in a w-dimensional space. PAA is lossy,
// but — unlike iSAX — similarity is later evaluated on the mean values
// themselves rather than on quantised stripe labels, so it preserves
// similarity far better at the same w.
package paa

import "fmt"

// Transformer converts raw data series of a fixed length n into PAA
// signatures of w segments. A Transformer is immutable and safe for
// concurrent use.
type Transformer struct {
	n, w int
	// bounds[i] is the half-open reading range [bounds[i], bounds[i+1]) of
	// segment i. Precomputing the boundaries supports n not divisible by w
	// (readings are spread as evenly as possible, matching the fractional
	// PAA formulation).
	bounds []int
}

// NewTransformer returns a PAA transformer from length n down to w segments.
// It requires 0 < w <= n.
func NewTransformer(n, w int) (*Transformer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("paa: series length must be positive, got %d", n)
	}
	if w <= 0 || w > n {
		return nil, fmt.Errorf("paa: segment count must be in [1, %d], got %d", n, w)
	}
	t := &Transformer{n: n, w: w, bounds: make([]int, w+1)}
	for i := 0; i <= w; i++ {
		t.bounds[i] = i * n / w
	}
	return t, nil
}

// MustTransformer is NewTransformer that panics on invalid arguments. It is
// intended for package-level defaults and tests.
func MustTransformer(n, w int) *Transformer {
	t, err := NewTransformer(n, w)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the raw series length the transformer accepts.
func (t *Transformer) N() int { return t.n }

// W returns the number of PAA segments the transformer emits.
func (t *Transformer) W() int { return t.w }

// SegmentLen returns the number of readings covered by segment i.
func (t *Transformer) SegmentLen(i int) int { return t.bounds[i+1] - t.bounds[i] }

// Transform computes the PAA signature of x into a freshly allocated slice.
func (t *Transformer) Transform(x []float64) []float64 {
	out := make([]float64, t.w)
	t.TransformInto(out, x)
	return out
}

// TransformInto computes the PAA signature of x into dst, which must have
// length w. It panics if len(x) != n, since feeding a series of the wrong
// length is a caller bug.
func (t *Transformer) TransformInto(dst, x []float64) {
	if len(x) != t.n {
		panic(fmt.Sprintf("paa: series length %d does not match transformer length %d", len(x), t.n))
	}
	if len(dst) != t.w {
		panic(fmt.Sprintf("paa: destination length %d does not match segment count %d", len(dst), t.w))
	}
	for i := 0; i < t.w; i++ {
		lo, hi := t.bounds[i], t.bounds[i+1]
		var s float64
		for j := lo; j < hi; j++ {
			s += x[j]
		}
		dst[i] = s / float64(hi-lo)
	}
}

// LowerBoundSqDist returns the classic PAA lower bound on the squared
// Euclidean distance between the two raw series whose PAA signatures are a
// and b:
//
//	(n/w) * ED(a, b)^2 <= ED(X, Y)^2
//
// The bound holds exactly when w divides n; for fractional segmentations it
// uses the per-segment lengths and remains a valid lower bound. The
// Odyssey-style exact engine prunes with it against squared-distance
// thresholds.
func (t *Transformer) LowerBoundSqDist(a, b []float64) float64 {
	var s float64
	for i := 0; i < t.w; i++ {
		d := a[i] - b[i]
		s += float64(t.SegmentLen(i)) * d * d
	}
	return s
}
