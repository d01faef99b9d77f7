package paa

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"climber/internal/series"
)

// The paper's Figure 3 example: a 12-point series reduced to 4 segments
// yields the mean of each 3-point segment.
func TestTransformFigure3Style(t *testing.T) {
	tr := MustTransformer(12, 4)
	x := []float64{
		-1.5, -1.5, -1.5,
		-0.4, -0.4, -0.4,
		0.3, 0.3, 0.3,
		1.5, 1.5, 1.5,
	}
	got := tr.Transform(x)
	want := []float64{-1.5, -0.4, 0.3, 1.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("segment %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestTransformMeans(t *testing.T) {
	tr := MustTransformer(6, 2)
	got := tr.Transform([]float64{1, 2, 3, 10, 20, 30})
	if got[0] != 2 || got[1] != 20 {
		t.Fatalf("Transform = %v, want [2 20]", got)
	}
}

func TestTransformerValidation(t *testing.T) {
	if _, err := NewTransformer(0, 1); err == nil {
		t.Error("NewTransformer(0, 1) should fail")
	}
	if _, err := NewTransformer(4, 0); err == nil {
		t.Error("NewTransformer(4, 0) should fail")
	}
	if _, err := NewTransformer(4, 5); err == nil {
		t.Error("NewTransformer(4, 5) should fail: more segments than readings")
	}
	if _, err := NewTransformer(4, 4); err != nil {
		t.Errorf("NewTransformer(4, 4) should succeed, got %v", err)
	}
}

func TestTransformWrongLengthPanics(t *testing.T) {
	tr := MustTransformer(8, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Transform of wrong-length series did not panic")
		}
	}()
	tr.Transform(make([]float64, 7))
}

// When w does not divide n, segments must cover every reading exactly once
// and differ in length by at most one.
func TestFractionalSegmentation(t *testing.T) {
	tr := MustTransformer(10, 3)
	total := 0
	minLen, maxLen := tr.N(), 0
	for i := 0; i < tr.W(); i++ {
		l := tr.SegmentLen(i)
		total += l
		if l < minLen {
			minLen = l
		}
		if l > maxLen {
			maxLen = l
		}
	}
	if total != 10 {
		t.Fatalf("segments cover %d readings, want 10", total)
	}
	if maxLen-minLen > 1 {
		t.Fatalf("segment lengths range [%d, %d]; want spread <= 1", minLen, maxLen)
	}
}

// Property: the PAA of a constant series is that constant in every segment.
func TestConstantSeriesProperty(t *testing.T) {
	f := func(c float64, wSeed uint8) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			c = 0
		}
		c = math.Mod(c, 1e6)
		w := 1 + int(wSeed)%8
		tr := MustTransformer(16, w)
		x := make([]float64, 16)
		for i := range x {
			x[i] = c
		}
		for _, v := range tr.Transform(x) {
			if math.Abs(v-c) > 1e-9*math.Max(1, math.Abs(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PAA is a contraction on averages — each output is within the
// min/max of its segment's readings.
func TestSegmentMeanBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	tr := MustTransformer(24, 5)
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 24)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		out := tr.Transform(x)
		for i := 0; i < tr.W(); i++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for j := i * 24 / 5; j < (i+1)*24/5; j++ {
				lo = math.Min(lo, x[j])
				hi = math.Max(hi, x[j])
			}
			if out[i] < lo-1e-9 || out[i] > hi+1e-9 {
				t.Fatalf("segment %d mean %g outside [%g, %g]", i, out[i], lo, hi)
			}
		}
	}
}

// The PAA lower-bounding property (Keogh et al.): for any two series,
// sqrt(sum segLen*(a_i-b_i)^2) <= ED(X, Y). This is the invariant the
// Odyssey-style exact engine relies on for pruning.
func TestLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	for _, shape := range []struct{ n, w int }{{32, 8}, {30, 7}, {16, 16}, {9, 2}} {
		tr := MustTransformer(shape.n, shape.w)
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, shape.n)
			y := make([]float64, shape.n)
			for i := range x {
				x[i] = rng.NormFloat64()
				y[i] = rng.NormFloat64()
			}
			lb := math.Sqrt(tr.LowerBoundSqDist(tr.Transform(x), tr.Transform(y)))
			ed := series.Dist(x, y)
			if lb > ed+1e-9 {
				t.Fatalf("n=%d w=%d: PAA lower bound %g exceeds true distance %g", shape.n, shape.w, lb, ed)
			}
		}
	}
}

// With w == n, PAA is the identity and the lower bound is exact.
func TestLowerBoundTightWhenIdentity(t *testing.T) {
	tr := MustTransformer(8, 8)
	rng := rand.New(rand.NewPCG(2, 4))
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 8)
		y := make([]float64, 8)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		lb := math.Sqrt(tr.LowerBoundSqDist(tr.Transform(x), tr.Transform(y)))
		ed := series.Dist(x, y)
		if math.Abs(lb-ed) > 1e-9 {
			t.Fatalf("identity PAA bound %g != distance %g", lb, ed)
		}
	}
}

func TestTransformInto(t *testing.T) {
	tr := MustTransformer(4, 2)
	dst := make([]float64, 2)
	tr.TransformInto(dst, []float64{1, 3, 5, 7})
	if dst[0] != 2 || dst[1] != 6 {
		t.Fatalf("TransformInto = %v, want [2 6]", dst)
	}
}

func TestTransformIntoBadDstPanics(t *testing.T) {
	tr := MustTransformer(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("TransformInto with wrong dst length did not panic")
		}
	}()
	tr.TransformInto(make([]float64, 3), []float64{1, 2, 3, 4})
}
