package metric

import (
	"math"
	"testing"

	"climber/internal/pivot"
)

// The paper's Example 1 weight sequence: exponential decay, lambda = 1/2,
// m = 3 gives weights [1, 1/2, 1/4] and Total Weight 1.75.
func TestWeigherPaperExample1Sequence(t *testing.T) {
	w := MustWeigher(3, ExponentialDecay, 0.5)
	want := []float64{1, 0.5, 0.25}
	for i, v := range want {
		if got := w.Weight(i + 1); math.Abs(got-v) > 1e-12 {
			t.Fatalf("W(%d) = %g, want %g", i+1, got, v)
		}
	}
	if got := w.Total(); math.Abs(got-1.75) > 1e-12 {
		t.Fatalf("TW = %g, want 1.75", got)
	}
}

// The paper's Example 1 WD computations:
//
//	centroids: o1 = <1,2,3>, o2 = <2,4,5>
//	Y: P4→ = <4,2,1>  -> weights W(4)=1, W(2)=0.5, W(1)=0.25, TW=1.75
//	  WD(Y, o1) = 1.75 - (W(1)+W(2)) = 1.75 - 0.75 = 1
//	  WD(Y, o2) = 1.75 - (W(4)+W(2)) = 1.75 - 1.5  = 0.25
//	Z: P4→ = <6,2,7>  -> W(6)=1, W(2)=0.5, W(7)=0.25
//	  WD(Z, o1) = 1.75 - W(2) = 1.25
//	  WD(Z, o2) = 1.75 - W(2) = 1.25
func TestWeightDistPaperExample1(t *testing.T) {
	w := MustWeigher(3, ExponentialDecay, 0.5)
	o1 := pivot.Signature{1, 2, 3}
	o2 := pivot.Signature{2, 4, 5}

	y := pivot.Signature{4, 2, 1}
	if got := w.WeightDist(y, o1); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("WD(Y, o1) = %g, want 1", got)
	}
	if got := w.WeightDist(y, o2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("WD(Y, o2) = %g, want 0.25", got)
	}

	z := pivot.Signature{6, 2, 7}
	if got := w.WeightDist(z, o1); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("WD(Z, o1) = %g, want 1.25", got)
	}
	if got := w.WeightDist(z, o2); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("WD(Z, o2) = %g, want 1.25", got)
	}
}

func TestLinearDecaySequence(t *testing.T) {
	// lambda defaults to 1/m: [1, (m-1)/m, ..., 1/m].
	m := 4
	w := MustWeigher(m, LinearDecay, 0)
	want := []float64{1, 0.75, 0.5, 0.25}
	for i, v := range want {
		if got := w.Weight(i + 1); math.Abs(got-v) > 1e-12 {
			t.Fatalf("linear W(%d) = %g, want %g", i+1, got, v)
		}
	}
}

// Definition 9 requires strictly decreasing weights for every valid decay.
func TestWeightsStrictlyDecreasing(t *testing.T) {
	for _, kind := range []DecayKind{ExponentialDecay, LinearDecay} {
		for _, m := range []int{1, 2, 3, 10, 40} {
			w, err := NewWeigher(m, kind, 0)
			if err != nil {
				t.Fatalf("NewWeigher(%d, %v): %v", m, kind, err)
			}
			for i := 2; i <= m; i++ {
				if !(w.Weight(i) < w.Weight(i-1)) {
					t.Fatalf("%v m=%d: W(%d)=%g not < W(%d)=%g",
						kind, m, i, w.Weight(i), i-1, w.Weight(i-1))
				}
			}
		}
	}
}

func TestWeigherValidation(t *testing.T) {
	if _, err := NewWeigher(0, ExponentialDecay, 0.5); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := NewWeigher(3, ExponentialDecay, 1.5); err == nil {
		t.Error("lambda > 1 should fail")
	}
	if _, err := NewWeigher(3, DecayKind(99), 0.5); err == nil {
		t.Error("unknown decay kind should fail")
	}
}

// WD bounds: 0 <= WD <= TW, with WD = 0 iff every signature pivot appears in
// the centroid, and WD = TW iff none do.
func TestWeightDistBounds(t *testing.T) {
	w := MustWeigher(3, ExponentialDecay, 0.5)
	sig := pivot.Signature{5, 3, 8}
	if got := w.WeightDist(sig, pivot.Signature{3, 5, 8}); got != 0 {
		t.Fatalf("WD with full containment = %g, want 0", got)
	}
	if got := w.WeightDist(sig, pivot.Signature{1, 2, 4}); math.Abs(got-w.Total()) > 1e-12 {
		t.Fatalf("WD with no containment = %g, want TW = %g", got, w.Total())
	}
}

// The WD tie-break prefers centroids containing the query's closest pivots:
// a centroid holding the 1st-ranked pivot must beat one holding only the
// last-ranked pivot.
func TestWeightDistRanksFrontPivotsHigher(t *testing.T) {
	w := MustWeigher(3, ExponentialDecay, 0.5)
	sig := pivot.Signature{7, 8, 9}
	holdsFirst := pivot.Signature{1, 2, 7}
	holdsLast := pivot.Signature{1, 2, 9}
	if !(w.WeightDist(sig, holdsFirst) < w.WeightDist(sig, holdsLast)) {
		t.Fatal("centroid containing the closest pivot should have smaller WD")
	}
}

func TestWeightDistWrongLengthPanics(t *testing.T) {
	w := MustWeigher(3, ExponentialDecay, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("WD with wrong signature length did not panic")
		}
	}()
	w.WeightDist(pivot.Signature{1, 2}, pivot.Signature{1, 2, 3})
}

func TestDecayKindString(t *testing.T) {
	if ExponentialDecay.String() != "exponential" || LinearDecay.String() != "linear" {
		t.Fatal("DecayKind.String mismatch")
	}
}
