package sax

import (
	"math"
	"math/rand/v2"
	"testing"

	"climber/internal/paa"
	"climber/internal/series"
)

// The paper's Figure 1(a): with w = 4, c = 8 (3 bits), the example series'
// PAA means fall in stripes 000, 010, 101, 111.
func TestWordFigure1SAX(t *testing.T) {
	// PAA mean values chosen inside the target stripes for c = 8:
	// 000: below -1.1503, 010: [-0.6745, -0.3186), 101: [0.3186, 0.6745),
	// 111: above 1.1503.
	paaSig := []float64{-1.5, -0.4, 0.45, 1.5}
	w := NewWordUniform(paaSig, 3)
	want := []uint16{0, 2, 5, 7} // binary 000, 010, 101, 111
	for i := range want {
		if w.Symbols[i] != want[i] {
			t.Fatalf("segment %d symbol = %03b, want %03b", i, w.Symbols[i], want[i])
		}
	}
	if got := w.String(); got != "[000, 010, 101, 111]" {
		t.Fatalf("String = %q", got)
	}
}

// The paper's Figure 1(b): iSAX with mixed cardinalities [00, 010, 10, 1].
func TestWordFigure1ISAX(t *testing.T) {
	paaSig := []float64{-1.5, -0.4, 0.45, 1.5}
	w := NewWordFromPAA(paaSig, []uint8{2, 3, 2, 1})
	if got := w.String(); got != "[00, 010, 10, 1]" {
		t.Fatalf("String = %q, want [00, 010, 10, 1]", got)
	}
}

// iSAX prefix property: the b'-bit symbol is the high prefix of the b-bit
// symbol for the same value.
func TestSymbolPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 2))
	for trial := 0; trial < 500; trial++ {
		v := rng.NormFloat64() * 1.5
		hi := 2 + rng.IntN(6)
		lo := 1 + rng.IntN(hi-1)
		sHi := Symbol(v, hi)
		sLo := Symbol(v, lo)
		if sHi>>(hi-lo) != sLo {
			t.Fatalf("prefix property violated: value %g, %d bits -> %b, %d bits -> %b",
				v, hi, sHi, lo, sLo)
		}
	}
}

func TestSymbolAtAndCovers(t *testing.T) {
	paaSig := []float64{-1.5, -0.4, 0.45, 1.5}
	fine := NewWordUniform(paaSig, 3)
	coarse := NewWordUniform(paaSig, 1)
	for i := range paaSig {
		if fine.SymbolAt(i, 1) != coarse.Symbols[i] {
			t.Fatalf("SymbolAt(%d, 1) = %d, want %d", i, fine.SymbolAt(i, 1), coarse.Symbols[i])
		}
	}
}

func TestSymbolAtPromotePanics(t *testing.T) {
	w := NewWordUniform([]float64{0.3}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("promoting to more bits did not panic")
		}
	}()
	w.SymbolAt(0, 5)
}

func TestWordKeyDistinct(t *testing.T) {
	a := NewWordUniform([]float64{-1.5, 0.4}, 3)
	b := NewWordUniform([]float64{0.4, -1.5}, 3)
	if a.Key() == b.Key() {
		t.Fatal("different words share a key")
	}
	c := a.Clone()
	if c.Key() != a.Key() {
		t.Fatal("clone has a different key")
	}
	// Same symbols at different bit widths must differ too.
	d := NewWordUniform([]float64{-1.5, 0.4}, 4)
	if d.Key() == a.Key() {
		t.Fatal("words at different cardinalities share a key")
	}
}

// MINDIST must lower-bound the true Euclidean distance between the query
// and every series whose word it is (Shieh & Keogh's iSAX guarantee).
func TestMinDistLowerBounds(t *testing.T) {
	const n, w = 32, 8
	tr := paa.MustTransformer(n, w)
	segLens := make([]int, w)
	for i := range segLens {
		segLens[i] = tr.SegmentLen(i)
	}
	rng := rand.New(rand.NewPCG(21, 12))
	randSeries := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		series.ZNormalize(x)
		return x
	}
	for trial := 0; trial < 300; trial++ {
		q := randSeries()
		x := randSeries()
		qp := tr.Transform(q)
		xw := NewWordUniform(tr.Transform(x), uint8(1+rng.IntN(5)))
		lb := xw.MinDistPAA(qp, segLens)
		ed := series.Dist(q, x)
		if lb > ed+1e-9 {
			t.Fatalf("MINDIST %g exceeds true distance %g", lb, ed)
		}
	}
}

func TestMinDistZeroInsideRegion(t *testing.T) {
	paaSig := []float64{0.1, -0.2}
	w := NewWordUniform(paaSig, 2)
	if got := w.MinDistPAA(paaSig, []int{4, 4}); got != 0 {
		t.Fatalf("MINDIST of a point to its own region = %g, want 0", got)
	}
}

func TestMinDistWildcardSegments(t *testing.T) {
	w := Word{Symbols: []uint16{0, 0}, Bits: []uint8{0, 0}}
	if got := w.MinDistPAA([]float64{5, -5}, []int{4, 4}); got != 0 {
		t.Fatalf("wildcard word MINDIST = %g, want 0", got)
	}
}

func TestNewWordLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewWordFromPAA([]float64{1, 2}, []uint8{3})
}

func TestMinDistIncreasesOutsideRegion(t *testing.T) {
	// A query PAA far below the region must yield a positive bound that
	// grows with distance.
	w := NewWordFromPAA([]float64{2.0}, []uint8{3}) // top stripe
	d1 := w.MinDistPAA([]float64{0}, []int{8})
	d2 := w.MinDistPAA([]float64{-1}, []int{8})
	if !(d2 > d1 && d1 > 0) {
		t.Fatalf("MINDIST not monotone: d1=%g d2=%g", d1, d2)
	}
	if math.IsNaN(d1) || math.IsNaN(d2) {
		t.Fatal("MINDIST returned NaN")
	}
}
