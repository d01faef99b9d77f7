package series

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestDatasetAppendGet(t *testing.T) {
	d := NewDataset(3)
	if got := d.Len(); got != 0 {
		t.Fatalf("empty dataset Len = %d, want 0", got)
	}
	id0 := d.Append([]float64{1, 2, 3})
	id1 := d.Append([]float64{4, 5, 6})
	if id0 != 0 || id1 != 1 {
		t.Fatalf("Append ids = %d, %d, want 0, 1", id0, id1)
	}
	if got := d.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := d.Get(1); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("Get(1) = %v, want [4 5 6]", got)
	}
	if got := d.Length(); got != 3 {
		t.Fatalf("Length = %d, want 3", got)
	}
}

func TestDatasetAppendWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("appending wrong-length series did not panic")
		}
	}()
	NewDataset(3).Append([]float64{1, 2})
}

func TestNewDatasetInvalidLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDataset(0) did not panic")
		}
	}()
	NewDataset(0)
}

func TestDatasetSlice(t *testing.T) {
	d := NewDataset(2)
	for i := 0; i < 5; i++ {
		d.Append([]float64{float64(i), float64(i * 10)})
	}
	v := d.Slice(1, 4)
	if v.Len() != 3 {
		t.Fatalf("view Len = %d, want 3", v.Len())
	}
	if got := v.Get(0); got[0] != 1 || got[1] != 10 {
		t.Fatalf("view Get(0) = %v, want [1 10]", got)
	}
}

func TestDistKnownValues(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{0, 0}, []float64{3, 4}, 5},
		{[]float64{1, 1, 1}, []float64{1, 1, 1}, 0},
		{[]float64{1}, []float64{-1}, 2},
	}
	for _, c := range cases {
		if got := Dist(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
}

func TestDistMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dist with mismatched lengths did not panic")
		}
	}()
	Dist([]float64{1, 2}, []float64{1})
}

// Euclidean distance must satisfy the metric postulates the pivot-permutation
// technique relies on (paper Section IV-A): non-negativity, identity,
// symmetry, and the triangle inequality.
func TestDistMetricPostulates(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vec := func() []float64 {
		v := make([]float64, 8)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for iter := 0; iter < 200; iter++ {
		x, y, z := vec(), vec(), vec()
		dxy, dyx := Dist(x, y), Dist(y, x)
		if dxy < 0 {
			t.Fatalf("negative distance %g", dxy)
		}
		if math.Abs(dxy-dyx) > 1e-9 {
			t.Fatalf("asymmetric distance: %g vs %g", dxy, dyx)
		}
		if got := Dist(x, x); got != 0 {
			t.Fatalf("Dist(x, x) = %g, want 0", got)
		}
		if Dist(x, z) > dxy+Dist(y, z)+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
	}
}

func TestSqDistEarlyAbandon(t *testing.T) {
	x := []float64{0, 0, 0, 0}
	y := []float64{10, 10, 10, 10}
	got := SqDistEarlyAbandon(x, y, 50)
	if got <= 50 {
		t.Fatalf("early abandon returned %g, want value > limit 50", got)
	}
	// Under the limit the exact value must be returned.
	if got := SqDistEarlyAbandon(x, y, 1e9); got != 400 {
		t.Fatalf("non-abandoned distance = %g, want 400", got)
	}
}

func TestSqDistEarlyAbandonMatchesExact(t *testing.T) {
	f := func(ax, ay [6]float64) bool {
		x, y := boundVec(ax[:]), boundVec(ay[:])
		exact := SqDist(x, y)
		got := SqDistEarlyAbandon(x, y, exact+1)
		return math.Abs(got-exact) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// boundVec maps arbitrary quick-generated floats into a numerically sane
// range so property tests exercise logic rather than float64 overflow.
func boundVec(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Mod(x, 1000)
	}
	return out
}

func TestZNormalize(t *testing.T) {
	x := []float64{2, 4, 6, 8}
	ZNormalize(x)
	if m := Mean(x); math.Abs(m) > 1e-12 {
		t.Fatalf("mean after z-norm = %g, want 0", m)
	}
	if sd := StdDev(x); math.Abs(sd-1) > 1e-12 {
		t.Fatalf("stddev after z-norm = %g, want 1", sd)
	}
}

func TestZNormalizeConstantSeries(t *testing.T) {
	x := []float64{5, 5, 5}
	ZNormalize(x)
	for _, v := range x {
		if v != 0 {
			t.Fatalf("constant series z-norm = %v, want all zeros", x)
		}
	}
}

func TestZNormalizeProperty(t *testing.T) {
	f := func(a [16]float64) bool {
		x := boundVec(a[:])
		ZNormalize(x)
		m, sd := Mean(x), StdDev(x)
		// Either degenerate (all zeros) or properly normalised.
		return (math.Abs(m) < 1e-6 && (math.Abs(sd-1) < 1e-6 || sd == 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDevEmpty(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("Mean/StdDev of empty slice should be 0")
	}
}
