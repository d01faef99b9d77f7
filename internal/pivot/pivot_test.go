package pivot

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"climber/internal/series"
)

// mustSet builds a pivot set from 2-D points for geometric tests.
func mustSet(t *testing.T, prefix int, pts ...[]float64) *Set {
	t.Helper()
	s, err := NewSet(pts, prefix)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A geometric layout mirroring the paper's Figure 4: pivots 1, 2, 4 placed so
// that X is closest to p1 then p4 then p2, while Y is closest to p4 then p1
// then p2 — so they share the rank-insensitive signature <1,2,4> but differ
// in the rank-sensitive one.
func TestDualSignatureFigure4(t *testing.T) {
	// Pivot IDs are positional: index 0 plays p1, 1 plays p2, 2 plays p4.
	p1 := []float64{0, 0}
	p2 := []float64{10, 0}
	p4 := []float64{4, 0}
	s := mustSet(t, 3, p1, p2, p4)

	x := []float64{1, 0} // dist: p1=1, p4=3, p2=9  -> <p1, p4, p2> = <0, 2, 1>
	y := []float64{3, 0} // dist: p4=1, p1=3, p2=7  -> <p4, p1, p2> = <2, 0, 1>

	rsX, riX := s.Dual(x)
	rsY, riY := s.Dual(y)

	if !rsX.Equal(Signature{0, 2, 1}) {
		t.Fatalf("P4->(X) = %v, want <0,2,1>", rsX)
	}
	if !rsY.Equal(Signature{2, 0, 1}) {
		t.Fatalf("P4->(Y) = %v, want <2,0,1>", rsY)
	}
	if !riX.Equal(riY) || !riX.Equal(Signature{0, 1, 2}) {
		t.Fatalf("rank-insensitive signatures differ: %v vs %v, want both <0,1,2>", riX, riY)
	}
}

func TestRankSensitiveOrdersByDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 17))
	dim := 6
	pts := make([][]float64, 20)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	s, err := NewSet(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		sig := s.RankSensitive(x)
		if len(sig) != 5 {
			t.Fatalf("signature length %d, want 5", len(sig))
		}
		// The signature must match the first m entries of the full
		// permutation.
		perm := s.Permutation(x)
		for i := 0; i < 5; i++ {
			if sig[i] != perm[i] {
				t.Fatalf("signature %v disagrees with permutation prefix %v", sig, perm[:5])
			}
		}
	}
}

func TestPermutationIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	pts := make([][]float64, 12)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	s, err := NewSet(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	perm := s.Permutation([]float64{0.5, 0.5})
	if len(perm) != 12 {
		t.Fatalf("permutation length %d, want 12", len(perm))
	}
	seen := make(map[int]bool)
	for _, id := range perm {
		if id < 0 || id >= 12 || seen[id] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[id] = true
	}
}

// Property (Definition 6): the rank-insensitive signature is exactly the
// sorted rank-sensitive signature, for any query point.
func TestDualConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	pts := make([][]float64, 30)
	for i := range pts {
		p := make([]float64, 4)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	s, err := NewSet(pts, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d float64) bool {
		rs, ri := s.Dual([]float64{a, b, c, d})
		sorted := rs.Clone()
		sort.Ints(sorted)
		return ri.Equal(sorted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cands := make([][]float64, 50)
	for i := range cands {
		cands[i] = []float64{float64(i)}
	}
	s, err := SelectRandom(cands, 10, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.R() != 10 {
		t.Fatalf("R = %d, want 10", s.R())
	}
	// Pivots must be distinct candidates (selection without replacement).
	seen := make(map[float64]bool)
	for i := 0; i < 10; i++ {
		v := s.Pivot(i)[0]
		if seen[v] {
			t.Fatalf("pivot value %g selected twice", v)
		}
		seen[v] = true
	}
}

func TestSelectRandomErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cands := [][]float64{{1}, {2}}
	if _, err := SelectRandom(cands, 3, 1, rng); err == nil {
		t.Error("selecting more pivots than candidates should fail")
	}
	if _, err := SelectRandom(cands, 0, 1, rng); err == nil {
		t.Error("selecting zero pivots should fail")
	}
}

func TestNewSetValidation(t *testing.T) {
	if _, err := NewSet(nil, 1); err == nil {
		t.Error("empty pivot set should fail")
	}
	if _, err := NewSet([][]float64{{}}, 1); err == nil {
		t.Error("zero-dimension pivots should fail")
	}
	if _, err := NewSet([][]float64{{1}, {2}}, 3); err == nil {
		t.Error("prefix longer than pivot count should fail")
	}
	if _, err := NewSet([][]float64{{1, 2}, {3}}, 1); err == nil {
		t.Error("ragged pivots should fail")
	}
}

func TestRankSensitiveWrongDimPanics(t *testing.T) {
	s := mustSet(t, 1, []float64{0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-dimension query did not panic")
		}
	}()
	s.RankSensitive([]float64{1})
}

func TestDistanceTiesBreakByPivotID(t *testing.T) {
	// Two pivots equidistant from the query: the lower ID must rank first.
	s := mustSet(t, 2, []float64{1, 0}, []float64{-1, 0})
	sig := s.RankSensitive([]float64{0, 0})
	if !sig.Equal(Signature{0, 1}) {
		t.Fatalf("tie-broken signature = %v, want <0,1>", sig)
	}
}

// kernels names the distance kernels rankSensitive and distances can run
// here: the portable loop everywhere, the lane kernel where the machine has
// it.
func kernels() map[string]bool {
	k := map[string]bool{"portable": false}
	if series.HasLaneKernel {
		k["lanes"] = true
	}
	return k
}

// tiedPivots returns r pivots of dimension dim in which about one in four
// duplicates an earlier one and about half of the rest sit on the integer
// grid {0, 1, 2}^dim: inputs whose distances tie exactly.
func tiedPivots(rng *rand.Rand, r, dim int) [][]float64 {
	pts := make([][]float64, r)
	for i := range pts {
		if i > 0 && rng.IntN(4) == 0 {
			pts[i] = pts[rng.IntN(i)] // an exact duplicate: tied distances
			continue
		}
		grid := rng.IntN(2) == 0 // integer coordinates tie with grid points
		p := make([]float64, dim)
		for j := range p {
			if grid {
				p[j] = float64(rng.IntN(3))
			} else {
				p[j] = rng.NormFloat64()
			}
		}
		pts[i] = p
	}
	return pts
}

// tiedQuery returns a query for trial: a pivot itself (distance 0, tied
// with its duplicates), a point of the integer grid (many equal distances),
// or a random point.
func tiedQuery(rng *rand.Rand, pts [][]float64, trial int) []float64 {
	x := make([]float64, len(pts[0]))
	switch trial % 3 {
	case 0:
		copy(x, pts[rng.IntN(len(pts))])
	case 1:
		for j := range x {
			x[j] = float64(rng.IntN(3))
		}
	default:
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
	}
	return x
}

// RankSensitive must equal the brute-force definition, Permutation(x)[:m]:
// sort every pivot by (distance, ID) and keep the first m. The cases cover
// pivot counts that are not a multiple of rankLanes (so some pivots take
// the scalar tail), counts around the lane kernel's group of sixteen (so
// some pivots take the portable loop after the kernel), prefixes from 1 to
// r, and duplicated pivots, whose distances tie exactly. Every case runs
// through each distance kernel.
func TestRankSensitiveGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	for _, c := range []struct{ r, m, dim int }{
		{1, 1, 3},
		{3, 2, 5},
		{rankLanes, rankLanes, 4},
		{rankLanes + 1, 3, 16},
		{2*rankLanes + 3, 2*rankLanes + 3, 7},
		{15, 10, 16},
		{16, 16, 16},
		{17, 10, 16},
		{31, 10, 5},
		{32, 32, 16},
		{33, 10, 16},
		{50, 8, 16},
		{203, 10, 16},
		{203, 40, 9},
	} {
		pts := tiedPivots(rng, c.r, c.dim)
		s, err := NewSet(pts, c.m)
		if err != nil {
			t.Fatal(err)
		}
		for name, lanes := range kernels() {
			for trial := 0; trial < 200; trial++ {
				x := tiedQuery(rng, pts, trial)
				got := s.rankSensitive(x, lanes)
				want := s.Permutation(x)[:c.m]
				if !got.Equal(want) {
					t.Fatalf("%s: r=%d m=%d dim=%d trial %d: RankSensitive = %v, Permutation prefix = %v",
						name, c.r, c.m, c.dim, trial, got, want)
				}
			}
		}
	}
}

// The lane kernel and its portable twin produce the same distances, bit for
// bit, and both equal series.SqDist's: on random pivot sets with duplicates
// and integer-grid ties, for pivot counts on both sides of the group edge.
func TestLaneKernelMatchesPortableTwin(t *testing.T) {
	if !series.HasLaneKernel {
		t.Skip("no lane kernel on this machine: the portable loop is the only one")
	}
	rng := rand.New(rand.NewPCG(47, 53))
	for trial := 0; trial < 300; trial++ {
		r, dim := 1+rng.IntN(80), 1+rng.IntN(24)
		pts := tiedPivots(rng, r, dim)
		s, err := NewSet(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := tiedQuery(rng, pts, trial)
		lanes, twin := make([]float64, r), make([]float64, r)
		s.distances(x, lanes, true)
		s.distances(x, twin, false)
		for i := range lanes {
			want := series.SqDist(x, s.Pivot(i))
			if math.Float64bits(lanes[i]) != math.Float64bits(twin[i]) || math.Float64bits(twin[i]) != math.Float64bits(want) {
				t.Fatalf("r=%d dim=%d pivot %d: lane kernel %v (%#x), portable %v (%#x), SqDist %v (%#x)",
					r, dim, i, lanes[i], math.Float64bits(lanes[i]), twin[i], math.Float64bits(twin[i]), want, math.Float64bits(want))
			}
		}
	}
}
