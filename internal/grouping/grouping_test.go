package grouping

import (
	"math/rand/v2"
	"slices"
	"testing"

	"climber/internal/metric"
	"climber/internal/pivot"
)

func exampleAssigner(t *testing.T) *Assigner {
	t.Helper()
	w := metric.MustWeigher(3, metric.ExponentialDecay, 0.5)
	a, err := NewAssigner([]pivot.Signature{
		{1, 2, 3}, // group 1 (the paper's G1, centroid o1)
		{2, 4, 5}, // group 2 (the paper's G2, centroid o2)
	}, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The paper's Example 1, object X: P4→ = <3,4,1>, P4↛ = <1,3,4>.
// OD(X, o1) = 1 < OD(X, o2) = 2 — unique smallest, assign to G1.
func TestAssignExample1X(t *testing.T) {
	a := exampleAssigner(t)
	if got, _ := a.Candidates(pivot.Signature{3, 4, 1}, pivot.Signature{1, 3, 4}); !equalIDs(got, 1) {
		t.Fatalf("X candidates = %v, want [1]", got)
	}
}

// Example 1, object Y: P4→ = <4,2,1>, P4↛ = <1,2,4>.
// OD tie (1, 1); WD(Y, o1) = 1 > WD(Y, o2) = 0.25 — assign to G2.
func TestAssignExample1Y(t *testing.T) {
	a := exampleAssigner(t)
	if got, _ := a.Candidates(pivot.Signature{4, 2, 1}, pivot.Signature{1, 2, 4}); !equalIDs(got, 2) {
		t.Fatalf("Y candidates = %v, want [2]", got)
	}
}

// An object sharing no pivot with any centroid goes to the fall-back group
// G0 (Algorithm 1, Lines 3-5).
func TestAssignFallback(t *testing.T) {
	a := exampleAssigner(t)
	if got, _ := a.Candidates(pivot.Signature{7, 8, 9}, pivot.Signature{7, 8, 9}); !equalIDs(got, FallbackGroup) {
		t.Fatalf("disjoint object candidates = %v, want [%d]", got, FallbackGroup)
	}
}

// equalIDs reports whether got is exactly want, in order.
func equalIDs(got []int, want ...int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestCandidatesExposesTies(t *testing.T) {
	a := exampleAssigner(t)
	// Z from Example 1 ties in both OD and WD: both groups remain.
	ids, bestOD := a.Candidates(pivot.Signature{6, 2, 7}, pivot.Signature{2, 6, 7})
	if bestOD != 2 {
		t.Fatalf("bestOD = %d, want 2", bestOD)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("candidates = %v, want [1 2]", ids)
	}
	// Y resolves by WD to exactly group 2.
	ids, _ = a.Candidates(pivot.Signature{4, 2, 1}, pivot.Signature{1, 2, 4})
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("Y candidates = %v, want [2]", ids)
	}
	// Disjoint: the fall-back group is the only candidate.
	ids, bestOD = a.Candidates(pivot.Signature{7, 8, 9}, pivot.Signature{7, 8, 9})
	if bestOD != 3 || len(ids) != 1 || ids[0] != FallbackGroup {
		t.Fatalf("disjoint candidates = %v (bestOD %d), want [0] with OD 3", ids, bestOD)
	}
}

func TestBestByOverlap(t *testing.T) {
	a := exampleAssigner(t)
	ids, od := a.BestByOverlap(pivot.Signature{1, 3, 4})
	if od != 1 || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("BestByOverlap = %v, %d; want [1], 1", ids, od)
	}
}

func TestGroupsWithinOD(t *testing.T) {
	a := exampleAssigner(t)
	// <1,2,4>: OD to o1 = 1, OD to o2 = 1.
	got := a.GroupsWithinOD(pivot.Signature{1, 2, 4}, 1)
	if len(got) != 2 {
		t.Fatalf("GroupsWithinOD(1) = %v, want both groups", got)
	}
	got = a.GroupsWithinOD(pivot.Signature{1, 2, 4}, 0)
	if len(got) != 0 {
		t.Fatalf("GroupsWithinOD(0) = %v, want none", got)
	}
}

func TestNewAssignerValidation(t *testing.T) {
	w := metric.MustWeigher(3, metric.ExponentialDecay, 0.5)
	for _, c := range []struct {
		name string
		sig  pivot.Signature
	}{
		{"length mismatch", pivot.Signature{1, 2}},
		{"descending", pivot.Signature{3, 2, 1}},
		{"duplicate ID", pivot.Signature{1, 1, 2}},
		{"negative ID", pivot.Signature{-1, 2, 3}},
		{"ID beyond the pivot count", pivot.Signature{1, 2, 10}},
	} {
		if _, err := NewAssigner([]pivot.Signature{c.sig}, w, 10); err == nil {
			t.Errorf("%s: centroid %v accepted", c.name, c.sig)
		}
	}
}

// A degenerate assigner with no real centroids must route everything to the
// fall-back group instead of returning an empty candidate set — an empty
// GList would leave the query algorithm with no target and crash it.
func TestCandidatesEmptyRoutesToFallback(t *testing.T) {
	w := metric.MustWeigher(3, metric.ExponentialDecay, 0.5)
	a, err := NewAssigner(nil, w, 10)
	if err != nil {
		t.Fatalf("NewAssigner(nil): %v", err)
	}
	if a.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d, want 1 (fall-back only)", a.NumGroups())
	}
	rs := pivot.Signature{1, 2, 3}
	ids, bestOD := a.Candidates(rs, rs.RankInsensitive())
	if len(ids) != 1 || ids[0] != FallbackGroup {
		t.Fatalf("Candidates = %v, want [FallbackGroup]", ids)
	}
	if bestOD != 3 {
		t.Fatalf("bestOD = %d, want m=3 (no-overlap distance)", bestOD)
	}
}

func TestAssignerAccessors(t *testing.T) {
	a := exampleAssigner(t)
	if a.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3 (fall-back + 2)", a.NumGroups())
	}
	if a.Centroid(0) != nil {
		t.Fatal("fall-back centroid should be nil")
	}
	if !a.Centroid(2).Equal(pivot.Signature{2, 4, 5}) {
		t.Fatalf("Centroid(2) = %v", a.Centroid(2))
	}
	if a.Weigher() == nil {
		t.Fatal("Weigher accessor returned nil")
	}
}

// Assignment is a pure function of the signatures: a tie-free object always
// yields the same single group, and a tied object always the same list in
// ascending group order, which the caller's lowest-ID rule relies on.
func TestAssignDeterministicWithoutTies(t *testing.T) {
	a := exampleAssigner(t)
	for i := 0; i < 20; i++ {
		if got, _ := a.Candidates(pivot.Signature{3, 4, 1}, pivot.Signature{1, 3, 4}); !equalIDs(got, 1) {
			t.Fatalf("call %d changed a tie-free assignment to %v", i, got)
		}
		if got, _ := a.Candidates(pivot.Signature{6, 2, 7}, pivot.Signature{2, 6, 7}); !equalIDs(got, 1, 2) {
			t.Fatalf("call %d changed a tied candidate list to %v", i, got)
		}
	}
}

// With the WD tie-break disabled (the dual-representation ablation), OD
// ties must pass through unresolved, leaving the choice to the caller.
func TestDisabledWeightTieBreak(t *testing.T) {
	a := exampleAssigner(t)
	a.UseWeightTieBreak = false
	// Y from Example 1 ties on OD; with WD disabled both groups survive.
	ids, _ := a.Candidates(pivot.Signature{4, 2, 1}, pivot.Signature{1, 2, 4})
	if !equalIDs(ids, 1, 2) {
		t.Fatalf("candidates with WD disabled = %v, want both tied groups [1 2]", ids)
	}
}

// The centroid slices passed to NewAssigner must be defensively copied.
func TestNewAssignerCopiesCentroids(t *testing.T) {
	w := metric.MustWeigher(3, metric.ExponentialDecay, 0.5)
	c := pivot.Signature{1, 2, 3}
	a, err := NewAssigner([]pivot.Signature{c}, w, 10)
	if err != nil {
		t.Fatal(err)
	}
	c[0] = 99
	if !a.Centroid(1).Equal(pivot.Signature{1, 2, 3}) {
		t.Fatal("assigner shares storage with caller's centroid")
	}
}

// randomSorted draws m distinct pivot IDs from [0, r), ascending: a
// rank-insensitive signature.
func randomSorted(rng *rand.Rand, r, m int) pivot.Signature {
	sig := pivot.Signature(rng.Perm(r)[:m])
	slices.Sort(sig)
	return sig
}

// The bitset Overlap Distance must equal metric.OverlapDist, the merge over
// sorted signatures it replaces: BestByOverlap's minimum and tied groups,
// and GroupsWithinOD at every threshold, against a brute-force pass over
// the centroids. Pivot counts straddle the 64-bit word boundaries, and
// queries are sometimes a centroid itself (OD 0).
func TestOverlapBitsetGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	for _, c := range []struct{ r, m, groups int }{
		{3, 3, 1},
		{12, 3, 6},
		{64, 10, 40},
		{65, 10, 40},
		{200, 10, 120},
		{300, 25, 30},
	} {
		w := metric.MustWeigher(c.m, metric.ExponentialDecay, 0.5)
		centroids := make([]pivot.Signature, c.groups)
		for i := range centroids {
			centroids[i] = randomSorted(rng, c.r, c.m)
		}
		a, err := NewAssigner(centroids, w, c.r)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 100; trial++ {
			ri := randomSorted(rng, c.r, c.m)
			if trial%5 == 0 {
				ri = centroids[rng.IntN(c.groups)].Clone()
			}
			var wantIDs []int
			wantOD := c.m + 1
			for id := 1; id <= c.groups; id++ {
				od := metric.OverlapDist(ri, centroids[id-1])
				switch {
				case od < wantOD:
					wantOD, wantIDs = od, []int{id}
				case od == wantOD:
					wantIDs = append(wantIDs, id)
				}
			}
			ids, bestOD := a.BestByOverlap(ri)
			if bestOD != wantOD || !slices.Equal(ids, wantIDs) {
				t.Fatalf("r=%d m=%d %v: BestByOverlap = %v, %d; brute force %v, %d", c.r, c.m, ri, ids, bestOD, wantIDs, wantOD)
			}
			for maxOD := 0; maxOD <= c.m; maxOD++ {
				var want []int
				for id := 1; id <= c.groups; id++ {
					if metric.OverlapDist(ri, centroids[id-1]) <= maxOD {
						want = append(want, id)
					}
				}
				if got := a.GroupsWithinOD(ri, maxOD); !slices.Equal(got, want) {
					t.Fatalf("r=%d m=%d %v: GroupsWithinOD(%d) = %v, brute force %v", c.r, c.m, ri, maxOD, got, want)
				}
			}
		}
	}
}
