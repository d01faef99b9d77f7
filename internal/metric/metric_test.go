package metric

import (
	"math/rand/v2"
	"sort"
	"testing"

	"climber/internal/pivot"
)

// The paper's worked OD example (Section IV-C): P4↛(X) = <1,3,6,8>,
// P4↛(Y) = <2,3,4,6> share {3, 6}, so OD = 4 - 2 = 2.
func TestOverlapDistPaperExample(t *testing.T) {
	x := pivot.Signature{1, 3, 6, 8}
	y := pivot.Signature{2, 3, 4, 6}
	if got := OverlapDist(x, y); got != 2 {
		t.Fatalf("OD = %d, want 2", got)
	}
}

func TestOverlapDistBounds(t *testing.T) {
	a := pivot.Signature{1, 2, 3}
	if got := OverlapDist(a, a); got != 0 {
		t.Fatalf("OD(a, a) = %d, want 0", got)
	}
	b := pivot.Signature{4, 5, 6}
	if got := OverlapDist(a, b); got != 3 {
		t.Fatalf("OD of disjoint sets = %d, want m = 3", got)
	}
}

func TestOverlapDistMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OD of different-length signatures did not panic")
		}
	}()
	OverlapDist(pivot.Signature{1}, pivot.Signature{1, 2})
}

// Properties of OD: symmetry, range [0, m], and identity of indiscernibles
// on sets.
func TestOverlapDistProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 8))
	randSig := func(m int) pivot.Signature {
		seen := map[int]bool{}
		sig := make(pivot.Signature, 0, m)
		for len(sig) < m {
			v := rng.IntN(20)
			if !seen[v] {
				seen[v] = true
				sig = append(sig, v)
			}
		}
		sort.Ints(sig)
		return sig
	}
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.IntN(8)
		a, b := randSig(m), randSig(m)
		dab, dba := OverlapDist(a, b), OverlapDist(b, a)
		if dab != dba {
			t.Fatalf("OD asymmetric: %d vs %d", dab, dba)
		}
		if dab < 0 || dab > m {
			t.Fatalf("OD out of range: %d not in [0, %d]", dab, m)
		}
		if dab == 0 && !a.Equal(b) {
			t.Fatalf("OD = 0 for different sets %v, %v", a, b)
		}
	}
}

func TestIntersectSize(t *testing.T) {
	cases := []struct {
		a, b pivot.Signature
		want int
	}{
		{pivot.Signature{1, 2, 3}, pivot.Signature{2, 3, 4}, 2},
		{pivot.Signature{}, pivot.Signature{}, 0},
		{pivot.Signature{1}, pivot.Signature{1}, 1},
		{pivot.Signature{1, 5, 9}, pivot.Signature{2, 6, 10}, 0},
	}
	for _, c := range cases {
		if got := IntersectSize(c.a, c.b); got != c.want {
			t.Errorf("IntersectSize(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
