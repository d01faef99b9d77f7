package series

import (
	"math/rand/v2"
	"sort"
	"testing"
)

func TestTopKBasic(t *testing.T) {
	top := NewTopK(3)
	for i, d := range []float64{5, 1, 4, 2, 8, 3} {
		top.Push(i, d)
	}
	got := top.Results()
	want := []Result{{1, 1}, {3, 2}, {5, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	top := NewTopK(10)
	top.Push(1, 2.0)
	top.Push(2, 1.0)
	got := top.Results()
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("Results = %+v, want [{2 1} {1 2}]", got)
	}
	if top.Full() {
		t.Fatal("TopK with 2/10 entries reports Full")
	}
	if _, ok := top.Bound(); ok {
		t.Fatal("Bound ok = true before the heap is full")
	}
}

func TestTopKBound(t *testing.T) {
	top := NewTopK(2)
	top.Push(0, 5)
	top.Push(1, 3)
	b, ok := top.Bound()
	if !ok || b != 5 {
		t.Fatalf("Bound = %g, %v, want 5, true", b, ok)
	}
	if top.Push(2, 6) {
		t.Fatal("Push above bound was admitted")
	}
	if !top.Push(3, 1) {
		t.Fatal("Push below bound was rejected")
	}
	b, _ = top.Bound()
	if b != 3 {
		t.Fatalf("Bound after displacement = %g, want 3", b)
	}
}

func TestTopKInvalidK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

// Property: TopK must agree with sorting the full candidate list.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(200)
		k := 1 + rng.IntN(20)
		dists := make([]float64, n)
		top := NewTopK(k)
		for i := range dists {
			dists[i] = rng.Float64() * 100
			top.Push(i, dists[i])
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool {
			if dists[ids[a]] != dists[ids[b]] {
				return dists[ids[a]] < dists[ids[b]]
			}
			return ids[a] < ids[b]
		})
		want := ids
		if n > k {
			want = ids[:k]
		}
		got := top.Results()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i] {
				t.Fatalf("trial %d: result %d = id %d, want id %d", trial, i, got[i].ID, want[i])
			}
		}
	}
}

// Property: the kept set does not depend on push order. A multiset of
// candidates drawn from a handful of distances (so most of them tie, at the
// k-th distance too) must give the same Results — the k first in (Dist, ID)
// order — whichever order it is pushed in, as the candidates of a plan
// arrive in whatever order its steps reach them.
func TestTopKTiesIndependentOfPushOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(100)
		k := 1 + rng.IntN(n)
		cands := make([]Result, n)
		for i := range cands {
			cands[i] = Result{ID: i, Dist: float64(rng.IntN(4))}
		}
		want := append([]Result(nil), cands...)
		sort.Slice(want, func(i, j int) bool { return want[i].Before(want[j]) })
		want = want[:k]
		for order := 0; order < 20; order++ {
			rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			top := NewTopK(k)
			for _, c := range cands {
				top.Push(c.ID, c.Dist)
			}
			got := top.Results()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (n=%d, k=%d), order %d: result %d = %+v, want %+v",
						trial, n, k, order, i, got[i], want[i])
				}
			}
		}
	}
	// The two-push case: an equally distant candidate displaces the k-th
	// result only with a lower ID, in either order.
	for _, order := range [][2]int{{5, 3}, {3, 5}} {
		top := NewTopK(1)
		top.Push(order[0], 1)
		top.Push(order[1], 1)
		if got := top.Results(); got[0].ID != 3 {
			t.Fatalf("push order %v kept %+v, want id 3", order, got)
		}
	}
}

func TestRecall(t *testing.T) {
	exact := []Result{{1, 0}, {2, 0}, {3, 0}, {4, 0}}
	approx := []Result{{2, 0}, {4, 0}, {9, 0}, {10, 0}}
	if got := Recall(approx, exact); got != 0.5 {
		t.Fatalf("Recall = %g, want 0.5", got)
	}
	if got := Recall(nil, exact); got != 0 {
		t.Fatalf("Recall of empty approx = %g, want 0", got)
	}
	if got := Recall(approx, nil); got != 0 {
		t.Fatalf("Recall with empty exact = %g, want 0", got)
	}
	if got := Recall(exact, exact); got != 1 {
		t.Fatalf("self Recall = %g, want 1", got)
	}
}
