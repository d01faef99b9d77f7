package trie

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"climber/internal/pivot"
)

// A scenario mirroring the paper's Figure 5: group G3 holds 5,250 objects
// with capacity 3,000. Splitting on the 1st pivot gives a child "6" with
// 3,700 objects (over capacity, splits again on the 2nd pivot) and smaller
// children that become leaves.
func TestBuildFigure5Shape(t *testing.T) {
	entries := []Entry{
		{Sig: pivot.Signature{6, 2, 1}, Count: 1500},
		{Sig: pivot.Signature{6, 5, 3}, Count: 1400},
		{Sig: pivot.Signature{6, 1, 4}, Count: 800},
		{Sig: pivot.Signature{4, 6, 7}, Count: 900},
		{Sig: pivot.Signature{7, 6, 4}, Count: 650},
	}
	root, err := Build(entries, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if root.Count != 5250 {
		t.Fatalf("root count = %d, want 5250", root.Count)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root fanout = %d, want 3 (pivots 4, 6, 7)", len(root.Children))
	}
	n6 := root.Child(6)
	if n6 == nil || n6.Count != 3700 {
		t.Fatalf("child 6 = %+v, want count 3700", n6)
	}
	if n6.IsLeaf() {
		t.Fatal("child 6 exceeds capacity and must split")
	}
	if len(n6.Children) != 3 {
		t.Fatalf("child 6 fanout = %d, want 3 (pivots 1, 2, 5)", len(n6.Children))
	}
	n4 := root.Child(4)
	if n4 == nil || !n4.IsLeaf() || n4.Count != 900 {
		t.Fatalf("child 4 should be a 900-object leaf, got %+v", n4)
	}
	// Trie nodes may carry pivots absent from the group centroid — that is
	// acceptable per Section IV-D.
	if root.Child(7) == nil {
		t.Fatal("child 7 missing")
	}
}

func TestBuildSmallGroupIsSingleLeaf(t *testing.T) {
	entries := []Entry{
		{Sig: pivot.Signature{1, 2, 3}, Count: 10},
		{Sig: pivot.Signature{4, 5, 6}, Count: 20},
	}
	root, err := Build(entries, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !root.IsLeaf() {
		t.Fatal("group under capacity must stay a single leaf (Definition 12)")
	}
	if root.Count != 30 {
		t.Fatalf("count = %d, want 30", root.Count)
	}
}

// Definition 12 invariants: partitions are disjoint and cover the group.
// For the trie this means every leaf's count sums to the root count and
// signatures route to exactly one leaf.
func TestBuildCoverageInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 3))
	for trial := 0; trial < 30; trial++ {
		var entries []Entry
		seen := map[string]bool{}
		n := 20 + rng.IntN(100)
		for i := 0; i < n; i++ {
			sig := pivot.Signature{rng.IntN(5), 5 + rng.IntN(5), 10 + rng.IntN(5)}
			if seen[sig.Key()] {
				continue
			}
			seen[sig.Key()] = true
			entries = append(entries, Entry{Sig: sig, Count: 1 + rng.IntN(50)})
		}
		capacity := 20 + rng.IntN(100)
		root, err := Build(entries, capacity)
		if err != nil {
			t.Fatal(err)
		}
		var leafSum int
		for _, l := range root.Leaves() {
			leafSum += l.Count
		}
		if leafSum != root.Count {
			t.Fatalf("leaf counts sum to %d, root count %d", leafSum, root.Count)
		}
		// Internal node counts equal the sum of their children.
		for _, nd := range root.Nodes() {
			if nd.IsLeaf() {
				continue
			}
			var s int
			for _, c := range nd.Children {
				s += c.Count
			}
			if s != nd.Count {
				t.Fatalf("internal node %d count %d != children sum %d", nd.ID, nd.Count, s)
			}
		}
		// Every entry routes to exactly one leaf, and that leaf's depth
		// prefix matches the signature.
		for _, e := range entries {
			if node, _ := root.Descend(e.Sig); !node.IsLeaf() {
				t.Fatalf("entry %v does not reach a leaf in its own trie", e.Sig)
			}
		}
	}
}

func TestLeafCapacityRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	var entries []Entry
	for i := 0; i < 200; i++ {
		entries = append(entries, Entry{
			Sig:   pivot.Signature{rng.IntN(8), rng.IntN(8), rng.IntN(8), rng.IntN(8)},
			Count: 1,
		})
	}
	root, err := Build(entries, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range root.Leaves() {
		// A leaf may exceed capacity only when the prefix is exhausted
		// (identical signatures can't split further).
		if l.Count > 10 && l.Depth < 4 {
			t.Fatalf("splittable leaf at depth %d holds %d > capacity 10", l.Depth, l.Count)
		}
	}
}

func TestDescend(t *testing.T) {
	entries := []Entry{
		{Sig: pivot.Signature{6, 2, 1}, Count: 1500},
		{Sig: pivot.Signature{6, 5, 3}, Count: 1400},
		{Sig: pivot.Signature{6, 1, 4}, Count: 800},
		{Sig: pivot.Signature{4, 6, 7}, Count: 900},
	}
	root, err := Build(entries, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Splitting stops once the depth-2 children fit in the capacity, so the
	// walk for <6,2,1> ends at the depth-2 leaf labelled pivot 2.
	node, depth := root.Descend(pivot.Signature{6, 2, 1})
	if depth != 2 || !node.IsLeaf() || node.Pivot != 2 {
		t.Fatalf("Descend: depth %d pivot %d leaf %v, want 2, 2, true", depth, node.Pivot, node.IsLeaf())
	}
	// Partial match: pivot 6 exists, but child 9 does not.
	node, depth = root.Descend(pivot.Signature{6, 9, 9})
	if depth != 1 || node.Pivot != 6 {
		t.Fatalf("partial Descend: depth %d node pivot %d, want 1, 6", depth, node.Pivot)
	}
	// No match at all: stay at root.
	node, depth = root.Descend(pivot.Signature{9, 9, 9})
	if depth != 0 || node != root {
		t.Fatalf("unmatched Descend should return the root at depth 0")
	}
	// A partial path stops at an internal node.
	if node, _ := root.Descend(pivot.Signature{6, 9, 9}); node.IsLeaf() {
		t.Fatalf("Descend on partial path stopped at leaf %+v, want an internal node", node)
	}
}

func TestEnumerateIDsAreDFSPreorder(t *testing.T) {
	entries := []Entry{
		{Sig: pivot.Signature{1, 2}, Count: 50},
		{Sig: pivot.Signature{1, 3}, Count: 50},
		{Sig: pivot.Signature{2, 4}, Count: 50},
	}
	root, err := Build(entries, 60)
	if err != nil {
		t.Fatal(err)
	}
	nodes := root.Nodes()
	for i, nd := range nodes {
		if nd.ID != i {
			t.Fatalf("node at preorder position %d has ID %d", i, nd.ID)
		}
	}
}

func TestPropagatePartitions(t *testing.T) {
	entries := []Entry{
		{Sig: pivot.Signature{1, 2}, Count: 50},
		{Sig: pivot.Signature{1, 3}, Count: 50},
		{Sig: pivot.Signature{2, 4}, Count: 50},
	}
	root, err := Build(entries, 60)
	if err != nil {
		t.Fatal(err)
	}
	leaves := root.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("got %d leaves, want 3", len(leaves))
	}
	leaves[0].Partitions = []int{7}
	leaves[1].Partitions = []int{7}
	leaves[2].Partitions = []int{8}
	root.PropagatePartitions()
	if got := root.Partitions; len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("root partitions = %v, want [7 8]", got)
	}
	n1 := root.Child(1)
	if got := n1.Partitions; len(got) != 1 || got[0] != 7 {
		t.Fatalf("internal node partitions = %v, want [7]", got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]Entry{{Sig: pivot.Signature{1}, Count: 1}}, 0); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := Build([]Entry{{Sig: pivot.Signature{1}, Count: -1}}, 5); err == nil {
		t.Error("negative count should fail")
	}
	if _, err := Build([]Entry{
		{Sig: pivot.Signature{1}, Count: 1},
		{Sig: pivot.Signature{1, 2}, Count: 1},
	}, 5); err == nil {
		t.Error("mixed signature lengths should fail")
	}
}

func TestBuildEmptyEntries(t *testing.T) {
	root, err := Build(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !root.IsLeaf() || root.Count != 0 {
		t.Fatalf("empty trie: %+v", root)
	}
}

// Property (testing/quick): for arbitrary signature multisets, the built
// trie routes every member signature to a leaf whose root path is a prefix
// of the signature, and the leaf counts partition the total.
func TestBuildRoutingProperty(t *testing.T) {
	f := func(raw [][3]uint8, capSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		capacity := 1 + int(capSeed)%64
		seen := map[string]bool{}
		var entries []Entry
		for _, r := range raw {
			sig := pivot.Signature{int(r[0]) % 6, int(r[1]) % 6, int(r[2]) % 6}
			if seen[sig.Key()] {
				continue
			}
			seen[sig.Key()] = true
			entries = append(entries, Entry{Sig: sig, Count: 1 + int(r[0])%10})
		}
		root, err := Build(entries, capacity)
		if err != nil {
			return false
		}
		var leafSum int
		for _, l := range root.Leaves() {
			leafSum += l.Count
		}
		if leafSum != root.Count {
			return false
		}
		for _, e := range entries {
			node, pathLen := root.Descend(e.Sig)
			if node == nil || pathLen < 0 || pathLen > len(e.Sig) {
				return false
			}
			// The walk must at least reach a node containing the entry's
			// count (its own subtree).
			if node.Count < e.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Identical signatures cannot split: the trie must terminate with a chain
// ending in an oversized leaf rather than recurse forever.
func TestBuildIdenticalSignaturesTerminate(t *testing.T) {
	entries := []Entry{{Sig: pivot.Signature{3, 1, 4}, Count: 1000}}
	root, err := Build(entries, 10)
	if err != nil {
		t.Fatal(err)
	}
	leaves := root.Leaves()
	if len(leaves) != 1 {
		t.Fatalf("got %d leaves, want 1", len(leaves))
	}
	if leaves[0].Count != 1000 {
		t.Fatalf("leaf count = %d, want 1000", leaves[0].Count)
	}
	if leaves[0].Depth != 3 {
		t.Fatalf("chain should extend to the full prefix; leaf depth = %d", leaves[0].Depth)
	}
}
