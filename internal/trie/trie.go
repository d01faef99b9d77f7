// Package trie implements the trie-based Voronoi splitting of data-series
// groups into partitions (paper Section IV-D, Definition 12, Figure 5).
//
// A group whose estimated size exceeds the storage capacity c is split by
// distributing its members on the 1st pivot of their rank-sensitive P4→
// signatures; any child still larger than c recursively splits on the next
// signature position, until every leaf holds fewer than c objects (or the
// prefix is exhausted). Each leaf's root-to-leaf path spells the pivot
// prefix shared by its members, so leaves are Voronoi-aligned fragments of
// the pivot space. Leaves are later packed into physical partitions (see
// package packing); each node — leaf or internal — is labelled with the
// partition IDs covering its subtree.
package trie

import (
	"fmt"
	"sort"

	"climber/internal/pivot"
)

// Entry is one aggregated signature with its (possibly sample-scaled)
// occurrence count — the unit of trie construction during index building
// (paper Figure 6, Step 3).
type Entry struct {
	Sig   pivot.Signature // rank-sensitive P4→ signature
	Count int
}

// Node is a trie node. The edge from the parent is labelled with Pivot (the
// pivot ID at position Depth-1 of member signatures); the root has Pivot -1
// and Depth 0.
type Node struct {
	ID       int     // unique within the tree, assigned in DFS preorder
	Pivot    int     // edge label from parent; -1 for the root
	Depth    int     // root = 0
	Count    int     // number of member objects in the subtree
	Children []*Node // sorted by Pivot for deterministic traversal

	// Partitions holds the IDs of the physical partitions covering this
	// subtree: exactly one for a leaf, the union of the children's for an
	// internal node (paper Figure 5, labels β6/β7).
	Partitions []int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Child returns the child reached by the given pivot edge, or nil.
func (n *Node) Child(pivotID int) *Node {
	// Children are sorted by Pivot; binary search keeps deep tries cheap.
	lo, hi := 0, len(n.Children)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case n.Children[mid].Pivot == pivotID:
			return n.Children[mid]
		case n.Children[mid].Pivot < pivotID:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return nil
}

// Build constructs the trie for one group from its aggregated signatures.
// Splitting follows Definition 12: a node splits while its count exceeds
// capacity and signature positions remain. The returned root always exists;
// a group that fits in one partition yields a childless root.
func Build(entries []Entry, capacity int) (*Node, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("trie: capacity must be positive, got %d", capacity)
	}
	total := 0
	prefixLen := -1
	for _, e := range entries {
		if e.Count < 0 {
			return nil, fmt.Errorf("trie: negative count %d for signature %v", e.Count, e.Sig)
		}
		if prefixLen == -1 {
			prefixLen = len(e.Sig)
		} else if len(e.Sig) != prefixLen {
			return nil, fmt.Errorf("trie: mixed signature lengths %d and %d", prefixLen, len(e.Sig))
		}
		total += e.Count
	}
	root := &Node{Pivot: -1, Depth: 0, Count: total}
	split(root, entries, capacity)
	enumerate(root)
	return root, nil
}

// split recursively distributes entries below node n on signature position
// n.Depth.
func split(n *Node, entries []Entry, capacity int) {
	if n.Count <= capacity {
		return // small enough: leaf
	}
	if len(entries) == 0 || n.Depth >= len(entries[0].Sig) {
		return // prefix exhausted: unsplittable (possibly oversized) leaf
	}
	byPivot := make(map[int][]Entry)
	for _, e := range entries {
		p := e.Sig[n.Depth]
		byPivot[p] = append(byPivot[p], e)
	}
	// Even when all members share the next pivot (a single-child chain),
	// we descend: deeper positions may still discriminate, and the depth
	// bound above guarantees termination at the prefix length.
	pivots := make([]int, 0, len(byPivot))
	for p := range byPivot {
		pivots = append(pivots, p)
	}
	sort.Ints(pivots)
	for _, p := range pivots {
		group := byPivot[p]
		cnt := 0
		for _, e := range group {
			cnt += e.Count
		}
		child := &Node{Pivot: p, Depth: n.Depth + 1, Count: cnt}
		split(child, group, capacity)
		n.Children = append(n.Children, child)
	}
}

// enumerate assigns DFS-preorder IDs.
func enumerate(root *Node) {
	id := 0
	var walk func(*Node)
	walk = func(n *Node) {
		n.ID = id
		id++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}

// Descend follows the rank-sensitive signature from the root as deep as
// matching children exist and returns the deepest node reached together
// with the matched path length (paper Algorithm 3, Lines 10-13). A root
// with no matching child yields (root, 0).
func (n *Node) Descend(sig pivot.Signature) (node *Node, pathLen int) {
	cur := n
	for depth := 0; depth < len(sig); depth++ {
		next := cur.Child(sig[depth])
		if next == nil {
			return cur, depth
		}
		cur = next
	}
	return cur, len(sig)
}

// Leaves returns the leaf nodes in DFS preorder.
func (n *Node) Leaves() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(nd *Node) {
		if nd.IsLeaf() {
			out = append(out, nd)
			return
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// Nodes returns every node in DFS preorder (index == Node.ID).
func (n *Node) Nodes() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(nd *Node) {
		out = append(out, nd)
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// PropagatePartitions recomputes every internal node's partition label as
// the sorted union of its children's labels, assuming leaves have already
// been assigned their partition IDs by the packer.
func (n *Node) PropagatePartitions() {
	var walk func(*Node) []int
	walk = func(nd *Node) []int {
		if nd.IsLeaf() {
			return nd.Partitions
		}
		set := make(map[int]struct{})
		for _, c := range nd.Children {
			for _, p := range walk(c) {
				set[p] = struct{}{}
			}
		}
		union := make([]int, 0, len(set))
		for p := range set {
			union = append(union, p)
		}
		sort.Ints(union)
		nd.Partitions = union
		return union
	}
	walk(n)
}
