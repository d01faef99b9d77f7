// Package metric implements the similarity metrics CLIMBER tailors to its
// P4 dual representation (paper Section IV-C, Definitions 7-11).
//
// The paper's key observation is that existing permutation distances assume
// a single ordered representation per object. CLIMBER compares objects at
// two granularities — rank-insensitive for group formation and
// rank-sensitive for tie-breaking — which requires the Overlap Distance and
// Weight Distance defined here.
package metric

import (
	"fmt"

	"climber/internal/pivot"
)

// OverlapDist computes the Overlap Distance of Definition 7 between two
// rank-insensitive signatures of equal prefix length m:
//
//	OD(X, Y) = m - |P4↛(X) ∩ P4↛(Y)|
//
// The result lies in [0, m]: 0 when the pivot sets coincide, m when they are
// disjoint. Both inputs must be sorted ascending (the rank-insensitive
// form); the intersection is then computed by a linear merge.
func OverlapDist(a, b pivot.Signature) int {
	m := len(a)
	if len(b) != m {
		panic(fmt.Sprintf("metric: overlap distance between signatures of lengths %d and %d", m, len(b)))
	}
	return m - IntersectSize(a, b)
}

// IntersectSize returns |a ∩ b| for two ascending-sorted signatures.
func IntersectSize(a, b pivot.Signature) int {
	var n, i, j int
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}
