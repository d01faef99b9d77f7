// Package pivot implements CLIMBER's pivot-permutation feature space
// (paper Sections IV-A and IV-B): pivot selection, pivot permutations, and
// the P4 dual signature of Definition 6 — a rank-sensitive Pivot Permutation
// Prefix (Definition 5) paired with its rank-insensitive (lexicographically
// ordered) counterpart.
//
// Pivots are points in the PAA space (w dimensions). Each data series, after
// PAA segmentation, is represented by the IDs of its m nearest pivots:
//
//	P4→(X)  = <id of 1st-closest pivot, 2nd-closest, ..., m-th-closest>
//	P4↛(X) = the same m IDs sorted ascending (ranking information dropped)
//
// The rank-insensitive signature induces coarse-grained Voronoi-style
// grouping; the rank-sensitive signature refines groups into partitions.
package pivot

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"climber/internal/series"
)

// Set is a fixed collection of pivots in PAA space together with the prefix
// length m. Once selected during index construction the pivots remain fixed
// for the lifetime of the system (paper Section V, Step 1). A Set is
// immutable and safe for concurrent use.
type Set struct {
	dim    int       // dimensionality of the pivot space (PAA segments w)
	prefix int       // prefix length m
	flat   []float64 // r × dim pivot coordinates
}

// NewSet builds a pivot set from r pivot vectors, each of dimension dim,
// with rank prefix length m <= r.
func NewSet(pivots [][]float64, prefixLen int) (*Set, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("pivot: at least one pivot is required")
	}
	dim := len(pivots[0])
	if dim == 0 {
		return nil, fmt.Errorf("pivot: pivots must have positive dimension")
	}
	if prefixLen <= 0 || prefixLen > len(pivots) {
		return nil, fmt.Errorf("pivot: prefix length %d must be in [1, %d]", prefixLen, len(pivots))
	}
	s := &Set{dim: dim, prefix: prefixLen, flat: make([]float64, 0, len(pivots)*dim)}
	for i, p := range pivots {
		if len(p) != dim {
			return nil, fmt.Errorf("pivot: pivot %d has dimension %d, want %d", i, len(p), dim)
		}
		s.flat = append(s.flat, p...)
	}
	return s, nil
}

// SelectRandom selects r pivots uniformly at random (without replacement)
// from the candidate PAA signatures, following the paper's finding that
// random selection is competitive with sophisticated selection schemes
// (Section V Step 1, citing [24], [29], [44], [45], [59]).
func SelectRandom(candidates [][]float64, r, prefixLen int, rng *rand.Rand) (*Set, error) {
	if r <= 0 {
		return nil, fmt.Errorf("pivot: pivot count must be positive, got %d", r)
	}
	if len(candidates) < r {
		return nil, fmt.Errorf("pivot: need at least %d candidates, have %d", r, len(candidates))
	}
	perm := rng.Perm(len(candidates))
	chosen := make([][]float64, r)
	for i := 0; i < r; i++ {
		chosen[i] = candidates[perm[i]]
	}
	return NewSet(chosen, prefixLen)
}

// R returns the number of pivots.
func (s *Set) R() int { return len(s.flat) / s.dim }

// PrefixLen returns the configured prefix length m.
func (s *Set) PrefixLen() int { return s.prefix }

// Pivot returns the coordinates of pivot id. The returned slice aliases
// internal storage and must not be modified.
func (s *Set) Pivot(id int) []float64 {
	off := id * s.dim
	return s.flat[off : off+s.dim : off+s.dim]
}

// Flat exposes the backing coordinate slice (R() × Dim() values) for
// serialisation by the storage layer.
func (s *Set) Flat() []float64 { return s.flat }

// Permutation computes the full pivot permutation of the PAA signature x:
// all pivot IDs sorted by ascending distance to x (paper Section IV-A).
// Ties are broken by ascending pivot ID for determinism.
func (s *Set) Permutation(x []float64) []int {
	r := s.R()
	dists := make([]float64, r)
	ids := make([]int, r)
	for i := 0; i < r; i++ {
		dists[i] = series.SqDist(x, s.Pivot(i))
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := dists[ids[a]], dists[ids[b]]
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	return ids
}

// RankSensitive computes the Pivot Permutation Prefix P4→(x) of Definition 5:
// the IDs of the m nearest pivots to x, ordered by ascending distance.
// It runs in O(r·dim + r·log m) using a bounded max-heap rather than sorting
// the full permutation.
func (s *Set) RankSensitive(x []float64) Signature {
	if len(x) != s.dim {
		panic(fmt.Sprintf("pivot: signature of %d-dim point in %d-dim pivot space", len(x), s.dim))
	}
	top := series.NewTopK(s.prefix)
	r := s.R()
	for i := 0; i < r; i++ {
		if bound, ok := top.Bound(); ok {
			d := series.SqDistEarlyAbandon(x, s.Pivot(i), bound)
			if d < bound {
				top.Push(i, d)
			}
			continue
		}
		top.Push(i, series.SqDist(x, s.Pivot(i)))
	}
	res := top.Results()
	sig := make(Signature, len(res))
	for i, rr := range res {
		sig[i] = rr.ID
	}
	return sig
}

// Dual computes both halves of the P4 dual signature of Definition 6 in one
// pass: the rank-sensitive prefix and its rank-insensitive lexicographic
// reordering.
func (s *Set) Dual(x []float64) (rankSensitive, rankInsensitive Signature) {
	rs := s.RankSensitive(x)
	return rs, rs.RankInsensitive()
}
