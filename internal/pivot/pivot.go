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
	// lanes is the series.LaneLayout of the pivots' full groups of
	// sixteen, nil where the machine has no lane kernel.
	lanes []float64
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
	if series.HasLaneKernel {
		s.lanes = series.LaneLayout(s.flat, dim)
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

// rankLanes is how many pivots the portable loop of distances measures at
// once. Each pivot keeps its own accumulator, summed in series.SqDist's
// order with its statement shape, so every distance rounds exactly as SqDist
// rounds it on every architecture; the lanes only break the dependency
// chain between one pivot's sum and the next.
const rankLanes = 4

// maxStackPivots is the pivot count up to which RankSensitive keeps its
// distances on the stack (r = 200 by default).
const maxStackPivots = 256

// RankSensitive computes the Pivot Permutation Prefix P4→(x) of Definition 5:
// the IDs of the m nearest pivots to x, ordered by ascending distance, ties
// by ascending pivot ID — Permutation(x)[:m]. It runs in O(r·dim + r·m)
// with no heap: every distance is computed (distances), then the pivots are
// offered in ID order to the m nearest so far, kept sorted in a small array,
// so a pivot equal in distance to a kept one ranks after it. Every distance
// is computed in full, which admits the same pivots an early-abandoning scan
// would: a partial sum never exceeds its full sum.
func (s *Set) RankSensitive(x []float64) Signature {
	return s.rankSensitive(x, s.lanes != nil)
}

// rankSensitive is RankSensitive with the choice of distance kernel made by
// the caller: lanes needs s.lanes.
func (s *Set) rankSensitive(x []float64, lanes bool) Signature {
	if len(x) != s.dim {
		panic(fmt.Sprintf("pivot: signature of %d-dim point in %d-dim pivot space", len(x), s.dim))
	}
	var stack [maxStackPivots]float64
	var d []float64
	if r := s.R(); r <= len(stack) {
		d = stack[:r]
	} else {
		d = make([]float64, r)
	}
	s.distances(x, d, lanes)

	ids := make(Signature, s.prefix)
	var distBuf [16]float64 // m = 10 by default: no allocation
	dists := distBuf[:]
	if s.prefix > len(dists) {
		dists = make([]float64, s.prefix)
	}
	n := 0
	for id, v := range d {
		n = admit(ids, dists, n, id, v)
	}
	return ids[:n]
}

// distances writes the squared distance from x to pivot i into d[i]
// (len(d) = r), each bit-equal to series.SqDist(x, s.Pivot(i)). With lanes
// the full groups of sixteen pivots go through the lane kernel
// (series.SqDistLanes); the rest, and every pivot without it, through the
// portable loop, rankLanes pivots at a time.
func (s *Set) distances(x, d []float64, lanes bool) {
	i := 0
	if lanes {
		i = len(s.lanes) / s.dim
		series.SqDistLanes(x, s.lanes, d[:i])
	}
	r, dim := len(d), s.dim
	for ; i+rankLanes <= r; i += rankLanes {
		off := i * dim
		p0 := s.flat[off : off+dim][:len(x)]
		p1 := s.flat[off+dim : off+2*dim][:len(x)]
		p2 := s.flat[off+2*dim : off+3*dim][:len(x)]
		p3 := s.flat[off+3*dim : off+4*dim][:len(x)]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			d0 := v - p0[j]
			s0 += d0 * d0
			d1 := v - p1[j]
			s1 += d1 * d1
			d2 := v - p2[j]
			s2 += d2 * d2
			d3 := v - p3[j]
			s3 += d3 * d3
		}
		d[i], d[i+1], d[i+2], d[i+3] = s0, s1, s2, s3
	}
	for ; i < r; i++ {
		d[i] = series.SqDist(x, s.Pivot(i))
	}
}

// admit offers pivot id at distance d to the m nearest pivots so far, held
// sorted by (distance, ID) in ids[:n] and dists[:n] (len(ids) = m), and
// returns the new count. Pivots are offered in ascending ID order, so one
// ranks after every kept pivot of equal distance: only a strictly smaller
// distance displaces the m-th.
func admit(ids Signature, dists []float64, n, id int, d float64) int {
	i := n
	if n == len(ids) {
		if !(d < dists[n-1]) {
			return n
		}
		i-- // the m-th falls out
	} else {
		n++
	}
	for ; i > 0 && d < dists[i-1]; i-- {
		ids[i], dists[i] = ids[i-1], dists[i-1]
	}
	ids[i], dists[i] = id, d
	return n
}

// Dual computes both halves of the P4 dual signature of Definition 6 in one
// pass: the rank-sensitive prefix and its rank-insensitive lexicographic
// reordering.
func (s *Set) Dual(x []float64) (rankSensitive, rankInsensitive Signature) {
	rs := s.RankSensitive(x)
	return rs, rs.RankInsensitive()
}
