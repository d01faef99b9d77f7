// Package grouping implements Algorithm 1 of the paper: the Group
// Assignment Rules that place a data series (or route a query) into one of
// the data-series groups of Definition 8.
//
// Assignment proceeds in three stages:
//
//  1. Overlap Distance (Definition 7) between the object's rank-insensitive
//     signature and every group centroid. A unique minimum wins. If the
//     object shares no pivot with any centroid (all distances equal m), the
//     object falls back to the special group G0.
//  2. On an OD tie, the Weight Distance (Definition 11) against the tied
//     centroids, computed from the object's rank-sensitive signature via
//     the decay weights of Definition 9. A unique minimum wins.
//  3. On a second tie, the paper draws at random among the tied groups
//     (Algorithm 1, Line 14). This package stops at the tied list,
//     Candidates, and leaves the choice to its caller: the index stores a
//     record in the target its own query would select (Algorithm 3's rule:
//     deepest trie path, then largest node, then lowest group ID), so a
//     stored series is always reachable by its own vector.
package grouping

import (
	"fmt"
	"math/bits"

	"climber/internal/metric"
	"climber/internal/pivot"
)

// FallbackGroup is the ID of the special fall-back group G0 that receives
// objects overlapping no centroid (paper Section IV-C and Algorithm 1,
// Lines 3-5).
const FallbackGroup = 0

// Assigner evaluates the assignment rules against a fixed centroid list.
// Group IDs are 1-based: group i has centroid Centroid(i); group 0 is the
// fall-back. An Assigner is immutable and safe for concurrent use.
type Assigner struct {
	centroids []pivot.Signature // index 0 unused (fall-back)
	weigher   *metric.Weigher
	m         int

	// words is the length in uint64s of a pivot bitset, one bit per pivot
	// ID in [0, r). Group id's centroid holds bits[id*words : (id+1)*words],
	// so its Overlap Distance to a signature with bitset sig is
	// m - popcount(sig & centroid); row 0 (the fall-back) is empty.
	words int
	bits  []uint64

	// UseWeightTieBreak enables the WD stage (stage 2). It defaults to
	// true — Algorithm 1 as published. Setting it false leaves OD ties
	// unresolved, ablating the rank-sensitive half of the dual
	// representation (the "single representation" ablation, cmd/climber-bench -experiment abl-dual).
	UseWeightTieBreak bool
}

// NewAssigner builds an Assigner over the given (real, non-fall-back)
// centroids of a space of numPivots pivots. Each centroid must be a
// rank-insensitive signature of the weigher's prefix length m: pivot IDs
// strictly ascending within [0, numPivots). An empty centroid list is
// allowed and yields a degenerate single-group assigner that routes
// everything to the fall-back group G0.
func NewAssigner(centroids []pivot.Signature, weigher *metric.Weigher, numPivots int) (*Assigner, error) {
	m := weigher.PrefixLen()
	words := (numPivots + 63) / 64
	a := &Assigner{centroids: make([]pivot.Signature, len(centroids)+1), weigher: weigher, m: m,
		words: words, bits: make([]uint64, (len(centroids)+1)*words), UseWeightTieBreak: true}
	for i, c := range centroids {
		id := i + 1
		if len(c) != m {
			return nil, fmt.Errorf("grouping: centroid %d has length %d, want %d", id, len(c), m)
		}
		for j, p := range c {
			if p < 0 || p >= numPivots || (j > 0 && p <= c[j-1]) {
				return nil, fmt.Errorf("grouping: centroid %d %v is not ascending pivot IDs in [0, %d)", id, c, numPivots)
			}
			a.bits[id*words+p/64] |= 1 << (p % 64)
		}
		a.centroids[id] = c.Clone()
	}
	return a, nil
}

// NumGroups returns the number of groups including the fall-back group 0.
func (a *Assigner) NumGroups() int { return len(a.centroids) }

// Centroid returns the rank-insensitive centroid of group id (1-based);
// nil for the fall-back group 0.
func (a *Assigner) Centroid(id int) pivot.Signature { return a.centroids[id] }

// Weigher exposes the decay weigher, shared with query processing.
func (a *Assigner) Weigher() *metric.Weigher { return a.weigher }

// Candidates returns the group IDs, ascending, that survive the OD stage
// and, when needed, the WD tie-break — i.e. the GList of query Algorithm 3
// (Lines 5-9) — along with the smallest OD observed. When bestOD == m the
// object overlaps no centroid and the only target is the fall-back group
// (Algorithm 1, Lines 3-5); the returned slice is then [FallbackGroup].
func (a *Assigner) Candidates(rankSensitive, rankInsensitive pivot.Signature) (ids []int, bestOD int) {
	ids, bestOD = a.BestByOverlap(rankInsensitive)
	if len(ids) == 0 || bestOD == a.m {
		// No centroid overlapped the object — or no centroid exists at all
		// (a degenerate single-group skeleton, where BestByOverlap reports
		// m+1 because its loop never ran). Either way the only target is
		// the fall-back group; report OD m, the no-overlap distance, so
		// callers see a consistent value.
		return []int{FallbackGroup}, a.m
	}
	if len(ids) <= 1 || !a.UseWeightTieBreak {
		return ids, bestOD
	}
	return a.filterByWeight(rankSensitive, ids), bestOD
}

// BestByOverlap returns all group IDs sharing the smallest Overlap Distance
// to the rank-insensitive signature (Lines 2 & 6 of Algorithm 1), together
// with that distance. The fall-back group is not considered.
func (a *Assigner) BestByOverlap(rankInsensitive pivot.Signature) (ids []int, bestOD int) {
	var buf [4]uint64 // r <= 256 pivots: no allocation
	sig := a.bitset(rankInsensitive, buf[:0])
	bestOD = a.m + 1
	for id := 1; id < len(a.centroids); id++ {
		od := a.overlapDist(sig, id)
		switch {
		case od < bestOD:
			bestOD = od
			ids = ids[:0]
			ids = append(ids, id)
		case od == bestOD:
			ids = append(ids, id)
		}
	}
	return ids, bestOD
}

// GroupsWithinOD returns every group whose Overlap Distance to the
// rank-insensitive signature is at most maxOD, used by the adaptive query
// algorithm to memorise additional candidate groups.
func (a *Assigner) GroupsWithinOD(rankInsensitive pivot.Signature, maxOD int) []int {
	var buf [4]uint64
	sig := a.bitset(rankInsensitive, buf[:0])
	var ids []int
	for id := 1; id < len(a.centroids); id++ {
		if a.overlapDist(sig, id) <= maxOD {
			ids = append(ids, id)
		}
	}
	return ids
}

// bitset appends the pivot bitset of a signature of length m to dst. An ID
// outside the bitset sets no bit: no centroid holds it.
func (a *Assigner) bitset(sig pivot.Signature, dst []uint64) []uint64 {
	if len(sig) != a.m {
		panic(fmt.Sprintf("grouping: overlap distance of signature length %d with prefix length %d", len(sig), a.m))
	}
	dst = append(dst, make([]uint64, a.words)...)
	for _, p := range sig {
		if uint(p) < uint(a.words*64) {
			dst[p/64] |= 1 << (p % 64)
		}
	}
	return dst
}

// overlapDist is metric.OverlapDist between the signature whose bitset is
// sig and the centroid of group id, each pivot set given as a bitset.
func (a *Assigner) overlapDist(sig []uint64, id int) int {
	row := a.bits[id*a.words : (id+1)*a.words]
	shared := 0
	for w, b := range row {
		shared += bits.OnesCount64(b & sig[w])
	}
	return a.m - shared
}

// filterByWeight keeps the groups with the smallest Weight Distance (Lines
// 9-12). Exact float equality is intentional: WD values tie exactly when
// the matched weight subsets coincide, which is the paper's tie condition.
func (a *Assigner) filterByWeight(rankSensitive pivot.Signature, ids []int) []int {
	best := []int{ids[0]}
	bestWD := a.weigher.WeightDist(rankSensitive, a.centroids[ids[0]])
	for _, id := range ids[1:] {
		wd := a.weigher.WeightDist(rankSensitive, a.centroids[id])
		switch {
		case wd < bestWD:
			bestWD = wd
			best = best[:0]
			best = append(best, id)
		case wd == bestWD:
			best = append(best, id)
		}
	}
	return best
}
