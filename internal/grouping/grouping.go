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

	// UseWeightTieBreak enables the WD stage (stage 2). It defaults to
	// true — Algorithm 1 as published. Setting it false leaves OD ties
	// unresolved, ablating the rank-sensitive half of the dual
	// representation (the "single representation" ablation, cmd/climber-bench -experiment abl-dual).
	UseWeightTieBreak bool
}

// NewAssigner builds an Assigner over the given (real, non-fall-back)
// centroids, all of prefix length m matching the weigher. An empty centroid
// list is allowed and yields a degenerate single-group assigner that routes
// everything to the fall-back group G0.
func NewAssigner(centroids []pivot.Signature, weigher *metric.Weigher) (*Assigner, error) {
	m := weigher.PrefixLen()
	for i, c := range centroids {
		if len(c) != m {
			return nil, fmt.Errorf("grouping: centroid %d has length %d, want %d", i+1, len(c), m)
		}
	}
	a := &Assigner{centroids: make([]pivot.Signature, len(centroids)+1), weigher: weigher, m: m,
		UseWeightTieBreak: true}
	for i, c := range centroids {
		a.centroids[i+1] = c.Clone()
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
	bestOD = a.m + 1
	for id := 1; id < len(a.centroids); id++ {
		od := metric.OverlapDist(rankInsensitive, a.centroids[id])
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
	var ids []int
	for id := 1; id < len(a.centroids); id++ {
		if metric.OverlapDist(rankInsensitive, a.centroids[id]) <= maxOD {
			ids = append(ids, id)
		}
	}
	return ids
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
