// Package centroid implements Algorithm 2 of the paper: the data-driven
// computation of group centroids from the frequency-aggregated
// rank-insensitive signatures of a partition-level sample (Section V,
// Step 2).
//
// The intuition: pick centroids that (a) have high membership — the most
// frequent signatures first — and (b) cover the space well — a candidate too
// close (in Overlap Distance) to an existing centroid is skipped. Selection
// stops when the estimated group size of the next candidate falls below the
// sample-scaled capacity threshold (avoiding tiny groups), or when the
// optional MaxCentroids cap is reached.
package centroid

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"climber/internal/metric"
	"climber/internal/pivot"
)

// SigFreq pairs a rank-insensitive signature with its occurrence frequency
// in the sample (the list L of Algorithm 2).
type SigFreq struct {
	Sig  pivot.Signature
	Freq int
}

// Params configures Algorithm 2.
type Params struct {
	// SampleRate is α, the fraction of the dataset the signatures were
	// computed from, in (0, 1].
	SampleRate float64
	// Capacity is c, the storage-partition capacity in records.
	Capacity int
	// Epsilon is the minimum Overlap Distance allowed between two
	// centroids; candidates closer than this to an existing centroid are
	// skipped (Algorithm 2, Lines 5-9).
	Epsilon int
	// MaxCentroids optionally caps the number of centroids (Lines 15-16);
	// 0 means unlimited.
	MaxCentroids int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.SampleRate <= 0 || p.SampleRate > 1 {
		return fmt.Errorf("centroid: sample rate must be in (0, 1], got %g", p.SampleRate)
	}
	if p.Capacity <= 0 {
		return fmt.Errorf("centroid: capacity must be positive, got %d", p.Capacity)
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("centroid: epsilon must be non-negative, got %d", p.Epsilon)
	}
	if p.MaxCentroids < 0 {
		return fmt.Errorf("centroid: max centroids must be non-negative, got %d", p.MaxCentroids)
	}
	return nil
}

// Compute runs Algorithm 2 and returns the selected centroids in selection
// order. The special fall-back centroid (the paper's <*,*,...> group G0) is
// *not* included — the caller (package grouping) represents it implicitly as
// group 0.
//
// The input list is not modified.
func Compute(list []SigFreq, p Params) ([]pivot.Signature, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("centroid: empty signature list")
	}
	m := len(list[0].Sig)
	for _, sf := range list {
		if len(sf.Sig) != m {
			return nil, fmt.Errorf("centroid: mixed signature lengths %d and %d", m, len(sf.Sig))
		}
		if sf.Freq < 0 {
			return nil, fmt.Errorf("centroid: negative frequency for %v", sf.Sig)
		}
	}

	// Line 2: sort L descending by frequency. Ties break by signature key
	// so the selection is deterministic; each key is spelled once.
	type keyed struct {
		SigFreq
		key string
	}
	l := make([]keyed, len(list))
	for i, sf := range list {
		l[i] = keyed{sf, sf.Sig.Key()}
	}
	slices.SortFunc(l, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.Freq, a.Freq), strings.Compare(a.key, b.key))
	})

	var total int
	for _, sf := range l {
		total += sf.Freq
	}

	// Line 3: the most frequent signature seeds the centroid list.
	centroids := []pivot.Signature{l[0].Sig.Clone()}
	chosenFreq := l[0].Freq

	threshold := p.SampleRate * float64(p.Capacity)

candidates:
	for i := 1; i < len(l); i++ {
		if p.MaxCentroids > 0 && len(centroids) >= p.MaxCentroids {
			break // Lines 15-16
		}
		// Lines 5-9: skip candidates too close to an existing centroid.
		for _, c := range centroids {
			if metric.OverlapDist(l[i].Sig, c) < p.Epsilon {
				continue candidates
			}
		}
		// Lines 10-13: stop once the expected group size drops below the
		// sample-scaled capacity — remaining candidates are rarer still
		// (the list is sorted), so no later candidate can qualify.
		remaining := total - chosenFreq - l[i].Freq
		if remaining < 0 {
			remaining = 0
		}
		sizeEst := float64(l[i].Freq) + float64(remaining)/float64(len(centroids)+1)
		if sizeEst < threshold {
			break
		}
		centroids = append(centroids, l[i].Sig.Clone()) // Line 14
		chosenFreq += l[i].Freq
	}
	return centroids, nil
}
