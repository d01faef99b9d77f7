package metric

import (
	"fmt"
	"math"

	"climber/internal/pivot"
)

// DecayKind selects the decay function used to derive pivot weights from a
// rank-sensitive signature (Definition 9). The first (closest) pivot always
// receives the largest weight; weights strictly decrease with position.
type DecayKind int

const (
	// ExponentialDecay assigns W(i) = lambda^(i-1) for position i (1-based).
	// With lambda = 1/2 the sequence is [1, 1/2, 1/4, ...] as in the
	// paper's Example 1.
	ExponentialDecay DecayKind = iota
	// LinearDecay assigns W(i) = lambda * (m - i + 1). With lambda = 1/m
	// the sequence is [1, (m-1)/m, (m-2)/m, ...].
	LinearDecay
)

// String names the decay kind for logs and CLI flags.
func (k DecayKind) String() string {
	switch k {
	case ExponentialDecay:
		return "exponential"
	case LinearDecay:
		return "linear"
	default:
		return fmt.Sprintf("DecayKind(%d)", int(k))
	}
}

// Weigher precomputes the pivot weight sequence W(1) > W(2) > ... > W(m) of
// Definition 9 and the constant Total Weight of Definition 10, and evaluates
// the Weight Distance of Definition 11. A Weigher is immutable and safe for
// concurrent use.
type Weigher struct {
	weights []float64
	total   float64
}

// NewWeigher builds a Weigher for signatures of prefix length m using the
// given decay function and rate lambda in (0, 1). For LinearDecay the paper
// fixes lambda = 1/m; pass Lambda <= 0 to use that default for either kind
// (exponential then defaults to 1/2).
func NewWeigher(m int, kind DecayKind, lambda float64) (*Weigher, error) {
	if m <= 0 {
		return nil, fmt.Errorf("metric: prefix length must be positive, got %d", m)
	}
	if lambda <= 0 {
		switch kind {
		case ExponentialDecay:
			lambda = 0.5
		case LinearDecay:
			lambda = 1.0 / float64(m)
		}
	}
	// lambda = 1 is permitted only when it still yields strictly decreasing
	// weights (e.g. linear decay with m = 1); the monotonicity check below
	// rejects every other degenerate case.
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("metric: decay rate must lie in (0, 1], got %g", lambda)
	}
	w := &Weigher{weights: make([]float64, m)}
	for i := 1; i <= m; i++ {
		var v float64
		switch kind {
		case ExponentialDecay:
			v = math.Pow(lambda, float64(i-1))
		case LinearDecay:
			v = lambda * float64(m-i+1)
		default:
			return nil, fmt.Errorf("metric: unknown decay kind %d", int(kind))
		}
		w.weights[i-1] = v
		w.total += v
	}
	// Definition 9 requires strictly decreasing weights; verify, since a
	// bad lambda would silently break tie-breaking downstream.
	for i := 1; i < m; i++ {
		if !(w.weights[i] < w.weights[i-1]) {
			return nil, fmt.Errorf("metric: decay produced non-decreasing weights at position %d", i+1)
		}
	}
	return w, nil
}

// MustWeigher is NewWeigher that panics on invalid arguments.
func MustWeigher(m int, kind DecayKind, lambda float64) *Weigher {
	w, err := NewWeigher(m, kind, lambda)
	if err != nil {
		panic(err)
	}
	return w
}

// Weight returns W(position) for a 1-based position in the rank-sensitive
// signature.
func (w *Weigher) Weight(position int) float64 { return w.weights[position-1] }

// Total returns the Total Weight TW of Definition 10 — a constant for any
// signature of the configured length, since the number of pivots and the
// decay function are fixed system-wide.
func (w *Weigher) Total() float64 { return w.total }

// PrefixLen returns the prefix length m the Weigher was built for.
func (w *Weigher) PrefixLen() int { return len(w.weights) }

// WeightDist computes the Weight Distance of Definition 11 between a
// rank-sensitive signature P4→(X) and a rank-insensitive centroid signature
// P4↛(o):
//
//	WD(X, o) = TW(X) - Σ_i W(i) · 1[P4→(X)[i] ∈ P4↛(o)]
//
// The more of X's pivots appear in the centroid — and the closer to the
// front of X's ranking they sit — the smaller the distance. The centroid
// must be sorted ascending; membership is tested by binary search.
func (w *Weigher) WeightDist(rankSensitive, centroid pivot.Signature) float64 {
	if len(rankSensitive) != len(w.weights) {
		panic(fmt.Sprintf("metric: weight distance of signature length %d with weigher length %d",
			len(rankSensitive), len(w.weights)))
	}
	matched := 0.0
	for i, id := range rankSensitive {
		if containsSorted(centroid, id) {
			matched += w.weights[i]
		}
	}
	return w.total - matched
}

func containsSorted(sig pivot.Signature, id int) bool {
	lo, hi := 0, len(sig)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case sig[mid] == id:
			return true
		case sig[mid] < id:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}
