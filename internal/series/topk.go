package series

import "slices"

// Result is one kNN answer: the ID of a data series and its (squared or
// plain, per the producer's contract) Euclidean distance to the query. It
// is the one result type of every layer — climber.Result and the wire's
// api.Result are aliases — so the JSON tags are the wire contract's keys.
type Result struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// TopK is a bounded max-heap that keeps the k smallest results seen so far
// in the order (Dist, ID): of two equally distant results the lower ID ranks
// first. The order is total, so the kept set does not depend on the order
// results are pushed in — partitions scanned in any order keep the same
// records at a tie. It is the accumulator behind every kNN scan in the
// repository: exact scans (Dss), partition-local scans (CLIMBER), and
// baseline searches. The zero value is not usable; construct with NewTopK.
type TopK struct {
	k    int
	heap []Result // max-heap ordered by (Dist, ID)
}

// NewTopK returns an accumulator for the k nearest results. k must be
// positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("series: TopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Result, 0, k)}
}

// K returns the configured answer size.
func (t *TopK) K() int { return t.k }

// Len returns the number of results currently held (<= k).
func (t *TopK) Len() int { return len(t.heap) }

// Full reports whether k results have been accumulated.
func (t *TopK) Full() bool { return len(t.heap) == t.k }

// Bound returns the current k-th smallest distance, i.e. the admission
// threshold for new candidates: a candidate above it cannot enter, one equal
// to it enters only with an ID below the current k-th result's. If fewer
// than k results are held, it returns +Inf semantics via the ok flag: ok is
// false and the caller must admit the candidate unconditionally.
func (t *TopK) Bound() (bound float64, ok bool) {
	if len(t.heap) < t.k {
		return 0, false
	}
	return t.heap[0].Dist, true
}

// Push offers a candidate. It returns true if the candidate was admitted
// (it was among the k first seen so far in the Before order).
func (t *TopK) Push(id int, dist float64) bool {
	r := Result{ID: id, Dist: dist}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, r)
		t.siftUp(len(t.heap) - 1)
		return true
	}
	if !r.Before(t.heap[0]) {
		return false
	}
	t.heap[0] = r
	t.siftDown(0)
	return true
}

// Results returns the accumulated results in the Before order: ascending
// distance, ties broken by ascending ID. The accumulator remains
// usable after the call.
func (t *TopK) Results() []Result {
	out := make([]Result, len(t.heap))
	copy(out, t.heap)
	slices.SortFunc(out, func(a, b Result) int {
		switch {
		case a.Before(b):
			return -1
		case b.Before(a):
			return 1
		}
		return 0
	})
	return out
}

// Before is the one total order over results: by distance, then by ID. The
// top-k accumulator keeps its k first results in it, and the router's merge
// of shard answers sorts by it, so a tie at the k-th distance is decided the
// same way at every layer.
func (r Result) Before(o Result) bool {
	if r.Dist != o.Dist {
		return r.Dist < o.Dist
	}
	return r.ID < o.ID
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.heap[parent].Before(t.heap[i]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.heap[largest].Before(t.heap[l]) {
			largest = l
		}
		if r < n && t.heap[largest].Before(t.heap[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// Recall computes |approx ∩ exact| / |exact| (paper Definition 4, Equation 2).
// Membership is decided by result ID. The exact set is the ground truth
// produced by an exact scan; approx is the approximate answer set.
func Recall(approx, exact []Result) float64 {
	if len(exact) == 0 {
		return 0
	}
	in := make(map[int]struct{}, len(exact))
	for _, r := range exact {
		in[r.ID] = struct{}{}
	}
	var hit int
	for _, r := range approx {
		if _, ok := in[r.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}
