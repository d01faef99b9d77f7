package pivot

import (
	"sort"
	"strconv"
)

// Signature is a pivot-ID vector. Depending on context it is either a
// rank-sensitive P4→ signature (IDs ordered by proximity, closest first) or
// a rank-insensitive P4↛ signature (IDs sorted ascending). The two forms
// share a representation because the rank-insensitive form is defined as the
// lexicographic reordering of the rank-sensitive one (Definition 6).
type Signature []int

// RankInsensitive returns the rank-insensitive counterpart of a
// rank-sensitive signature: the same pivot IDs sorted ascending. The
// receiver is not modified.
func (sig Signature) RankInsensitive() Signature {
	out := make(Signature, len(sig))
	copy(out, sig)
	sort.Ints(out)
	return out
}

// Clone returns a copy of the signature.
func (sig Signature) Clone() Signature {
	out := make(Signature, len(sig))
	copy(out, sig)
	return out
}

// Equal reports whether two signatures hold the same IDs in the same order.
func (sig Signature) Equal(other Signature) bool {
	if len(sig) != len(other) {
		return false
	}
	for i, v := range sig {
		if v != other[i] {
			return false
		}
	}
	return true
}

// Contains reports whether the signature holds the pivot ID. It is a linear
// scan: signatures are short (prefix length m, default 10), so a linear scan
// beats building a set.
func (sig Signature) Contains(id int) bool {
	for _, v := range sig {
		if v == id {
			return true
		}
	}
	return false
}

// Key returns a compact string key for use as a map key when aggregating
// signatures by exact match during index construction (paper Figure 6,
// "grouping & aggregation"): the IDs in decimal, comma-separated, e.g.
// "6,4,1". Centroid selection breaks frequency ties by comparing keys, so
// the spelling is part of the index layout.
func (sig Signature) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range sig {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// String renders the signature in the paper's angle-bracket notation,
// e.g. "<6,4,1>".
func (sig Signature) String() string {
	return "<" + sig.Key() + ">"
}
