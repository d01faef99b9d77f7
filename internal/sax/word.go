package sax

import (
	"fmt"
	"math"
	"strings"
)

// Word is an iSAX word: one (symbol, bits) pair per PAA segment. Segments
// may use different bit widths, which is exactly what allows iSAX trees to
// refine one (DPiSAX) or all (TARDIS) segments when a node overflows.
type Word struct {
	Symbols []uint16
	Bits    []uint8
}

// NewWordFromPAA quantises a PAA signature into an iSAX word with the given
// per-segment bit widths. bits may be shorter than the signature only if
// uniform is intended; it must have the same length.
func NewWordFromPAA(paaSig []float64, bits []uint8) Word {
	if len(paaSig) != len(bits) {
		panic(fmt.Sprintf("sax: PAA length %d != bits length %d", len(paaSig), len(bits)))
	}
	w := Word{Symbols: make([]uint16, len(paaSig)), Bits: make([]uint8, len(bits))}
	copy(w.Bits, bits)
	for i, v := range paaSig {
		w.Symbols[i] = Symbol(v, int(bits[i]))
	}
	return w
}

// NewWordUniform quantises a PAA signature with the same bit width for every
// segment (plain SAX when bits is constant).
func NewWordUniform(paaSig []float64, bits uint8) Word {
	b := make([]uint8, len(paaSig))
	for i := range b {
		b[i] = bits
	}
	return NewWordFromPAA(paaSig, b)
}

// W returns the number of segments (the word length).
func (w Word) W() int { return len(w.Symbols) }

// Clone returns a deep copy of the word.
func (w Word) Clone() Word {
	out := Word{Symbols: make([]uint16, len(w.Symbols)), Bits: make([]uint8, len(w.Bits))}
	copy(out.Symbols, w.Symbols)
	copy(out.Bits, w.Bits)
	return out
}

// SymbolAt re-derives the symbol of segment i at a coarser bit width by
// dropping the least significant bits (iSAX's prefix property: the b'-bit
// symbol is the high-order prefix of the b-bit symbol for b' <= b).
func (w Word) SymbolAt(i int, bits uint8) uint16 {
	if bits > w.Bits[i] {
		panic(fmt.Sprintf("sax: cannot promote segment %d from %d to %d bits without the PAA value", i, w.Bits[i], bits))
	}
	return w.Symbols[i] >> (w.Bits[i] - bits)
}

// Key returns a canonical string form usable as a map key, e.g.
// "00^2.010^3.1^1" encodes symbols with their bit widths.
func (w Word) Key() string {
	var b strings.Builder
	for i := range w.Symbols {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(&b, "%d^%d", w.Symbols[i], w.Bits[i])
	}
	return b.String()
}

// String renders the word in the paper's Figure 1 style: binary labels with
// subscripted cardinality, e.g. [00, 010, 10, 1].
func (w Word) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range w.Symbols {
		if i > 0 {
			b.WriteString(", ")
		}
		if w.Bits[i] == 0 {
			b.WriteByte('*')
			continue
		}
		fmt.Fprintf(&b, "%0*b", w.Bits[i], w.Symbols[i])
	}
	b.WriteByte(']')
	return b.String()
}

// MinDistPAA computes the iSAX MINDIST lower bound between a query's PAA
// signature and an iSAX word (Shieh & Keogh): for each segment, the distance
// from the PAA value to the nearest edge of the word's stripe, weighted by
// the segment length, i.e.
//
//	sqrt( Σ_i segLen_i * d_i^2 ) <= ED(query, any series in the region)
//
// segLens gives the number of raw readings per segment.
func (w Word) MinDistPAA(paaSig []float64, segLens []int) float64 {
	if len(paaSig) != len(w.Symbols) || len(segLens) != len(w.Symbols) {
		panic("sax: MinDistPAA length mismatch")
	}
	var s float64
	for i, v := range paaSig {
		if w.Bits[i] == 0 {
			continue // wildcard segment constrains nothing
		}
		lower, upper := Region(w.Symbols[i], int(w.Bits[i]))
		var d float64
		switch {
		case v < lower:
			d = lower - v
		case v > upper:
			d = v - upper
		}
		s += float64(segLens[i]) * d * d
	}
	return math.Sqrt(s)
}
