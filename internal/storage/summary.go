package storage

import (
	"encoding/binary"
	"math"
	"math/big"
	"sync"

	"climber/internal/sax"
)

// Record summaries. A version-4 partition file carries, after its records,
// one summary byte per 8 readings of every record, in file order: byte s is
// the 8-bit iSAX symbol of the mean of the record's readings in segment s,
// where a record of L readings has w = SummaryBytes(L) segments and segment s
// covers readings [s·L/w, (s+1)·L/w). The symbol is that of the exact mean
// of the stored float32 readings — the stripe of the breakpoints that holds
// it — so a query can bound a record's distance from below without reading
// the record (LowerBound), the summary check of the parallel iSAX indexes.
// A version-3 file holds the same summaries over segments twice as long, one
// byte per 16 readings; everything here is a function of the width w, the
// summary bytes per record, so it reads both.

const (
	// summaryReadings is the number of readings one summary byte stands for
	// in a version-4 file; version3Readings in a version-3 file.
	summaryReadings  = 8
	version3Readings = 16
	// summaryBits is the iSAX cardinality of a summary byte: 2^8 stripes.
	summaryBits = 8
	// summarySlack scales every lower bound down by 2^-20 relative. The
	// kernel rounds each difference to float32 (at most 2^-24 relative,
	// squared 2^-23) and sums in float64, and the bound itself is summed in
	// float64: both together stay far below 2^-20, so a bound above a
	// threshold means a kernel distance above it too.
	summarySlack = 1 - 0x1p-20
	// sumPrec is the big.Float precision that holds any sum of a segment's
	// float32 readings exactly (2^-149 to 2^133 needs 283 bits).
	sumPrec = 320
)

// SummaryBytes returns the number of summary bytes one record of seriesLen
// readings carries in the partition files written now (version 4): one per
// 8 readings, and at least one. It is 1/32 of the record's value bytes.
func SummaryBytes(seriesLen int) int { return summaryWidth(partitionVersion, seriesLen) }

// knownVersion reports whether version is a partition format version this
// package reads and writes: 4, 3 or 2.
func knownVersion(version uint32) bool {
	return version == partitionVersion || version == partitionVersion3 || version == partitionVersionNoSummaries
}

// summaryWidth returns the summary bytes per record of seriesLen readings in
// a partition file of the given version: one per 8 readings in version 4,
// one per 16 in version 3 (at least one in both), none in version 2.
func summaryWidth(version uint32, seriesLen int) int {
	switch version {
	case partitionVersion:
		return max(1, seriesLen/summaryReadings)
	case partitionVersion3:
		return max(1, seriesLen/version3Readings)
	}
	return 0
}

// segment returns the reading range [lo, hi) of summary segment s of w over
// a record of seriesLen readings.
func segment(s, w, seriesLen int) (lo, hi int) { return s * seriesLen / w, (s + 1) * seriesLen / w }

// breakpoints8 are the 255 stripe boundaries of a summary byte.
var breakpoints8 = sax.Breakpoints(summaryBits)

// meanInterval returns an interval [lo, hi] that holds the exact mean of n
// finite float32 readings whose sum and sum of magnitudes, accumulated in
// float64 in any order, are sum and abs. Recursive summation errs by at most
// (n-1)·2^-53·Σ|x| and the division by one more rounding; the margin of
// 2^-50·abs covers both with room to spare, and is 0 exactly when every
// reading is 0.
func meanInterval(sum, abs float64, n int) (lo, hi float64) {
	m, e := sum/float64(n), abs*0x1p-50
	return m - e, m + e
}

// symbol8 returns the 8-bit iSAX symbol of v, as sax.Symbol(v, 8) does: the
// number of breakpoints at or below v. The writer takes one per segment of
// every record, so it avoids the binary search, whose branches real data
// mispredicts: the grid cell of v holds the symbol of its left edge and at
// most one breakpoint, and whether v is past that breakpoint is one
// comparison.
func symbol8(v float64) uint8 {
	cell := 0
	if x := (v - gridLo) * gridScale; x > 0 {
		cell = int(min(x, float64(len(symbolGrid)-1)))
	}
	c := symbolGrid[cell]
	past := uint8(0)
	if gridBreakpoint[c] <= v {
		past = 1
	}
	return c + past
}

// The grid of symbol8: cells 1/gridScale wide from gridLo, narrower than the
// closest pair of breakpoints, each holding the symbol of its left edge.
// Values beyond the grid clamp to its end cells, which hold no breakpoint.
// The edges sit half a cell off the multiples of 1/128, so the middle
// breakpoint, 0, is not on one, and the init check below keeps every
// breakpoint 2^-30 clear of every edge: a rounding of the cell index can
// move v across an edge but not across a breakpoint.
const (
	gridScale = 128.0
	gridLo    = -3 - 0.5/gridScale
)

var symbolGrid = func() []uint8 {
	g := make([]uint8, int(-2*gridLo*gridScale)+1)
	for i := range g {
		edge := gridLo + float64(i)/gridScale
		g[i] = uint8(sax.Symbol(edge, summaryBits))
		if next := sax.Symbol(edge+1/gridScale, summaryBits); next > uint16(g[i])+1 {
			panic("storage: a summary grid cell holds two breakpoints")
		}
		for _, b := range breakpoints8 {
			if math.Abs(b-edge) < 0x1p-30 {
				panic("storage: a breakpoint lies on a summary grid edge")
			}
		}
	}
	return g
}()

// gridBreakpoint[c] is the lower edge of stripe c+1: breakpoint c, and +Inf
// past the last one.
var gridBreakpoint = func() (bp [256]float64) {
	copy(bp[:], breakpoints8)
	bp[255] = math.Inf(1)
	return bp
}()

// summarize writes to dst, SummaryBytes(seriesLen) bytes, the summary of one
// record's value bytes: seriesLen little-endian float32 readings, all
// finite.
func summarize(dst, vals []byte, seriesLen int) {
	w := len(dst)
	for s := range dst {
		lo, hi := segment(s, w, seriesLen)
		seg := vals[4*lo : 4*hi]
		sum, abs := segmentSums(seg)
		mlo, mhi := meanInterval(sum, abs, hi-lo)
		c := symbol8(mlo)
		if c < 255 && mhi >= breakpoints8[c] {
			// The mean lies too close to a breakpoint for the float64
			// interval to tell the stripe: settle it exactly.
			c = exactSymbol(seg)
		}
		dst[s] = c
	}
}

// segmentSums returns the sum and the sum of magnitudes of the float32
// readings in seg, accumulated in float64 over four lanes of readings.
func segmentSums(seg []byte) (sum, abs float64) {
	var s0, s1, s2, s3, a0, a1, a2, a3 float64
	off := 0
	for ; off+16 <= len(seg); off += 16 {
		g := (*[16]byte)(seg[off:])
		x0 := float64(math.Float32frombits(binary.LittleEndian.Uint32(g[0:])))
		x1 := float64(math.Float32frombits(binary.LittleEndian.Uint32(g[4:])))
		x2 := float64(math.Float32frombits(binary.LittleEndian.Uint32(g[8:])))
		x3 := float64(math.Float32frombits(binary.LittleEndian.Uint32(g[12:])))
		s0, s1, s2, s3 = s0+x0, s1+x1, s2+x2, s3+x3
		a0, a1, a2, a3 = a0+math.Abs(x0), a1+math.Abs(x1), a2+math.Abs(x2), a3+math.Abs(x3)
	}
	for ; off < len(seg); off += 4 {
		x := float64(math.Float32frombits(binary.LittleEndian.Uint32(seg[off:])))
		s0, a0 = s0+x, a0+math.Abs(x)
	}
	return (s0 + s1) + (s2 + s3), (a0 + a1) + (a2 + a3)
}

// exactSymbol returns the symbol of the exact mean of the float32 readings
// in seg: the number of breakpoints b with b·n ≤ Σx, compared in a precision
// that represents every operand and the sum exactly.
func exactSymbol(seg []byte) uint8 {
	sum := new(big.Float).SetPrec(sumPrec)
	var x big.Float
	for off := 0; off < len(seg); off += 4 {
		sum.Add(sum, x.SetFloat64(float64(math.Float32frombits(binary.LittleEndian.Uint32(seg[off:])))))
	}
	n := new(big.Float).SetInt64(int64(len(seg) / 4))
	var t big.Float
	lo, hi := 0, len(breakpoints8)
	for lo < hi {
		mid := (lo + hi) / 2
		t.SetPrec(sumPrec).SetFloat64(breakpoints8[mid])
		if t.Mul(&t, n).Cmp(sum) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint8(lo)
}

// LowerBound is one query's summary lower bound: for every segment that lies
// wholly inside the query, the table of len·dist(query mean, stripe)² over
// the 256 stripes. Summed over a record's summary bytes it is at most the
// squared distance the float32 scan kernel computes between the query and
// the record (series.SqDist32Blocked over the query's readings) — PAA bounds
// Euclidean distance from below segment by segment, and the exact record
// mean lies in its stripe — already scaled down by the slack that covers the
// kernel's rounding. So a record whose bound exceeds a top-k threshold has a
// kernel distance above it too, and skipping it changes no answer.
type LowerBound struct {
	w     int            // summary bytes per record
	table [][256]float64 // one row per segment inside the query
}

// NewLowerBound builds the lower bound of the float32 query q against
// records of seriesLen readings whose summaries are w bytes each (the width
// of their file's version, SummaryBytes for the files written now); q may be
// a prefix (len(q) < seriesLen), in which case only the segments wholly
// inside it count. It returns nil when no segment does. Any finite query
// gives a valid bound; a reading that is not finite makes its segment
// contribute nothing.
func NewLowerBound(q []float32, seriesLen, w int) *LowerBound {
	segs := 0
	for segs < w {
		if _, hi := segment(segs, w, seriesLen); hi > len(q) {
			break
		}
		segs++
	}
	if segs == 0 {
		return nil
	}
	b := lowerBounds.Get().(*LowerBound)
	if cap(b.table) < segs {
		b.table = make([][256]float64, segs)
	}
	b.w, b.table = w, b.table[:segs]
	for s := range b.table {
		lo, hi := segment(s, w, seriesLen)
		var sum, abs float64
		for _, x := range q[lo:hi] {
			sum += float64(x)
			abs += math.Abs(float64(x))
		}
		qlo, qhi := meanInterval(sum, abs, hi-lo)
		row := &b.table[s]
		if qlo != qlo || qhi != qhi {
			*row = [256]float64{} // a reading that is not finite: no bound
			continue
		}
		// The squared distance from the query's mean interval to each
		// stripe: from qlo down to the stripes wholly below it, none to
		// the stripes it meets, from qhi up to the stripes above.
		scale := float64(hi-lo) * summarySlack
		bp := (*[255]float64)(breakpoints8)
		below, above := int(symbol8(qlo)), int(symbol8(qhi))
		for c := range below {
			d := qlo - bp[c]
			row[c] = scale * d * d
		}
		clear(row[below : above+1])
		for c := above + 1; c < 256; c++ {
			d := bp[c-1] - qhi
			row[c] = scale * d * d
		}
	}
	return b
}

// lowerBounds recycles the tables of finished queries: a table is 2 KB per
// segment, and allocating one per query cost more than filling it.
var lowerBounds = sync.Pool{New: func() any { return new(LowerBound) }}

// Release hands b's table to the next NewLowerBound; b must not be used
// afterwards. Releasing nil does nothing.
func (b *LowerBound) Release() {
	if b != nil {
		lowerBounds.Put(b)
	}
}

// Bounds writes to dst[i] the lower bound of record i of sums, the summary
// bytes of len(dst) consecutive records (the bound's width per record, as a
// partition file stores them).
//
// Every record sums its segments eight at a time, each block of eight as a
// tree, and the blocks left to right. A whole-record table of the two widths
// the files store for 128 and 256 readings (16 and 32 segments) takes a body
// unrolled for that width: the table and the record become fixed-size arrays
// once, so each lookup is one byte load and one add at a constant offset,
// where the loop over blocks spends more instructions rebuilding each
// block's address than loading from it. The unrolled bodies keep the loop's
// order of additions, so they give the same bound bit for bit
// (TestBoundsKernelsMatchLoop): a scan's answers and its pruned records do
// not depend on which body ran.
func (b *LowerBound) Bounds(dst []float64, sums []byte) {
	table, w := b.table, b.w
	segs := len(table)
	switch {
	case segs == 32 && w == 32:
		bounds32(dst, sums, (*[32][256]float64)(table))
		return
	case segs == 16 && w == 16:
		bounds16(dst, sums, (*[16][256]float64)(table))
		return
	}
	for i := range dst {
		rec := sums[i*w:][:segs]
		// Eight segments at a time, summed as a tree: the lookups of one
		// record do not wait on each other, and fixed offsets need no
		// bounds checks.
		var x float64
		s := 0
		for ; s+8 <= segs; s += 8 {
			t, r := (*[8][256]float64)(table[s:]), (*[8]byte)(rec[s:])
			x += ((t[0][r[0]] + t[1][r[1]]) + (t[2][r[2]] + t[3][r[3]])) +
				((t[4][r[4]] + t[5][r[5]]) + (t[6][r[6]] + t[7][r[7]]))
		}
		for ; s < segs; s++ {
			x += table[s][rec[s]]
		}
		dst[i] = x
	}
}

// bounds32 is Bounds over a whole-record table of 32 segments: four blocks,
// added as ((b0+b1)+b2)+b3, the loop's order.
func bounds32(dst []float64, sums []byte, t *[32][256]float64) {
	for i := range dst {
		r := (*[32]byte)(sums[32*i:])
		b0 := ((t[0][r[0]] + t[1][r[1]]) + (t[2][r[2]] + t[3][r[3]])) +
			((t[4][r[4]] + t[5][r[5]]) + (t[6][r[6]] + t[7][r[7]]))
		b1 := ((t[8][r[8]] + t[9][r[9]]) + (t[10][r[10]] + t[11][r[11]])) +
			((t[12][r[12]] + t[13][r[13]]) + (t[14][r[14]] + t[15][r[15]]))
		b2 := ((t[16][r[16]] + t[17][r[17]]) + (t[18][r[18]] + t[19][r[19]])) +
			((t[20][r[20]] + t[21][r[21]]) + (t[22][r[22]] + t[23][r[23]]))
		b3 := ((t[24][r[24]] + t[25][r[25]]) + (t[26][r[26]] + t[27][r[27]])) +
			((t[28][r[28]] + t[29][r[29]]) + (t[30][r[30]] + t[31][r[31]]))
		dst[i] = ((b0 + b1) + b2) + b3
	}
}

// bounds16 is Bounds over a whole-record table of 16 segments: two blocks,
// added as b0+b1, the loop's order.
func bounds16(dst []float64, sums []byte, t *[16][256]float64) {
	for i := range dst {
		r := (*[16]byte)(sums[16*i:])
		b0 := ((t[0][r[0]] + t[1][r[1]]) + (t[2][r[2]] + t[3][r[3]])) +
			((t[4][r[4]] + t[5][r[5]]) + (t[6][r[6]] + t[7][r[7]]))
		b1 := ((t[8][r[8]] + t[9][r[9]]) + (t[10][r[10]] + t[11][r[11]])) +
			((t[12][r[12]] + t[13][r[13]]) + (t[14][r[14]] + t[15][r[15]]))
		dst[i] = b0 + b1
	}
}
