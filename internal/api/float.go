// eiselLemire is adapted from Go's strconv/eisel_lemire.go, which carries
// this notice:
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// (The LICENSE file is Go's: https://go.dev/LICENSE.)

package api

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// A decimal is a JSON number literal as the decoder scanned it: digits
// significant digits (leading zeros are not significant), held in man when
// there are at most 19 of them, so the value is ±man·10^exp.
type decimal struct {
	man    uint64
	exp    int
	digits int
	neg    bool
}

// float converts d to the float64 nearest its value, ties to even — the
// rounding strconv.ParseFloat, and so encoding/json, applies — or declines
// when it cannot prove that result: more than 19 significant digits, an
// exponent outside the table, a subnormal or overflowing result, or the
// rare case Eisel-Lemire leaves ambiguous. The caller then asks strconv.
func (d decimal) float() (float64, bool) {
	switch {
	case d.digits > 19:
		return 0, false
	case d.man == 0:
		if d.neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	case d.man < 1<<53 && -22 <= d.exp && d.exp <= 22:
		// Clinger's fast path: man and 10^|exp| are both exact float64s,
		// so one correctly rounded multiply or divide is the answer.
		f := float64(d.man)
		if d.exp < 0 {
			f /= exactPowersOfTen[-d.exp]
		} else {
			f *= exactPowersOfTen[d.exp]
		}
		if d.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(d.man, d.exp, d.neg)
}

var exactPowersOfTen = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The exponent range of powersOfTen, both ends inclusive.
const (
	minExp10 = -348
	maxExp10 = 347
)

// powersOfTen[e-minExp10] is 10^e as a 128-bit mantissa rounded down,
// {low, high} 64 bits, the top bit of high set: the table strconv calls
// detailedPowersOfTen, computed here once rather than listed. The binary
// exponent is implied (eiselLemire's 217706·e>>16).
var powersOfTen = tenPowers()

func tenPowers() [maxExp10 - minExp10 + 1][2]uint64 {
	var t [maxExp10 - minExp10 + 1][2]uint64
	row := func(m *big.Int) [2]uint64 {
		var b [16]byte
		m.FillBytes(b[:])
		return [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	}
	ten, one := big.NewInt(10), big.NewInt(1)
	p := big.NewInt(1) // 10^k
	var m big.Int
	for k := 0; k <= -minExp10; k++ {
		n := p.BitLen()
		if k <= maxExp10 { // 10^k: its top 128 bits
			if n > 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			t[k-minExp10] = row(&m)
		}
		if k > 0 { // 10^-k: ⌊2^(n+127) / 10^k⌋, which has exactly 128 bits
			m.Lsh(one, uint(n+127))
			t[-k-minExp10] = row(m.Quo(&m, p))
		}
		p.Mul(p, ten)
	}
	return t
}

// eiselLemire converts man·10^exp10 (man > 0) exactly, or declines. The
// terse comments name the steps of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}
	pow := &powersOfTen[exp10-minExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// Zero or an underflow is subnormal, 0x7FF or above Inf/NaN: both
	// decline (retExp2 is unsigned).
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
