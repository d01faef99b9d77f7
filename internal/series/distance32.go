package series

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Float32 scan kernel: the zero-copy companion of the blocked float64
// kernels in distance.go, and the loop every disk scan spends its time in.
// Partition files store readings as little-endian float32, and the
// memory-resident read path scans them straight out of the mapped (or
// loaded) file bytes — no per-record []float64 decode, no allocation. The
// query is converted once per query with ToFloat32.
//
// One arithmetic, two implementations. Readings are taken in groups of
// scanLanes (16): reading i is subtracted from the query in float32 (the
// storage precision — the on-disk readings never had more), the difference
// is widened to float64, squared, and added to lane i mod 16. A trailing
// partial group is zero-padded, which adds exact zeros to its lanes. The
// sixteen lanes fold as
//
//	t[j] = (s[j] + s[j+4]) + (s[j+8] + s[j+12])   j = 0..3
//	sum  = (t[0] + t[2]) + (t[1] + t[3])
//
// and the running fold is compared with the limit after every abandonBlock
// readings. sqDist32AVX2 (distance32_amd64.s) keeps the lanes in four YMM
// registers and uses fused multiply-add; sqDist32Go below is the same
// geometry in scalar Go. They agree bit for bit: the square of a
// float32-valued float64 has at most 48 significant bits, so the product is
// exact and a fused multiply-add rounds exactly like a multiply followed by
// an add. Which one runs is decided once at start-up from CPUID (see
// KernelName); there is no flag.
//
// Accuracy: relative to the float64 decode path (which subtracts a float64
// query from widened float32 readings), the kernel additionally rounds the
// query to float32 before subtracting. Both paths already incur the float32
// storage rounding; see ARCHITECTURE.md "Memory-resident read path" for the
// measured impact.

// scanLanes is the number of independent float64 accumulators of the
// float32 scan kernel; the assembly routine hard-wires the same sixteen as
// four 4-wide vector registers.
const scanLanes = 16

// hostLittleEndian reports whether a []float32 view of record bytes reads
// the values the little-endian file format stores.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ToFloat32 converts a float64 query vector to the float32 precision the
// partition files store, once per query, for use with the *32Blocked kernels.
func ToFloat32(x []float64) []float32 {
	out := make([]float32, len(x))
	for i, v := range x {
		out[i] = float32(v)
	}
	return out
}

// CheckFloat32 rejects a series with a reading that is not finite at the
// precision partition files store: a NaN, an infinity, or a finite float64
// beyond ±math.MaxFloat32, which rounds to an infinity — against which every
// distance is +Inf, and against another infinity NaN. Queries and appended
// series are checked with it before ToFloat32 or a partition writer rounds
// them.
func CheckFloat32(x []float64) error {
	for i, v := range x {
		if f := float32(v); f-f != 0 {
			return fmt.Errorf("reading %d (%v) is not finite in float32, the storage precision", i, v)
		}
	}
	return nil
}

// SqDist32Blocked returns the squared Euclidean distance between a float32
// query and one record's raw value bytes (len(rec) must be exactly
// 4*len(q) little-endian float32 readings; it panics otherwise, mirroring
// the length panic of the float64 kernels). It is
// SqDistEarlyAbandon32Blocked with a limit nothing crosses.
func SqDist32Blocked(q []float32, rec []byte) float64 {
	return SqDistEarlyAbandon32Blocked(q, rec, math.Inf(1))
}

// SqDistEarlyAbandon32Blocked is the early-abandoning scan kernel: the
// limit is checked once per abandonBlock readings. If abandoned, the
// returned value is some number > limit (not the true distance). When the
// limit is never crossed the result is bit-identical to SqDist32Blocked. It
// panics when len(rec) != 4*len(q).
func SqDistEarlyAbandon32Blocked(q []float32, rec []byte, limit float64) float64 {
	if len(rec) != 4*len(q) {
		panic("series: record bytes do not match query length")
	}
	return sqDist32(q, rec, limit)
}

// KernelName names the float32 scan kernel implementation this process
// runs: "avx2" for the AVX2+FMA assembly routine, "go" for the portable one.
func KernelName() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// sqDist32Go is the portable implementation of the scan kernel. On a
// little-endian host a 4-byte-aligned record is read through a []float32
// view of its bytes (partition files keep every record value 4-byte aligned:
// a 16 + 12·C byte header, 8 + 4·L byte records, page-aligned maps);
// anything else — a misaligned slice, a big-endian host — is decoded a
// group at a time. The view never outlives the call. len(rec) must be
// 4*len(q).
func sqDist32Go(q []float32, rec []byte, limit float64) float64 {
	n := len(q)
	var view []float32
	if n > 0 && hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(rec)))%4 == 0 {
		view = unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(rec))), n)
	}
	var s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15 float64
	var qpad, rpad [scanLanes]float32
	for i := 0; i < n; {
		// A full group is read in place; the partial one at the end, and
		// every group of a record that cannot be viewed, goes through a
		// zero-padded copy.
		qg, rg := &qpad, &rpad
		m := min(n-i, scanLanes)
		if m == scanLanes {
			qg = (*[scanLanes]float32)(q[i:])
		} else {
			qpad, rpad = [scanLanes]float32{}, [scanLanes]float32{}
			copy(qpad[:], q[i:])
		}
		if m == scanLanes && view != nil {
			rg = (*[scanLanes]float32)(view[i:])
		} else {
			for j, rs := 0, rec[4*i:]; j < m; j++ {
				rpad[j] = math.Float32frombits(binary.LittleEndian.Uint32(rs[4*j:]))
			}
		}
		d0 := qg[0] - rg[0]
		s0 += float64(d0) * float64(d0)
		d1 := qg[1] - rg[1]
		s1 += float64(d1) * float64(d1)
		d2 := qg[2] - rg[2]
		s2 += float64(d2) * float64(d2)
		d3 := qg[3] - rg[3]
		s3 += float64(d3) * float64(d3)
		d4 := qg[4] - rg[4]
		s4 += float64(d4) * float64(d4)
		d5 := qg[5] - rg[5]
		s5 += float64(d5) * float64(d5)
		d6 := qg[6] - rg[6]
		s6 += float64(d6) * float64(d6)
		d7 := qg[7] - rg[7]
		s7 += float64(d7) * float64(d7)
		d8 := qg[8] - rg[8]
		s8 += float64(d8) * float64(d8)
		d9 := qg[9] - rg[9]
		s9 += float64(d9) * float64(d9)
		d10 := qg[10] - rg[10]
		s10 += float64(d10) * float64(d10)
		d11 := qg[11] - rg[11]
		s11 += float64(d11) * float64(d11)
		d12 := qg[12] - rg[12]
		s12 += float64(d12) * float64(d12)
		d13 := qg[13] - rg[13]
		s13 += float64(d13) * float64(d13)
		d14 := qg[14] - rg[14]
		s14 += float64(d14) * float64(d14)
		d15 := qg[15] - rg[15]
		s15 += float64(d15) * float64(d15)
		i += scanLanes
		if i%abandonBlock == 0 || i >= n {
			t0, t1 := (s0+s4)+(s8+s12), (s1+s5)+(s9+s13)
			t2, t3 := (s2+s6)+(s10+s14), (s3+s7)+(s11+s15)
			if s := (t0 + t2) + (t1 + t3); s > limit || i >= n {
				return s
			}
		}
	}
	return 0
}
