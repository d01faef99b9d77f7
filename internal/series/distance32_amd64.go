package series

// useAVX2 is decided once, before any scan: the assembly kernel needs AVX2
// and FMA in the CPU and YMM state saved by the OS.
var useAVX2 = detectAVX2FMA()

// cpuid and xgetbv execute the instructions of the same name
// (distance32_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func sqDist32AVX2(q []float32, rec []byte, limit float64) float64

// Prefetch hints that rec's bytes will be read soon: one PREFETCHT0 per
// 64-byte line it spans (distance32_amd64.s), so the lines travel towards L1
// while the caller computes on something else. A prefetch is a hint, not a
// load: it never faults, whatever rec points at, and changes no value.
//
//go:noescape
func Prefetch(rec []byte)

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM registers.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func sqDist32(q []float32, rec []byte, limit float64) float64 {
	if useAVX2 {
		return sqDist32AVX2(q, rec, limit)
	}
	return sqDist32Go(q, rec, limit)
}
