//go:build !amd64

package series

// useAVX2 is false off amd64: the portable kernel is the only one.
const useAVX2 = false

func sqDist32(q []float32, rec []byte, limit float64) float64 {
	return sqDist32Go(q, rec, limit)
}

// Prefetch is a no-op off amd64; it is a hint the amd64 build issues as
// PREFETCHT0 instructions, and never reads rec.
func Prefetch(rec []byte) {}
