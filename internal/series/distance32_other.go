//go:build !amd64

package series

// useAVX2 is false off amd64: the portable kernel is the only one.
const useAVX2 = false

func sqDist32(q []float32, rec []byte, limit float64) float64 {
	return sqDist32Go(q, rec, limit)
}
