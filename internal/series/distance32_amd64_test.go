package series

func init() {
	if useAVX2 {
		scanKernels["avx2"] = sqDist32AVX2
	}
}
