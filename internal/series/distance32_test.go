package series

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"
)

// scanKernels are the implementations of the float32 scan kernel this
// build can run, called directly so the portable one is exercised on an
// AVX2 machine too. distance32_amd64_test.go adds the assembly routine.
var scanKernels = map[string]func(q []float32, rec []byte, limit float64) float64{
	"go": sqDist32Go,
}

// encodeRec32 packs a float64 series into the raw record-value layout the
// partition files use: little-endian float32, 4 bytes per reading.
func encodeRec32(vals []float64) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
	}
	return out
}

// atOffset returns a copy of rec that starts off bytes past a 4-byte
// aligned address: offset 0 takes the portable kernel's []float32 view,
// 1-3 its byte-decoding path.
func atOffset(rec []byte, off int) []byte {
	buf := make([]byte, len(rec)+8)
	base := int(-uintptr(unsafe.Pointer(&buf[0])) & 3)
	out := buf[base+off : base+off+len(rec)]
	copy(out, rec)
	return out
}

// sqDist32Ref is the kernel's arithmetic written down directly: float32
// subtraction, widened squares, reading i into lane i mod 16, the
// documented fold.
func sqDist32Ref(q []float32, rec []byte) float64 {
	var s [scanLanes]float64
	for i, v := range q {
		d := v - math.Float32frombits(binary.LittleEndian.Uint32(rec[4*i:]))
		s[i%scanLanes] += float64(d) * float64(d)
	}
	t := func(j int) float64 { return (s[j] + s[j+4]) + (s[j+8] + s[j+12]) }
	return (t(0) + t(2)) + (t(1) + t(3))
}

// sameBits is float64 identity, with every NaN equal to every other: the
// payload a NaN carries depends on operand order, which the two
// implementations are free to differ in.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkKernelContract asserts the scan kernel's whole contract for one
// input: every implementation returns the same bits; a limit the distance
// does not cross returns the reference distance exactly; a crossed limit
// returns something above it.
func checkKernelContract(t *testing.T, q []float32, rec []byte, limit float64) {
	t.Helper()
	ref := sqDist32Ref(q, rec)
	first, firstName := 0.0, ""
	for name, kernel := range scanKernels {
		got := kernel(q, rec, limit)
		if firstName == "" {
			first, firstName = got, name
		} else if !sameBits(got, first) {
			t.Fatalf("n=%d limit=%v: %s returned %v (%#x), %s returned %v (%#x)", len(q), limit,
				name, got, math.Float64bits(got), firstName, first, math.Float64bits(first))
		}
		switch {
		case sameBits(got, ref):
		case ref <= limit:
			t.Fatalf("n=%d limit=%v not crossed: %s returned %v (%#x), reference %v (%#x)", len(q), limit,
				name, got, math.Float64bits(got), ref, math.Float64bits(ref))
		case !(got > limit):
			t.Fatalf("n=%d: %s abandoned with %v, not above limit %v (reference %v)", len(q), name, got, limit, ref)
		}
	}
}

// ToFloat32 is a pure element-wise float64→float32 rounding.
func TestToFloat32(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := randSeries(rng, 100)
	q := ToFloat32(x)
	if len(q) != len(x) {
		t.Fatalf("length %d, want %d", len(q), len(x))
	}
	for i, v := range x {
		if q[i] != float32(v) {
			t.Fatalf("element %d: got %v, want %v", i, q[i], float32(v))
		}
	}
}

// Property: for every length 0..300 (every tail shape, and the benchmark's
// 64/128/256), every record alignment, and limits that are never, always,
// exactly and half-way crossed, the implementations agree with each other
// and with the reference bit for bit.
func TestSqDist32KernelContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for n := 0; n <= 300; n++ {
		q, rec := ToFloat32(randSeries(rng, n)), encodeRec32(randSeries(rng, n))
		exact := sqDist32Ref(q, rec)
		for off := 0; off < 4; off++ {
			r := atOffset(rec, off)
			for _, limit := range []float64{math.Inf(1), 0, exact, exact / 2} {
				checkKernelContract(t, q, r, limit)
			}
		}
		// The exported entry points are the selected kernel: the
		// non-abandoning one is the abandoning one with limit +Inf.
		if got := SqDist32Blocked(q, rec); got != exact {
			t.Fatalf("n=%d: SqDist32Blocked %v, reference %v", n, got, exact)
		}
		if got := SqDistEarlyAbandon32Blocked(q, rec, exact); got != exact {
			t.Fatalf("n=%d: SqDistEarlyAbandon32Blocked at limit = distance %v, reference %v", n, got, exact)
		}
	}
}

// A record identical to the query never abandons, whatever the limit.
func TestSqDist32IdenticalSeries(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	x := randSeries(rng, 100)
	checkKernelContract(t, ToFloat32(x), encodeRec32(x), 0)
	if got := SqDistEarlyAbandon32Blocked(ToFloat32(x), encodeRec32(x), 0); got != 0 {
		t.Fatalf("identical series: got %v, want 0", got)
	}
}

// Property: the float32 kernel agrees with the float64 decode path (which
// widens stored float32 readings and subtracts a float64 query) to within
// the float32 rounding of the query — the accuracy contract the scan-path
// switch relies on. The bound is loose by design: it documents that the only
// divergence is query rounding, not a kernel bug.
func TestSqDist32BlockedNearFloat64Path(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 47))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(300)
		x, y := randSeries(rng, n), randSeries(rng, n)
		// The float64 decode path: stored readings widened to float64.
		wide := make([]float64, n)
		for i, v := range y {
			wide[i] = float64(float32(v))
		}
		f64 := SqDistBlocked(x, wide)
		f32 := SqDist32Blocked(ToFloat32(x), encodeRec32(y))
		// Relative error bounded by a few float32 ULPs per reading folded
		// through the sum of squares.
		if diff := math.Abs(f32 - f64); diff > 1e-5*math.Max(f64, 1) {
			t.Fatalf("trial %d (n=%d): float32 %v vs float64 path %v (diff %v)", trial, n, f32, f64, diff)
		}
	}
}

// The float32 kernels reject record bytes that do not match the query length
// the same way the float64 kernels reject mismatched slices.
func TestSqDist32KernelsPanicOnLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 67))
	x := randSeries(rng, 32)
	q := ToFloat32(x)
	shorter, longer := encodeRec32(randSeries(rng, 31)), encodeRec32(randSeries(rng, 33))
	kernels := map[string]func(rec []byte){
		"SqDist32Blocked":             func(rec []byte) { SqDist32Blocked(q, rec) },
		"SqDistEarlyAbandon32Blocked": func(rec []byte) { SqDistEarlyAbandon32Blocked(q, rec, math.Inf(1)) },
	}
	for name, kernel := range kernels {
		mustPanic(t, name+"/shorter-rec", func() { kernel(shorter) })
		mustPanic(t, name+"/longer-rec", func() { kernel(longer) })
		mustPanic(t, name+"/ragged-rec", func() { kernel(longer[:4*32+1]) })
	}
}

// FuzzSqDist32 drives the kernel contract with arbitrary bit patterns —
// NaNs, infinities, denormals, differences that overflow float32 — at every
// record alignment.
func FuzzSqDist32(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64}, []byte{0, 0, 0, 64, 0, 0, 128, 63}, 1.0, uint8(0))
	f.Add(make([]byte, 4*70), encodeRec32(make([]float64, 70)), math.Inf(1), uint8(1))
	f.Add([]byte{0, 0, 128, 127, 255, 255, 127, 127}, []byte{0, 0, 128, 127, 255, 255, 127, 255}, 0.0, uint8(3))
	f.Fuzz(func(t *testing.T, qb, rb []byte, limit float64, off uint8) {
		n := min(len(qb), len(rb)) / 4
		q := make([]float32, n)
		for i := range q {
			q[i] = math.Float32frombits(binary.LittleEndian.Uint32(qb[4*i:]))
		}
		checkKernelContract(t, q, atOffset(rb[:4*n], int(off%4)), limit)
	})
}

// sparseRecords is the 64 MiB block of 256-reading records the sparse
// kernel benchmarks rank every third record of, built once per process so a
// one-iteration smoke run stays fast.
var sparseRecords = sync.OnceValue(func() []byte {
	rng := rand.New(rand.NewPCG(79, 83))
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4 {
		binary.LittleEndian.PutUint32(buf[i:], math.Float32bits(float32(rng.NormFloat64())))
	}
	return buf
})

// BenchmarkSqDist32Kernels times every implementation side by side over
// the same 8 000 × 256 block of records (8 MB, so records stream from
// memory the way a partition scan reads them), reporting ns per reading:
// the selected assembly routine where there is one, the portable kernel
// through its []float32 view, and the portable kernel decoding bytes
// (records one byte off alignment).
//
// The sparse cases rank every third record of sparseRecords instead, the
// way a scan ranks what the summary filter keeps: with a gap between the
// records the hardware prefetcher has no stream to follow, so each record
// waits on its cache misses. "sparse-prefetch" calls Prefetch on the next
// record before ranking the current one, as stepScan.run does.
func BenchmarkSqDist32Kernels(b *testing.B) {
	const records, length = 8000, 256
	rng := rand.New(rand.NewPCG(71, 73))
	q := ToFloat32(randSeries(rng, length))
	aligned := atOffset(encodeRec32(randSeries(rng, records*length)), 0)
	shifted := atOffset(aligned, 1)
	variants := []struct {
		name   string
		kernel string
		data   []byte
	}{
		{"avx2", "avx2", aligned}, {"go", "go", aligned}, {"go-decode", "go", shifted},
	}
	for _, v := range variants {
		kernel, ok := scanKernels[v.kernel]
		if !ok {
			continue
		}
		// "full" never abandons; "abandon" leaves every record at the first
		// limit check, the per-call floor.
		for _, mode := range []struct {
			name  string
			limit float64
		}{{"full", math.Inf(1)}, {"abandon", 0}} {
			b.Run(v.name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := 0; r < records; r++ {
						benchSink += kernel(q, v.data[4*length*r:4*length*(r+1)], mode.limit)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records*length), "ns/elem")
			})
		}
	}
	sparse := sparseRecords()
	const stride = 3 * 4 * length
	ranked := len(sparse) / stride
	for _, name := range []string{"avx2", "go"} {
		kernel, ok := scanKernels[name]
		if !ok {
			continue
		}
		for _, mode := range []struct {
			name     string
			prefetch bool
		}{{"sparse", false}, {"sparse-prefetch", true}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for off := 0; off < ranked*stride; off += stride {
						if mode.prefetch && off+stride < ranked*stride {
							Prefetch(sparse[off+stride:][:4*length])
						}
						benchSink += kernel(q, sparse[off:][:4*length], math.Inf(1))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranked*length), "ns/elem")
			})
		}
	}
}

// BenchmarkSqDist32Blocked is the head-to-head against BenchmarkSqDistBlocked:
// same series length, but the operand is the raw 4-byte-per-reading record
// layout the mapped scan path feeds the kernel.
func BenchmarkSqDist32Blocked(b *testing.B) {
	x, y := benchPair(256)
	q, rec := ToFloat32(x), encodeRec32(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = SqDist32Blocked(q, rec)
	}
}

// BenchmarkSqDist32EarlyAbandonBlocked mirrors the float64 early-abandon
// benchmark's two regimes over the raw record layout.
func BenchmarkSqDist32EarlyAbandonBlocked(b *testing.B) {
	x, y := benchPair(256)
	q, rec := ToFloat32(x), encodeRec32(y)
	exact := SqDist32Blocked(q, rec)
	b.Run("loose-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = SqDistEarlyAbandon32Blocked(q, rec, exact+1)
		}
	})
	b.Run("tight-bound", func(b *testing.B) {
		limit := exact / 100
		for i := 0; i < b.N; i++ {
			benchSink = SqDistEarlyAbandon32Blocked(q, rec, limit)
		}
	})
}
