package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"climber/internal/sax"
	"climber/internal/series"
)

// float32Bytes encodes readings as a record's value bytes.
func float32Bytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// onBreakpoint returns 16 float32 readings whose exact mean is breakpoint k
// of the summary quantiser: 16·b split into float32 parts.
func onBreakpoint(t testing.TB, k int) []float32 {
	t.Helper()
	target := 16 * breakpoints8[k]
	out := make([]float32, 16)
	rest := target
	for i := 0; i < 3; i++ {
		out[i] = float32(rest)
		rest -= float64(out[i])
	}
	if rest != 0 {
		t.Fatalf("breakpoint %d: 16·%v does not split into three float32 parts", k, breakpoints8[k])
	}
	return out
}

// TestSymbol8MatchesSax holds the writer's grid lookup to sax.Symbol where
// it matters: on every breakpoint and every grid edge, one float64 step
// either side of each, and far beyond the outermost breakpoints.
func TestSymbol8MatchesSax(t *testing.T) {
	var vs []float64
	for _, b := range breakpoints8 {
		vs = append(vs, b)
	}
	for i := range symbolGrid {
		vs = append(vs, gridLo+float64(i)/gridScale)
	}
	for _, v := range slices.Clone(vs) {
		vs = append(vs, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	vs = append(vs, -math.MaxFloat32*31, -1e30, -3.5, 0, 3.5, 1e30, math.MaxFloat32*31)
	for _, v := range vs {
		if got, want := symbol8(v), sax.Symbol(v, summaryBits); uint16(got) != want {
			t.Fatalf("symbol8(%v) = %d, sax.Symbol = %d", v, got, want)
		}
	}
}

// TestSummaryIsExactMeanSymbol checks summarize against the exact symbol of
// each segment's mean, on means exactly on a breakpoint (which belong to the
// stripe above it) and on the readings with the widest cancellation, where
// a float64 sum loses the small ones.
func TestSummaryIsExactMeanSymbol(t *testing.T) {
	for _, k := range []int{0, 1, 127, 128, 200, 254} {
		vals := float32Bytes(onBreakpoint(t, k))
		var sum [1]byte
		summarize(sum[:], vals, 16)
		if int(sum[0]) != k+1 {
			t.Errorf("mean on breakpoint %d: symbol %d, want %d", k, sum[0], k+1)
		}
	}
	wide := make([]float32, 16)
	wide[0], wide[1], wide[2] = 1e30, 3, -1e30 // exact mean 3/16, float64 sum 0
	var sum [1]byte
	summarize(sum[:], float32Bytes(wide), 16)
	if want := uint8(sax.Symbol(3.0/16, summaryBits)); sum[0] != want {
		t.Fatalf("cancelling readings: symbol %d, want %d (the exact mean's)", sum[0], want)
	}
}

// FuzzSummaryLowerBound drives the summary bound with arbitrary finite
// float32 readings: the query's bound of a record, from the record's
// summary, must never exceed the float32 kernel's distance between them —
// for whole queries and prefixes, readings far beyond the outermost
// breakpoints, and means exactly on a breakpoint. A record's summary must
// also be the symbol of each segment's exact mean.
func FuzzSummaryLowerBound(f *testing.F) {
	seg := func(v float32) []float32 {
		out := make([]float32, 16)
		for i := range out {
			out[i] = v
		}
		return out
	}
	f.Add(float32Bytes(seg(0.5)), float32Bytes(seg(-0.5)), uint8(255))
	f.Add(float32Bytes(seg(40)), float32Bytes(seg(-1e30)), uint8(255))
	f.Add(float32Bytes(seg(math.MaxFloat32)), float32Bytes(seg(-math.MaxFloat32)), uint8(255))
	bp := onBreakpoint(f, 100)
	f.Add(float32Bytes(bp), float32Bytes(onBreakpoint(f, 101)), uint8(255))
	f.Add(float32Bytes(onBreakpoint(f, 101)), float32Bytes(bp), uint8(255))
	f.Add(float32Bytes(append(seg(1), bp...)), float32Bytes(append(bp, seg(-2)...)), uint8(20))
	// Readings whose float64 sums round apart although they differ by one
	// float32 step: the bound must use the exact means.
	q, x := make([]float32, 16), make([]float32, 16)
	q[0], q[1], q[2] = 1e30, 1<<46+1<<23, -1e30
	x[0], x[1], x[2] = 1e30, 1<<46-1<<23, -1e30
	f.Add(float32Bytes(q), float32Bytes(x), uint8(255))
	f.Add(float32Bytes(make([]float32, 40)), float32Bytes(make([]float32, 40)), uint8(255))
	// Records of 128 and 256 readings reach the bodies Bounds unrolls for 16
	// and 32 segments; a 255-reading prefix of 256 readings takes the loop.
	wave := func(n int, f, a float64) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(a * math.Sin(f*float64(i)))
		}
		return out
	}
	f.Add(float32Bytes(wave(128, 0.1, 2)), float32Bytes(wave(128, 0.13, -1.5)), uint8(255))
	f.Add(float32Bytes(wave(256, 0.05, 1)), float32Bytes(wave(256, 0.07, 3)), uint8(255))
	f.Add(float32Bytes(wave(256, 0.05, 1)), float32Bytes(wave(256, 0.07, 3)), uint8(254))

	f.Fuzz(func(t *testing.T, qb, xb []byte, prefix uint8) {
		n := min(len(qb), len(xb)) / 4
		if n == 0 {
			return
		}
		finite := func(b []byte) float32 {
			if v := math.Float32frombits(binary.LittleEndian.Uint32(b)); v-v == 0 {
				return v
			}
			return 0
		}
		q := make([]float32, n)
		x := make([]float32, n)
		for i := range q {
			q[i], x[i] = finite(qb[4*i:]), finite(xb[4*i:])
		}
		vals := float32Bytes(x)
		m := n
		if int(prefix) < n {
			m = int(prefix) + 1
		}
		d := series.SqDist32Blocked(q[:m], vals[:4*m])
		for _, version := range []uint32{partitionVersion, partitionVersion3} {
			sums := make([]byte, summaryWidth(version, n))
			summarize(sums, vals, n)
			for s := range sums {
				lo, hi := segment(s, len(sums), n)
				if want := exactSymbol(vals[4*lo : 4*hi]); sums[s] != want {
					t.Fatalf("version %d: segment %d: summary %d, exact mean's symbol %d", version, s, sums[s], want)
				}
			}
			lb := NewLowerBound(q[:m], n, len(sums))
			if lb == nil {
				continue
			}
			var got [1]float64
			lb.Bounds(got[:], sums)
			lb.Release()
			if !(got[0] <= d) {
				t.Fatalf("version %d: lower bound %v above the kernel distance %v (n=%d, prefix %d)", version, got[0], d, n, m)
			}
		}
	})
}

// TestLowerBoundPrefixSegments checks which segments a prefix query uses,
// at the width of either summarised version: only those wholly inside it.
func TestLowerBoundPrefixSegments(t *testing.T) {
	q := make([]float32, 100)
	for _, c := range []struct{ version, prefix, segs int }{
		// Version 4: 12 segments, starting at 0, 8, 16, 25, 33, 41, 50, 58,
		// 66, 75, 83, 91.
		{4, 100, 12}, {4, 99, 11}, {4, 33, 4}, {4, 32, 3}, {4, 16, 2}, {4, 15, 1}, {4, 8, 1}, {4, 7, 0},
		// Version 3: 6 segments, starting at 0, 16, 33, 50, 66, 83.
		{3, 100, 6}, {3, 99, 5}, {3, 33, 2}, {3, 32, 1}, {3, 16, 1}, {3, 15, 0},
	} {
		w := summaryWidth(uint32(c.version), 100)
		lb := NewLowerBound(q[:c.prefix], 100, w)
		got := 0
		if lb != nil {
			got = len(lb.table)
		}
		if got != c.segs {
			t.Errorf("version %d (%d segments): prefix %d of 100: %d segments, want %d", c.version, w, c.prefix, got, c.segs)
		}
	}
}

// TestBoundsKernelsMatchLoop holds every body of Bounds, bit for bit, to
// the order of additions its doc fixes: each block of eight segments summed
// as a tree, then the blocks, and any segments past the last whole block,
// added left to right. Real query tables meet random summary bytes at the
// widths with an unrolled body (32 segments, v4 at 256 readings; 16, v4 at
// 128 and v3 at 256) and at tables that take the loop (prefixes of either
// width, and 12 segments, v4 at 100 readings), over stretches of 1, 7, 255
// and 256 records.
func TestBoundsKernelsMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, c := range []struct{ seriesLen, w, prefix int }{
		{256, 32, 256}, {128, 16, 128}, {256, 16, 256},
		{256, 32, 255}, {256, 32, 64}, {256, 16, 200}, {128, 16, 100}, {100, 12, 100}, {100, 12, 60},
	} {
		lb := NewLowerBound(series.ToFloat32(zWalk(rng, c.seriesLen))[:c.prefix], c.seriesLen, c.w)
		segs := len(lb.table)
		for _, n := range []int{1, 7, 255, 256} {
			// One record before the stretch: the bodies index from its start.
			buf := make([]byte, (n+1)*c.w)
			for i := range buf {
				buf[i] = byte(rng.Uint32())
			}
			sums := buf[c.w:]
			dst := make([]float64, n)
			lb.Bounds(dst, sums)
			for i, got := range dst {
				rec := sums[i*c.w:]
				var want float64
				s := 0
				for ; s+8 <= segs; s += 8 {
					var v [8]float64
					for j := range v {
						v[j] = lb.table[s+j][rec[s+j]]
					}
					want += ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
				}
				for ; s < segs; s++ {
					want += lb.table[s][rec[s]]
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d readings, width %d, prefix %d (%d segments), stretch of %d: record %d bound %v, the documented order gives %v",
						c.seriesLen, c.w, c.prefix, segs, n, i, got, want)
				}
			}
		}
		lb.Release()
	}
}

// rewriteCRC recomputes a partition file's trailing checksum in place.
func rewriteCRC(raw []byte) {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
}

// TestVerifyRecomputesSummaries flips one summary byte and fixes the
// checksum, so only the summary check can tell: Verify must name the record.
func TestVerifyRecomputesSummaries(t *testing.T) {
	path, _ := buildPartition(t, 48, 30)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	// The summary of the 7th record in file order, segment 2.
	off := p.sumOff + int64(7*SummaryBytes(48)+2)
	var id int
	for _, ci := range p.Clusters() {
		if ci.first <= 7 && 7 < ci.first+ci.Count {
			id = int(binary.LittleEndian.Uint64(raw[ci.offset+int64((7-ci.first)*RecordBytes(48)):]))
		}
	}
	p.Close()
	raw[off] ^= 0x40
	rewriteCRC(raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for backing, open := range map[string]func(string) (*Partition, error){"open": OpenPartition, "load": LoadPartition} {
		p, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = p.Verify()
		p.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record %d:", id)) {
			t.Fatalf("%s: Verify = %v, want a summary mismatch naming record %d", backing, err, id)
		}
	}
}

// TestSummaryOverrunFailsOpen shortens the summary section under a valid
// directory: every backing must refuse the file rather than expose a
// section that runs past its end.
func TestSummaryOverrunFailsOpen(t *testing.T) {
	path, _ := buildPartition(t, 32, 20)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last summary byte and keep a checksum after it.
	short := append(bytes.Clone(raw[:len(raw)-5]), 0, 0, 0, 0)
	rewriteCRC(short)
	bad := tempPath(t, "short.clmp")
	if err := os.WriteFile(bad, short, 0o644); err != nil {
		t.Fatal(err)
	}
	for backing, open := range map[string]func(string) (*Partition, error){
		"open": OpenPartition, "load": LoadPartition, "map": MapPartition,
	} {
		if backing == "map" && !MapSupported() {
			continue
		}
		if p, err := open(bad); err == nil {
			p.Close()
			t.Errorf("%s: a summary section overrunning the file opened", backing)
		} else if !strings.Contains(err.Error(), "summary section") {
			t.Errorf("%s: error %v, want the summary overrun", backing, err)
		}
	}
}

// TestVersion2FileReadsWithoutSummaries opens the version-2 form of a file:
// the same records through every scan, no summaries in its runs, and a
// clean Verify.
func TestVersion2FileReadsWithoutSummaries(t *testing.T) {
	path, want := buildPartition(t, 40, 50)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Reformat(raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(raw) - len(v2); got != 50*SummaryBytes(40) {
		t.Fatalf("version-2 form is %d bytes shorter, want the %d summary bytes", got, 50*SummaryBytes(40))
	}
	old := tempPath(t, "v2.clmp")
	if err := os.WriteFile(old, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	for backing, open := range map[string]func(string) (*Partition, error){"open": OpenPartition, "load": LoadPartition} {
		p, err := open(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: %v", backing, err)
		}
		decoded, raw := collectScans(t, p)
		for id, vals := range want {
			if !slices.Equal(decoded[id], vals) || !slices.Equal(raw[id], vals) {
				t.Fatalf("%s: record %d reads differently from version 2", backing, id)
			}
		}
		for _, ci := range p.Clusters() {
			if err := p.ScanClusterRuns(ci.ID, func(recs, sums []byte) error {
				if sums != nil {
					t.Fatalf("%s: a version-2 run carries %d summary bytes", backing, len(sums))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
	}
	if back, err := Reformat(v2, partitionVersion); err != nil || !bytes.Equal(back, raw) {
		t.Fatalf("the version-4 form of the version-2 file is not the file written (%v)", err)
	}
}

// TestVersion3FileReadsAtItsWidth opens the version-3 form of a file: one
// summary byte per 16 readings, half the version-4 width, in every run; a
// clean Verify that recomputes them at that width, and one that names the
// record whose version-3 summary was flipped. Its version-4 form is the file
// written.
func TestVersion3FileReadsAtItsWidth(t *testing.T) {
	const seriesLen = 40
	path, want := buildPartition(t, seriesLen, 50)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := Reformat(raw, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w := summaryWidth(partitionVersion3, seriesLen); w != 2 || SummaryBytes(seriesLen) != 5 {
		t.Fatalf("widths %d (version 3) and %d (version 4), want 2 and 5", w, SummaryBytes(seriesLen))
	}
	if got := len(raw) - len(v3); got != 50*3 {
		t.Fatalf("version-3 form is %d bytes shorter, want %d", got, 50*3)
	}
	old := tempPath(t, "v3.clmp")
	if err := os.WriteFile(old, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	for backing, open := range map[string]func(string) (*Partition, error){"open": OpenPartition, "load": LoadPartition} {
		p, err := open(old)
		if err != nil {
			t.Fatal(err)
		}
		if p.Version() != 3 || p.SummaryWidth() != 2 {
			t.Fatalf("%s: version %d, width %d, want 3 and 2", backing, p.Version(), p.SummaryWidth())
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: %v", backing, err)
		}
		decoded, _ := collectScans(t, p)
		if !reflect.DeepEqual(decoded, want) {
			t.Fatalf("%s: the version-3 file reads different records", backing)
		}
		for _, ci := range p.Clusters() {
			if err := p.ScanClusterRuns(ci.ID, func(recs, sums []byte) error {
				if len(sums) != 2*len(recs)/RecordBytes(seriesLen) {
					t.Fatalf("%s: a version-3 run of %d records carries %d summary bytes", backing, len(recs)/RecordBytes(seriesLen), len(sums))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
	}
	if back, err := Reformat(v3, partitionVersion); err != nil || !bytes.Equal(back, raw) {
		t.Fatalf("the version-4 form of the version-3 file is not the file written (%v)", err)
	}
	// The first record's second summary byte, flipped under a good CRC.
	v3[len(v3)-4-50*2+1] ^= 0x40
	rewriteCRC(v3)
	if err := os.WriteFile(old, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(old)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "stored summary") {
		t.Fatalf("Verify = %v, want a summary mismatch", err)
	}
}

// zWalk returns a z-normalised random walk of n readings.
func zWalk(rng *rand.Rand, n int) []float64 {
	v, x := make([]float64, n), 0.0
	for i := range v {
		x += rng.NormFloat64()
		v[i] = x
	}
	var mean, sq float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(n)
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(sq / float64(n))
	for i := range v {
		v[i] = (v[i] - mean) / sd
	}
	return v
}

// BenchmarkSummaryBounds times the filter's own work over a real partition:
// the lower-bound pass over every record's summary, per record considered
// and per table lookup, for a random-walk query against random-walk records
// of the same length in a version-4 file. w32 (256 readings) and w16 (128
// readings) take the bodies Bounds unrolls for their width; prefix64 (the
// first 64 readings of a 256-reading query, 8 of 32 segments) takes the
// loop.
func BenchmarkSummaryBounds(b *testing.B) {
	const n = 4096
	for _, c := range []struct {
		name              string
		seriesLen, prefix int
	}{
		{"w32", 256, 256}, {"w16", 128, 128}, {"prefix64", 256, 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 5))
			recs := make([]Incoming, n)
			for i := range recs {
				recs[i] = Incoming{Cluster: 1, ID: i, Values: zWalk(rng, c.seriesLen)}
			}
			path := filepath.Join(b.TempDir(), "bench.clmp")
			if _, _, err := MergePartitions(path, c.seriesLen, nil, recs, nil); err != nil {
				b.Fatal(err)
			}
			p, err := LoadPartition(path)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			w := SummaryBytes(c.seriesLen)
			lb := NewLowerBound(series.ToFloat32(zWalk(rng, c.seriesLen))[:c.prefix], c.seriesLen, w)
			defer lb.Release()
			dst := make([]float64, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.ScanClusterRuns(1, func(_, sums []byte) error {
					for lo := 0; lo < n; lo += len(dst) {
						lb.Bounds(dst, sums[lo*w:(lo+len(dst))*w])
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			perRecord := float64(b.Elapsed().Nanoseconds()) / float64(b.N*n)
			b.ReportMetric(perRecord, "ns/record")
			b.ReportMetric(perRecord/float64(len(lb.table)), "ns/lookup")
		})
	}
}
