package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// writeFile writes recs as a new partition file — one MergePartitions with
// no source, the one-shot write every merge is compared against — and
// returns the file's bytes.
func writeFile(t testing.TB, path string, seriesLen int, recs []Incoming) []byte {
	t.Helper()
	if _, _, err := MergePartitions(path, seriesLen, nil, recs, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkDecoded reads p back against the records written into it: every
// record comes back once, in its cluster, with its readings at float32
// precision bit for bit; the directory ascends, IDs ascend within each
// cluster, a cluster the records never named scans empty, and the checksum
// holds.
func checkDecoded(t testing.TB, p *Partition, seriesLen int, recs []Incoming) {
	t.Helper()
	want := make(map[int]Incoming, len(recs))
	for _, r := range recs {
		want[r.ID] = r
	}
	if err := p.Verify(); err != nil {
		t.Error(err)
	}
	if p.SeriesLen() != seriesLen || p.Count() != len(want) {
		t.Errorf("partition of series length %d with %d records, want %d and %d", p.SeriesLen(), p.Count(), seriesLen, len(want))
	}
	dir := p.Clusters()
	seen := 0
	for i, ci := range dir {
		if i > 0 && dir[i-1].ID >= ci.ID {
			t.Errorf("directory not ascending at entry %d: %d after %d", i, ci.ID, dir[i-1].ID)
		}
		last := -1
		err := p.ScanCluster(ci.ID, func(id int, vals []float64) error {
			r, ok := want[id]
			switch {
			case !ok || r.Cluster != ci.ID:
				t.Errorf("record %d read back in cluster %d, written to %+v", id, ci.ID, r.Cluster)
			case id <= last:
				t.Errorf("cluster %d: record %d after %d", ci.ID, id, last)
			}
			for j, v := range vals {
				if ok && math.Float64bits(v) != math.Float64bits(float64(float32(r.Values[j]))) {
					t.Errorf("record %d reading %d: %g, written %g", id, j, v, r.Values[j])
				}
			}
			last = id
			seen++
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	if seen != len(want) {
		t.Errorf("read back %d records, wrote %d", seen, len(want))
	}
	if err := p.ScanCluster(ClusterID(1<<40), func(int, []float64) error {
		t.Error("scan of an absent cluster produced a record")
		return nil
	}); err != nil {
		t.Error(err)
	}
}

// checkMerge merges incoming into the file holding old and requires the
// result to be, byte for byte, the one-shot file of the surviving old records
// plus incoming, to read back as those records, and to be the reported size.
func checkMerge(t *testing.T, seriesLen int, old, incoming []Incoming) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "p.clmp")
	writeFile(t, path, seriesLen, old)

	replaced := make(map[int]bool)
	for _, r := range incoming {
		replaced[r.ID] = true
	}
	var union []Incoming
	for _, r := range old {
		if !replaced[r.ID] {
			union = append(union, r)
		}
	}
	union = append(union, incoming...)
	want := writeFile(t, filepath.Join(dir, "want.clmp"), seriesLen, union)

	count, written, err := mergeInPlace(path, seriesLen, incoming)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged file differs from the one-shot file (%d vs %d bytes)", len(got), len(want))
	}
	if count != len(union) || written != int64(len(want)) {
		t.Fatalf("MergePartitions reported %d records, %d bytes; want %d, %d", count, written, len(union), len(want))
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	checkDecoded(t, p, seriesLen, union)
}

// The merge's contract over random inputs: new clusters, replaced IDs (in
// place and moved to another cluster), incoming IDs below every existing one,
// an empty old partition, an empty incoming set.
func TestMergeMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for round := 0; round < 200; round++ {
		seriesLen := 1 + rng.IntN(12)
		clusters := 1 + rng.IntN(6)
		record := func(id int) Incoming {
			vals := make([]float64, seriesLen)
			for j := range vals {
				vals[j] = rng.NormFloat64()
			}
			return Incoming{Cluster: ClusterID(rng.IntN(clusters) - 2), ID: id, Values: vals}
		}
		// Old IDs start at 100 so incoming ones can land below them.
		var old []Incoming
		if round%7 != 0 {
			for i, n := 0, rng.IntN(60); i < n; i++ {
				old = append(old, record(100+2*i))
			}
		}
		var incoming []Incoming
		if round%5 != 0 {
			for _, id := range rng.Perm(250)[:rng.IntN(40)] {
				r := record(id)
				if rng.IntN(3) == 0 {
					r.Cluster += ClusterID(clusters) // a cluster the old file never saw
				}
				incoming = append(incoming, r)
			}
		}
		checkMerge(t, seriesLen, old, incoming)
	}
}

// What a partition's drains leave must not depend on whether they went
// through a tail: rounds of records merged into a tail beside the base and
// then folded — one MergePartitions of base, tail and a last round — give,
// byte for byte, the base that merging every round straight into it gives,
// which is the one-shot file of all the records.
func TestFoldMatchesWholeRewrite(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	for round := 0; round < 60; round++ {
		seriesLen := 1 + rng.IntN(12)
		clusters := 1 + rng.IntN(6)
		next := 0
		batch := func(n int) []Incoming {
			out := make([]Incoming, n)
			for i := range out {
				vals := make([]float64, seriesLen)
				for j := range vals {
					vals[j] = rng.NormFloat64()
				}
				out[i] = Incoming{Cluster: ClusterID(rng.IntN(clusters) - 2), ID: next, Values: vals}
				next++
			}
			return out
		}
		dir := t.TempDir()
		built := batch(rng.IntN(80))
		tailed, whole := filepath.Join(dir, "tailed.clmp"), filepath.Join(dir, "whole.clmp")
		writeFile(t, tailed, seriesLen, built)
		writeFile(t, whole, seriesLen, built)
		all := slices.Clone(built)

		tail := tailed + ".tail"
		var tailSrcs []string
		inTail := 0
		for drains := 1 + rng.IntN(4); drains > 0; drains-- {
			in := batch(1 + rng.IntN(10))
			all = append(all, in...)
			count, _, err := MergePartitions(tail, seriesLen, tailSrcs, in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if inTail += len(in); count != inTail {
				t.Fatalf("tail holds %d records after %d went in", count, inTail)
			}
			tailSrcs = []string{tail}
			if _, _, err := mergeInPlace(whole, seriesLen, in); err != nil {
				t.Fatal(err)
			}
		}
		last := batch(rng.IntN(10))
		all = append(all, last...)
		count, written, err := MergePartitions(tailed, seriesLen, []string{tailed, tail}, last, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := mergeInPlace(whole, seriesLen, last); err != nil {
			t.Fatal(err)
		}

		want := writeFile(t, filepath.Join(dir, "want.clmp"), seriesLen, all)
		for name, path := range map[string]string{"folded": tailed, "merged drain by drain": whole} {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: the %s base differs from the one-shot file (%d vs %d bytes)", round, name, len(got), len(want))
			}
		}
		if count != len(all) || written != int64(len(want)) {
			t.Fatalf("fold reported %d records, %d bytes; want %d, %d", count, written, len(all), len(want))
		}
	}
}

// A merge with no source writes a new file: of the incoming records, or of
// none, an empty partition that opens like any other.
func TestMergeIntoNewFile(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.clmp")
	if count, _, err := MergePartitions(empty, 2, nil, nil, nil); err != nil || count != 0 {
		t.Fatalf("merge of nothing into a new file: count %d, err %v", count, err)
	}
	path := filepath.Join(dir, "p.clmp.tail")
	in := []Incoming{{Cluster: 3, ID: 9, Values: []float64{1, 2}}, {Cluster: -1, ID: 4, Values: []float64{3, 4}}}
	renamed := false
	count, _, err := MergePartitions(path, 2, nil, in, func() {
		renamed = true
		if _, err := os.Stat(path); err == nil {
			t.Error("the file was in place before the rename was announced")
		}
	})
	if err != nil || count != 2 || !renamed {
		t.Fatalf("merge into a new file: count %d, announced %v, err %v", count, renamed, err)
	}
	for file, recs := range map[string][]Incoming{empty: nil, path: in} {
		p, err := OpenPartition(file)
		if err != nil {
			t.Fatal(err)
		}
		checkDecoded(t, p, 2, recs)
		p.Close()
	}
}

// A file whose records are not in the canonical order (nothing but the
// writer's sort guarantees it) still merges to the canonical file.
func TestMergeCanonicalisesUnsortedFile(t *testing.T) {
	const seriesLen = 3
	recs := []Incoming{
		{Cluster: 1, ID: 5, Values: []float64{1, 2, 3}},
		{Cluster: 1, ID: 9, Values: []float64{4, 5, 6}},
		{Cluster: 2, ID: 7, Values: []float64{7, 8, 9}},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.clmp")
	raw := writeFile(t, path, seriesLen, recs)
	// Swap cluster 1's two records, and their one-byte summaries, and
	// re-seal the checksum.
	rb := RecordBytes(seriesLen)
	first := 16 + 12*2
	a := append([]byte(nil), raw[first:first+rb]...)
	copy(raw[first:], raw[first+rb:first+2*rb])
	copy(raw[first+rb:], a)
	sums := first + 3*rb
	raw[sums], raw[sums+1] = raw[sums+1], raw[sums]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	incoming := []Incoming{{Cluster: 1, ID: 6, Values: []float64{0, 0, 0}}}
	want := writeFile(t, filepath.Join(dir, "want.clmp"), seriesLen, append(recs, incoming...))
	if _, _, err := mergeInPlace(path, seriesLen, incoming); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merge of an unsorted file is not the canonical file")
	}
}

// Sources of every version fold into the file the writer writes: a
// version-4 source's summaries are copied, a version-3 or version-2 one's
// computed afresh at the version-4 width.
func TestMergeOlderVersionsIntoVersion4(t *testing.T) {
	const seriesLen = 48
	rng := rand.New(rand.NewPCG(4, 9))
	var all []Incoming
	for i := range 90 {
		vals := make([]float64, seriesLen)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		all = append(all, Incoming{Cluster: ClusterID(i % 4), ID: i, Values: vals})
	}
	dir := t.TempDir()
	want := writeFile(t, filepath.Join(dir, "want.clmp"), seriesLen, all)
	for _, versions := range [][2]int{{4, 4}, {3, 4}, {4, 3}, {3, 3}, {2, 3}, {4, 2}} {
		var srcs []string
		for k, v := range versions {
			path := filepath.Join(dir, fmt.Sprintf("src%d.clmp", k))
			raw, err := Reformat(writeFile(t, path, seriesLen, all[k*30:(k+1)*30]), v)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			srcs = append(srcs, path)
		}
		out := filepath.Join(dir, "out.clmp")
		if _, _, err := MergePartitions(out, seriesLen, srcs, all[60:], nil); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sources of versions %v merge to another file than the writer's", versions)
		}
	}
}

// A record of another length, a source file of another length and a length
// that is no length at all are refused, and the partition file is untouched.
func TestMergeRejectsWrongLength(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.clmp")
	before := writeFile(t, path, 4, []Incoming{{Cluster: 0, ID: 1, Values: make([]float64, 4)}})
	if _, _, err := mergeInPlace(path, 4, []Incoming{{Cluster: 0, ID: 2, Values: make([]float64, 3)}}); err == nil {
		t.Fatal("merge accepted a record of the wrong length")
	}
	if _, _, err := mergeInPlace(path, 3, []Incoming{{Cluster: 0, ID: 2, Values: make([]float64, 3)}}); err == nil {
		t.Fatal("merge accepted a source file of another series length")
	}
	if _, _, err := MergePartitions(filepath.Join(dir, "zero.clmp"), 0, nil, nil, nil); err == nil {
		t.Fatal("merge accepted a series length of zero")
	}
	// A reading that is not finite in float32 — a NaN, an infinity, a
	// float64 beyond ±MaxFloat32 — is refused too, naming its record.
	for _, bad := range []float64{math.NaN(), math.Inf(-1), 1e39} {
		_, _, err := mergeInPlace(path, 4, []Incoming{{Cluster: 0, ID: 2, Values: []float64{1, bad, 3, 4}}})
		if err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "float32") {
			t.Fatalf("merge of a reading %v: error %v, want one naming record 2 and float32", bad, err)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("rejected merge changed the partition file")
	}
	if _, err := os.Stat(filepath.Join(dir, "zero.clmp")); !os.IsNotExist(err) {
		t.Fatalf("a refused merge left a file: %v", err)
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, _ fs.DirEntry, err error) error {
		out = append(out, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A failed replace leaves nothing behind: the rename target is squatted by a
// non-empty directory, so the temporary file is written and the rename fails.
func TestReplaceFileRemovesTempOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "p.clmp")
	if err := os.MkdirAll(filepath.Join(target, "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := listDir(t, dir)
	if err := replaceFile(target+".tmp", target, []byte("partition bytes"), nil); err == nil {
		t.Fatal("replace over a non-empty directory succeeded")
	}
	if after := listDir(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed replace changed the directory:\nbefore %v\nafter  %v", before, after)
	}
	if err := os.RemoveAll(target); err != nil {
		t.Fatal(err)
	}
	if err := replaceFile(target+".tmp", target, []byte("partition bytes"), nil); err != nil {
		t.Fatalf("replace after the squatter left: %v", err)
	}
	if got := listDir(t, dir); len(got) != 2 {
		t.Fatalf("successful replace left %v, want the directory and the file", got)
	}
}

// The pool's contract as LoadPartition sees it: the buffer of a released
// partition serves the next load of a similar size, a partition still
// referenced keeps its buffer to itself, and the bytes read are the file's
// either way.
func TestLoadPartitionRecyclesBuffers(t *testing.T) {
	pathA, wantA := buildPartition(t, 8, 40)
	pathB, wantB := buildPartition(t, 8, 40)
	// Start from an empty idle list so the buffer released below is the only
	// candidate for the load that follows it.
	bufPool.mu.Lock()
	bufPool.idle, bufPool.idleBytes = nil, 0
	bufPool.mu.Unlock()

	a, err := LoadPartition(pathA)
	if err != nil {
		t.Fatal(err)
	}
	held := &a.data[0]
	b, err := LoadPartition(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if &b.data[0] == held {
		t.Fatal("a buffer was issued twice while its first partition is still referenced")
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	before := BufferPoolStats()
	a2, err := LoadPartition(pathA)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Release()
	defer b.Release()
	if &a2.data[0] != held {
		t.Fatal("the released buffer was not reused by the next load of the same size")
	}
	if after := BufferPoolStats(); after.Reused != before.Reused+1 || after.Fresh != before.Fresh {
		t.Fatalf("pool counters went %+v -> %+v, want one more reuse", before, after)
	}
	for p, want := range map[*Partition]map[int][]float64{a2: wantA, b: wantB} {
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		decoded, _ := collectScans(t, p)
		if !reflect.DeepEqual(decoded, want) {
			t.Fatal("a partition loaded into a pooled buffer scans different records")
		}
	}
}

// mergeInPlace merges incoming into the partition file at path: a merge with
// the file as its own only source.
func mergeInPlace(path string, seriesLen int, incoming []Incoming) (count int, written int64, err error) {
	return MergePartitions(path, seriesLen, []string{path}, incoming, nil)
}

// benchPartition writes a partition shaped like a serving one — 256-reading
// series, 8 000 records over 40 clusters, ~8 MB — and returns its path and
// record count.
func benchPartition(b *testing.B) (string, int) {
	b.Helper()
	const seriesLen, records, clusters = 256, 8000, 40
	rng := rand.New(rand.NewPCG(15, 2))
	recs := make([]Incoming, records)
	for i := range recs {
		vals := make([]float64, seriesLen)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		recs[i] = Incoming{Cluster: ClusterID(i % clusters), ID: i, Values: vals}
	}
	path := filepath.Join(b.TempDir(), "bench.clmp")
	writeFile(b, path, seriesLen, recs)
	return path, records
}

// BenchmarkLoadPartition: one heap load of an ~8 MB partition, into a fresh
// allocation (os.ReadFile, what LoadPartition did before the pool) and into
// a recycled buffer (LoadPartition + Release).
func BenchmarkLoadPartition(b *testing.B) {
	path, records := benchPartition(b)
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := newPartition(bytes.NewReader(data), int64(len(data)), path); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := LoadPartition(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Release(); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
}

// BenchmarkMergePartition: 64 new records landing in an ~8 MB partition —
// what one compaction does to each partition it touches. "tail" is what it
// does now on all drains but one in a dozen: the merge into a tail of 500
// records beside the base; "fold" is that one: base, tail and the records
// into the base. "bytes" merges straight into the base, what every drain did
// before tails. ns/record is per record of the base throughout.
func BenchmarkMergePartition(b *testing.B) {
	const batch, tailRecords, seriesLen = 64, 500, 256
	vals := make([]float64, seriesLen)
	incoming := func(first int) []Incoming {
		in := make([]Incoming, batch)
		for j := range in {
			in[j] = Incoming{Cluster: ClusterID(j % 40), ID: first + j, Values: vals}
		}
		return in
	}
	for _, impl := range []struct {
		name string
		fn   func(base, tail string, in []Incoming) error
	}{
		{"tail", func(_, tail string, in []Incoming) error { _, _, err := mergeInPlace(tail, seriesLen, in); return err }},
		{"fold", func(base, tail string, in []Incoming) error {
			// Into a second file, so the base never holds the tail's records
			// when the next round folds them in.
			_, _, err := MergePartitions(base+".folded", seriesLen, []string{base, tail}, in, nil)
			return err
		}},
		{"bytes", func(base, _ string, in []Incoming) error { _, _, err := mergeInPlace(base, seriesLen, in); return err }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			base, records := benchPartition(b)
			tail := base + ".tail"
			var seed []Incoming
			for first := records; len(seed) < tailRecords; first += batch {
				seed = append(seed, incoming(first)...)
			}
			if _, _, err := MergePartitions(tail, seriesLen, nil, seed[:tailRecords], nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The same IDs every round: after the first, each merge
				// replaces the last one's records and the files stop growing.
				if err := impl.fn(base, tail, incoming(records+tailRecords)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records+batch), "ns/record")
		})
	}
}
