package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestBlockRoundTrip(t *testing.T) {
	path := tempPath(t, "b.clmb")
	bw, err := NewBlockWriter(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{1, 2, 3, 4},
		{-1.5, 0.25, 1e6, -1e-6},
		{0, 0, 0, 0},
	}
	for i, v := range want {
		if err := bw.Append(100+i, v); err != nil {
			t.Fatal(err)
		}
	}
	if bw.Count() != 3 {
		t.Fatalf("Count = %d, want 3", bw.Count())
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := StatBlock(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.SeriesLen != 4 || info.Count != 3 {
		t.Fatalf("StatBlock = %+v, want len 4 count 3", info)
	}

	var gotIDs []int
	var gotVals [][]float64
	err = ScanBlock(path, func(id int, values []float64) error {
		gotIDs = append(gotIDs, id)
		cp := make([]float64, len(values))
		copy(cp, values)
		gotVals = append(gotVals, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != 3 {
		t.Fatalf("scanned %d records, want 3", len(gotIDs))
	}
	for i := range want {
		if gotIDs[i] != 100+i {
			t.Fatalf("record %d id = %d, want %d", i, gotIDs[i], 100+i)
		}
		for j := range want[i] {
			// float32 storage: compare at float32 precision.
			if math.Abs(gotVals[i][j]-float64(float32(want[i][j]))) > 1e-12 {
				t.Fatalf("record %d value %d = %g, want %g", i, j, gotVals[i][j], want[i][j])
			}
		}
	}
}

func TestBlockWriterRejectsWrongLength(t *testing.T) {
	bw, err := NewBlockWriter(tempPath(t, "b.clmb"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer bw.Close()
	if err := bw.Append(1, []float64{1, 2}); err == nil {
		t.Fatal("wrong-length record accepted")
	}
}

func TestNewBlockWriterInvalidLength(t *testing.T) {
	if _, err := NewBlockWriter(tempPath(t, "b.clmb"), 0); err == nil {
		t.Fatal("zero series length accepted")
	}
}

func TestStatBlockBadMagic(t *testing.T) {
	path := tempPath(t, "bad.clmb")
	if err := os.WriteFile(path, []byte("NOPExxxxxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StatBlock(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	path := tempPath(t, "p.clmp")
	pw := NewPartitionWriter(2)
	// Three clusters, including a negative (overflow) ID.
	type rec struct {
		cluster ClusterID
		id      int
		vals    []float64
	}
	recs := []rec{
		{5, 1, []float64{1, 2}},
		{5, 2, []float64{3, 4}},
		{9, 3, []float64{5, 6}},
		{-1, 4, []float64{7, 8}},
	}
	for _, r := range recs {
		if err := pw.Append(r.cluster, r.id, r.vals); err != nil {
			t.Fatal(err)
		}
	}
	if pw.Count() != 4 {
		t.Fatalf("writer Count = %d, want 4", pw.Count())
	}
	if err := pw.Flush(path); err != nil {
		t.Fatal(err)
	}

	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.SeriesLen() != 2 || p.Count() != 4 {
		t.Fatalf("partition len %d count %d, want 2, 4", p.SeriesLen(), p.Count())
	}
	dir := p.Clusters()
	if len(dir) != 3 {
		t.Fatalf("directory has %d clusters, want 3", len(dir))
	}
	// Directory sorted ascending: -1, 5, 9.
	if dir[0].ID != -1 || dir[1].ID != 5 || dir[2].ID != 9 {
		t.Fatalf("directory order = %v", dir)
	}
	if dir[1].Count != 2 {
		t.Fatalf("cluster 5 count = %d, want 2", dir[1].Count)
	}

	var ids []int
	err = p.ScanCluster(5, func(id int, values []float64) error {
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("cluster 5 ids = %v, want [1 2]", ids)
	}

	// Missing cluster is not an error and yields nothing.
	called := false
	if err := p.ScanCluster(777, func(int, []float64) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("missing cluster produced records")
	}

	// ScanAll covers every record exactly once.
	seen := map[int]int{}
	err = p.ScanAll(func(id int, values []float64) error {
		seen[id]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("ScanAll saw %d distinct records, want 4", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d scanned %d times", id, n)
		}
	}
}

func TestPartitionScanClusters(t *testing.T) {
	path := tempPath(t, "p.clmp")
	pw := NewPartitionWriter(1)
	for i := 0; i < 10; i++ {
		if err := pw.Append(ClusterID(i%3), i, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(path); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var n int
	err = p.ScanClusters([]ClusterID{0, 2, 42}, func(id int, values []float64) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 0 has ids 0,3,6,9 (4 records); cluster 2 has 2,5,8 (3).
	if n != 7 {
		t.Fatalf("ScanClusters visited %d records, want 7", n)
	}
}

func TestPartitionWriterRejectsWrongLength(t *testing.T) {
	pw := NewPartitionWriter(3)
	if err := pw.Append(1, 1, []float64{1}); err == nil {
		t.Fatal("wrong-length record accepted")
	}
}

func TestPartitionValuesCopied(t *testing.T) {
	pw := NewPartitionWriter(2)
	v := []float64{1, 2}
	if err := pw.Append(0, 1, v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	path := tempPath(t, "p.clmp")
	if err := pw.Flush(path); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	err = p.ScanAll(func(id int, values []float64) error {
		if values[0] != 1 {
			t.Fatalf("writer aliased caller storage: %v", values)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenPartitionBadMagic(t *testing.T) {
	path := tempPath(t, "bad.clmp")
	if err := os.WriteFile(path, []byte("NOPExxxxxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPartition(path); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// A header whose directory or cluster counts claim more than the file holds
// is refused by every backing when it is opened: sized from the header alone,
// the directory of the first would be a 48 GB allocation, and the second
// would pass the open and slice past the end of a resident file on its first
// scan.
func TestOpenRejectsOverrunningHeader(t *testing.T) {
	path, _ := buildPartition(t, 4, 10)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patched := func(off int, v uint32) []byte {
		out := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	for name, data := range map[string][]byte{
		"directory": patched(12, math.MaxUint32),
		"cluster":   patched(16+8, 1<<20), // the first cluster's record count
	} {
		bad := tempPath(t, name+".clmp")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
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
				t.Errorf("%s: an overrunning %s count opened", backing, name)
			}
		}
	}
}

func TestEmptyPartition(t *testing.T) {
	path := tempPath(t, "empty.clmp")
	pw := NewPartitionWriter(4)
	if err := pw.Flush(path); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Count() != 0 || len(p.Clusters()) != 0 {
		t.Fatalf("empty partition count %d clusters %d", p.Count(), len(p.Clusters()))
	}
}

// Large randomised round trip: every record must come back in its cluster
// with float32-exact values.
func TestPartitionRandomisedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 55))
	const n, seriesLen = 2000, 8
	pw := NewPartitionWriter(seriesLen)
	want := make(map[int]ClusterID, n)
	for i := 0; i < n; i++ {
		c := ClusterID(rng.IntN(20) - 5)
		v := make([]float64, seriesLen)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if err := pw.Append(c, i, v); err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	path := tempPath(t, "big.clmp")
	if err := pw.Flush(path); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got := make(map[int]ClusterID, n)
	for _, ci := range p.Clusters() {
		cid := ci.ID
		err := p.ScanCluster(cid, func(id int, values []float64) error {
			got[id] = cid
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for id, c := range want {
		if got[id] != c {
			t.Fatalf("record %d in cluster %d, want %d", id, got[id], c)
		}
	}
}

func TestPartitionVerify(t *testing.T) {
	path := tempPath(t, "v.clmp")
	pw := NewPartitionWriter(4)
	for i := 0; i < 20; i++ {
		if err := pw.Append(ClusterID(i%3), i, []float64{1, 2, 3, float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(path); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("pristine partition fails verification: %v", err)
	}
	p.Close()

	// Flip one record byte: verification must fail, reads must still work
	// (corruption detection is explicit, not implicit).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err = OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Verify(); err == nil {
		t.Fatal("corrupted partition passed verification")
	}
}

func TestPartitionVerifyEmptyFile(t *testing.T) {
	path := tempPath(t, "empty.clmp")
	pw := NewPartitionWriter(2)
	if err := pw.Flush(path); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Verify(); err != nil {
		t.Fatalf("empty partition fails verification: %v", err)
	}
}

func TestRecordBytes(t *testing.T) {
	if got := RecordBytes(256); got != 8+1024 {
		t.Fatalf("RecordBytes(256) = %d, want 1032", got)
	}
}
