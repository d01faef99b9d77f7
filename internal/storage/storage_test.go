package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestPartitionRoundTrip(t *testing.T) {
	path := tempPath(t, "p.clmp")
	// Three clusters, including a negative (overflow) ID, and readings the
	// format cuts to float32.
	recs := []Incoming{
		{Cluster: 5, ID: 2, Values: []float64{3, 4}},
		{Cluster: 5, ID: 1, Values: []float64{1, 2}},
		{Cluster: 9, ID: 3, Values: []float64{1e6, -1e-6}},
		{Cluster: -1, ID: 4, Values: []float64{-1.5, 0.1}},
	}
	writeFile(t, path, 2, recs)

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

	// ScanAll covers every record exactly once, at float32 precision.
	seen := map[int]int{}
	err = p.ScanAll(func(id int, values []float64) error {
		seen[id]++
		want := recs[slices.IndexFunc(recs, func(r Incoming) bool { return r.ID == id })].Values
		for j, v := range values {
			if v != float64(float32(want[j])) {
				t.Errorf("record %d reading %d = %g, want %g at float32", id, j, v, want[j])
			}
		}
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
	var recs []Incoming
	for i := 0; i < 10; i++ {
		recs = append(recs, Incoming{Cluster: ClusterID(i % 3), ID: i, Values: []float64{float64(i)}})
	}
	writeFile(t, path, 1, recs)
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

// A block of series — records 100.. in one cluster, what the dataset file
// holds — reads back in ID order at float32 precision, with its length and
// count in the header.
func TestBlockRoundTrip(t *testing.T) {
	path := tempPath(t, "b.clmp")
	want := [][]float64{
		{1, 2, 3, 4},
		{-1.5, 0.25, 1e6, -1e-6},
		{0, 0, 0, 0},
	}
	recs := make([]Incoming, len(want))
	for i, v := range want {
		recs[i] = Incoming{Cluster: 0, ID: 100 + i, Values: v}
	}
	writeFile(t, path, 4, recs)

	p, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.SeriesLen() != 4 || p.Count() != 3 || len(p.Clusters()) != 1 {
		t.Fatalf("block of len %d, %d records in %d clusters; want 4, 3, 1", p.SeriesLen(), p.Count(), len(p.Clusters()))
	}
	var gotIDs []int
	var gotVals [][]float64
	err = p.ScanAll(func(id int, values []float64) error {
		gotIDs = append(gotIDs, id)
		gotVals = append(gotVals, slices.Clone(values))
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

// A write of a one-cluster block refuses a record of the wrong length and
// leaves no file behind.
func TestBlockWriterRejectsWrongLength(t *testing.T) {
	path := tempPath(t, "b.clmp")
	in := []Incoming{{Cluster: 0, ID: 0, Values: []float64{1, 2, 3}}, {Cluster: 0, ID: 1, Values: []float64{1, 2}}}
	if _, _, err := MergePartitions(path, 3, nil, in, nil); err == nil {
		t.Fatal("wrong-length record accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused write left a file: %v", err)
	}
}

// A series length that is no length at all is refused, whatever the records.
func TestNewBlockWriterInvalidLength(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, _, err := MergePartitions(tempPath(t, "b.clmp"), n, nil, nil, nil); err == nil {
			t.Fatalf("series length %d accepted", n)
		}
	}
}

// A file in the retired CLMB block format is refused by every backing with an
// error naming its magic.
func TestStatBlockBadMagic(t *testing.T) {
	path := tempPath(t, "old.clmb")
	hdr := make([]byte, 24)
	copy(hdr, "CLMB")
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	binary.LittleEndian.PutUint32(hdr[8:], 4)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	for backing, open := range map[string]func(string) (*Partition, error){
		"open": OpenPartition, "load": LoadPartition, "map": MapPartition,
	} {
		if backing == "map" && !MapSupported() {
			continue
		}
		p, err := open(path)
		if err == nil {
			p.Close()
			t.Fatalf("%s: a CLMB file opened as a partition", backing)
		}
		if !strings.Contains(err.Error(), "CLMB") {
			t.Errorf("%s: error %q does not name the magic", backing, err)
		}
	}
}

// A record of the wrong length among good ones in several clusters is refused,
// and nothing is written.
func TestPartitionWriterRejectsWrongLength(t *testing.T) {
	path := tempPath(t, "p.clmp")
	in := []Incoming{
		{Cluster: 1, ID: 1, Values: []float64{1, 2, 3}},
		{Cluster: 2, ID: 2, Values: []float64{4, 5, 6}},
		{Cluster: 1, ID: 3, Values: []float64{1}},
	}
	if _, _, err := MergePartitions(path, 3, nil, in, nil); err == nil {
		t.Fatal("wrong-length record accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused write left a file: %v", err)
	}
}

// Values cross the file boundary as copies both ways: the caller's slice may
// change once the write returns, and a scan's slice may be scribbled on,
// without either reaching the file or the next scan, on every backing.
func TestPartitionValuesCopied(t *testing.T) {
	path := tempPath(t, "p.clmp")
	v := []float64{1, 2}
	writeFile(t, path, 2, []Incoming{{Cluster: 0, ID: 1, Values: v}})
	v[0] = 99
	for backing, open := range map[string]func(string) (*Partition, error){
		"open": OpenPartition, "load": LoadPartition, "map": MapPartition,
	} {
		if backing == "map" && !MapSupported() {
			continue
		}
		p, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			err = p.ScanAll(func(id int, values []float64) error {
				if values[0] != 1 || values[1] != 2 {
					t.Fatalf("%s pass %d: record reads %v, want [1 2]", backing, pass, values)
				}
				values[0], values[1] = -7, -7
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: %v", backing, err)
		}
		p.Close()
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
// scan. So is a series length of zero, which no writer produces and a
// dataset of series cannot hold.
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
		"length":    patched(8, 0),
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
				t.Errorf("%s: a header with a bad %s field opened", backing, name)
			}
		}
	}
}

func TestEmptyPartition(t *testing.T) {
	path := tempPath(t, "empty.clmp")
	writeFile(t, path, 4, nil)
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
	want := make(map[int]ClusterID, n)
	recs := make([]Incoming, n)
	for i := range recs {
		c := ClusterID(rng.IntN(20) - 5)
		v := make([]float64, seriesLen)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		recs[i] = Incoming{Cluster: c, ID: i, Values: v}
		want[i] = c
	}
	path := tempPath(t, "big.clmp")
	writeFile(t, path, seriesLen, recs)
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
	var recs []Incoming
	for i := 0; i < 20; i++ {
		recs = append(recs, Incoming{Cluster: ClusterID(i % 3), ID: i, Values: []float64{1, 2, 3, float64(i)}})
	}
	writeFile(t, path, 4, recs)
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
	writeFile(t, path, 2, nil)
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
