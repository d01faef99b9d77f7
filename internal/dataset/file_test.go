package dataset

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"climber/internal/storage"
)

func TestFileRoundTrip(t *testing.T) {
	ds := RandomWalk(32, 50, 5)
	path := filepath.Join(t.TempDir(), "d.clmb")
	if err := SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() || back.Length() != ds.Length() {
		t.Fatalf("shape changed: %dx%d", back.Len(), back.Length())
	}
	for i := 0; i < ds.Len(); i++ {
		a, b := ds.Get(i), back.Get(i)
		for j := range a {
			if float32(a[j]) != float32(b[j]) {
				t.Fatalf("series %d reading %d: %g vs %g", i, j, a[j], b[j])
			}
		}
	}
}

// The dataset file is a partition file: records 0..n-1 in cluster 0, with a
// valid checksum.
func TestSavedFileIsPartition(t *testing.T) {
	ds := RandomWalk(16, 30, 2)
	path := filepath.Join(t.TempDir(), "d.clmb")
	if err := SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	p, err := storage.OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	dir := p.Clusters()
	if p.SeriesLen() != 16 || p.Count() != 30 || len(dir) != 1 || dir[0].ID != 0 {
		t.Fatalf("partition of length %d, %d records, directory %+v; want 16, 30, one cluster 0", p.SeriesLen(), p.Count(), dir)
	}
}

// A file of the block format the dataset file used to be is refused with
// the magic it carries, and so is a partition whose IDs are not 0..n-1.
func TestLoadFileRefusesOtherFiles(t *testing.T) {
	dir := t.TempDir()
	block := filepath.Join(dir, "old.clmb")
	raw := []byte("CLMB")
	for _, v := range []uint32{1, 4, 1} { // version, series length, count
		raw = binary.LittleEndian.AppendUint32(raw, v)
	}
	raw = append(raw, make([]byte, storage.RecordBytes(4))...)
	if err := os.WriteFile(block, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(block); err == nil || !strings.Contains(err.Error(), `magic "CLMB"`) {
		t.Fatalf("a block file loaded with error %v; want one naming its magic", err)
	}

	sparse := filepath.Join(dir, "sparse.clmb")
	recs := []storage.Incoming{{ID: 0, Values: []float64{1, 2}}, {ID: 2, Values: []float64{3, 4}}}
	if _, _, err := storage.MergePartitions(sparse, 2, nil, recs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(sparse); err == nil || !strings.Contains(err.Error(), "non-sequential") {
		t.Fatalf("a file of IDs 0 and 2 loaded with error %v", err)
	}
}
