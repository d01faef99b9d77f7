package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPartitionRoundTrip drives the partition encode→decode cycle with
// arbitrary record payloads: whatever cluster structure and values go into
// a PartitionWriter must come back — bit-for-bit at the format's declared
// float32 precision — from both the file-backed (OpenPartition) and the
// in-memory (LoadPartition) readers, with the directory sorted, the counts
// right, and the trailing checksum valid. The file that is read back went
// through MergePartitions — the even records flushed by a writer, the odd
// ones merged in — and must equal the one-shot PartitionWriter file of all
// of them byte for byte.
func FuzzPartitionRoundTrip(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(1), []byte{0x00, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), []byte{
		0x81, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
		0x02, 9, 9, 9, 9, 9, 9, 9, 9, 8, 8, 8, 8, 8, 8, 8, 8, 7, 7, 7, 7, 7, 7, 7, 7,
	})
	f.Add(uint8(16), make([]byte, 400))
	// The size of a partition's tail: the few dozen records one drain routes
	// to a partition, over a handful of its clusters.
	tail := make([]byte, 0, 55*(1+8*8))
	for i := 0; i < 55; i++ {
		tail = append(tail, byte(i%5))
		for j := 0; j < 8; j++ {
			tail = binary.LittleEndian.AppendUint64(tail, math.Float64bits(float64(i)+float64(j)/8))
		}
	}
	f.Add(uint8(7), tail)

	f.Fuzz(func(t *testing.T, lenByte uint8, data []byte) {
		seriesLen := int(lenByte%16) + 1
		pw := NewPartitionWriter(seriesLen)
		base := NewPartitionWriter(seriesLen)
		var merged []Incoming

		// Consume the fuzz payload as records: one cluster-selector byte
		// (signed, so overflow clusters with negative IDs are exercised
		// too) followed by seriesLen raw float64 values.
		recBytes := 1 + 8*seriesLen
		type rec struct {
			id   int
			vals []float64
		}
		want := make(map[ClusterID][]rec)
		id := 0
		for len(data) >= recBytes && id < 512 {
			cl := ClusterID(int8(data[0]) % 8)
			vals := make([]float64, seriesLen)
			for j := range vals {
				raw := math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*j : 9+8*j]))
				// The format stores float32; the expectation is the value
				// after that precision cut.
				vals[j] = float64(float32(raw))
			}
			in := make([]float64, seriesLen)
			for j := range in {
				in[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*j : 9+8*j]))
			}
			if err := pw.Append(cl, id, in); err != nil {
				t.Fatalf("append: %v", err)
			}
			if id%2 == 0 {
				if err := base.Append(cl, id, in); err != nil {
					t.Fatalf("append: %v", err)
				}
			} else {
				merged = append(merged, Incoming{Cluster: cl, ID: id, Values: in})
			}
			want[cl] = append(want[cl], rec{id: id, vals: vals})
			data = data[recBytes:]
			id++
		}

		dir := t.TempDir()
		oneShot := filepath.Join(dir, "oneshot.clmp")
		if err := pw.Flush(oneShot); err != nil {
			t.Fatalf("flush: %v", err)
		}
		path := filepath.Join(dir, "fuzz.clmp")
		if err := base.Flush(path); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if n, _, err := mergeInPlace(path, merged); err != nil || n != id {
			t.Fatalf("merge: %d records, %v; want %d", n, err, id)
		}
		oneShotBytes, err := os.ReadFile(oneShot)
		if err != nil {
			t.Fatal(err)
		}
		mergedBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mergedBytes, oneShotBytes) {
			t.Fatal("merged file differs from the one-shot PartitionWriter file")
		}

		for _, open := range []struct {
			name string
			fn   func(string) (*Partition, error)
		}{{"file", OpenPartition}, {"memory", LoadPartition}} {
			p, err := open.fn(path)
			if err != nil {
				t.Fatalf("%s: open: %v", open.name, err)
			}
			if err := p.Verify(); err != nil {
				t.Errorf("%s: checksum: %v", open.name, err)
			}
			if p.SeriesLen() != seriesLen {
				t.Errorf("%s: series length %d, want %d", open.name, p.SeriesLen(), seriesLen)
			}
			if p.Count() != id {
				t.Errorf("%s: %d records, want %d", open.name, p.Count(), id)
			}
			dir := p.Clusters()
			if len(dir) != len(want) {
				t.Errorf("%s: %d clusters, want %d", open.name, len(dir), len(want))
			}
			for i := 1; i < len(dir); i++ {
				if dir[i-1].ID >= dir[i].ID {
					t.Errorf("%s: directory not sorted at %d", open.name, i)
				}
			}
			for _, ci := range dir {
				exp := want[ci.ID]
				if ci.Count != len(exp) {
					t.Errorf("%s: cluster %d count %d, want %d", open.name, ci.ID, ci.Count, len(exp))
					continue
				}
				i := 0
				err := p.ScanCluster(ci.ID, func(gotID int, vals []float64) error {
					// Records come back in ascending-ID order; appends used
					// ascending IDs, so `exp` is already canonical.
					if gotID != exp[i].id {
						t.Errorf("%s: cluster %d record %d: id %d, want %d", open.name, ci.ID, i, gotID, exp[i].id)
					}
					for j, v := range vals {
						if math.Float64bits(v) != math.Float64bits(exp[i].vals[j]) {
							t.Errorf("%s: cluster %d record %d value %d: %x, want %x",
								open.name, ci.ID, i, j, math.Float64bits(v), math.Float64bits(exp[i].vals[j]))
						}
					}
					i++
					return nil
				})
				if err != nil {
					t.Errorf("%s: scan cluster %d: %v", open.name, ci.ID, err)
				}
			}
			// A cluster ID the partition never saw scans zero records.
			if err := p.ScanCluster(ClusterID(1<<40), func(int, []float64) error {
				t.Error("scan of an absent cluster produced a record")
				return nil
			}); err != nil {
				t.Errorf("%s: absent-cluster scan: %v", open.name, err)
			}
			p.Close()
		}
	})
}
