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
// arbitrary record payloads. Two files are written: the one-shot write of
// every record, and a base of the even records with the odd ones merged in
// afterwards; they must be equal byte for byte. The merged file must then
// read back as the records — bit-for-bit at the format's declared float32
// precision, in their clusters, directory and IDs ascending, checksum valid
// (checkDecoded) — from both the file-backed (OpenPartition) and the
// in-memory (LoadPartition) readers.
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

		// Consume the fuzz payload as records: one cluster-selector byte
		// (signed, so overflow clusters with negative IDs are exercised
		// too) followed by seriesLen raw float64 values, each finite in
		// float32.
		var all, even, odd []Incoming
		for recBytes := 1 + 8*seriesLen; len(data) >= recBytes && len(all) < 512; data = data[recBytes:] {
			vals := make([]float64, seriesLen)
			for j := range vals {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*j : 9+8*j]))
				if f := float32(vals[j]); f-f != 0 {
					vals[j] = 0 // the writer refuses it (TestWriterRefusesNonFiniteReadings)
				}
			}
			r := Incoming{Cluster: ClusterID(int8(data[0]) % 8), ID: len(all), Values: vals}
			all = append(all, r)
			if r.ID%2 == 0 {
				even = append(even, r)
			} else {
				odd = append(odd, r)
			}
		}

		dir := t.TempDir()
		oneShot := writeFile(t, filepath.Join(dir, "oneshot.clmp"), seriesLen, all)
		path := filepath.Join(dir, "fuzz.clmp")
		writeFile(t, path, seriesLen, even)
		if n, _, err := mergeInPlace(path, seriesLen, odd); err != nil || n != len(all) {
			t.Fatalf("merge: %d records, %v; want %d", n, err, len(all))
		}
		merged, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged, oneShot) {
			t.Fatal("base + merge differs from the one-shot file")
		}

		for name, open := range map[string]func(string) (*Partition, error){"file": OpenPartition, "memory": LoadPartition} {
			p, err := open(path)
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			checkDecoded(t, p, seriesLen, all)
			p.Close()
		}
	})
}
