// Package storage implements CLIMBER's one record file, the partition file.
//
// The paper stores partitions on HDFS with a capacity of 64/128 MB and
// organises each partition so that "all data series objects belonging to a
// trie node are stored contiguously next to each other. The start offset of
// each trie node cluster is maintained in a header section within the
// partition" (Section VI, Localized Record-Level Similarity). This package
// reproduces that layout on a local filesystem:
//
//	partition file:  magic | version | seriesLen | #clusters |
//	                 directory (clusterID, count)… | records grouped by cluster… |
//	                 CRC32
//
// Records are fixed size — uint64 ID + seriesLen float32 readings — so the
// cluster directory needs only counts; byte offsets are derived. Reading a
// single trie-node cluster is a seek plus one sequential read.
//
// Every file of series is a partition file written by MergePartitions: the
// partitions of a build or reindex, the tails and folds of a drain, and the
// dataset interchange file of the command-line tools (internal/dataset's
// SaveFile), which is a one-cluster partition file.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

const (
	partitionMagic = "CLMP"
	// partitionVersion 2 introduced the trailing CRC32 checksum.
	partitionVersion = 2
)

// RecordBytes returns the on-disk size of one record for the given series
// length.
func RecordBytes(seriesLen int) int { return 8 + 4*seriesLen }

func encodeRecord(dst []byte, id int, values []float64) {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(id))
	off := 8
	for _, v := range values {
		binary.LittleEndian.PutUint32(dst[off:off+4], math.Float32bits(float32(v)))
		off += 4
	}
}

func decodeRecord(src []byte, vals []float64) (id int) {
	id = int(binary.LittleEndian.Uint64(src[0:8]))
	off := 8
	for i := range vals {
		vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[off : off+4])))
		off += 4
	}
	return id
}

// SyncPath fsyncs an already-written file, or a directory so that a preceding
// create or rename of one of its entries is durable.
func SyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open for sync: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", path, err)
	}
	return nil
}
