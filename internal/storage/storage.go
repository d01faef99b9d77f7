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
//	                 summaries, one per record in file order… | CRC32
//
// Records are fixed size — uint64 ID + seriesLen float32 readings — so the
// cluster directory needs only counts; byte offsets are derived. Reading a
// single trie-node cluster is a seek plus one sequential read.
//
// Version 3 added the summary section: one byte per 16 readings of every
// record, the 8-bit iSAX symbol of the segment's mean (summary.go). Version
// 4, the one every writer writes, halves the segments: one byte per 8
// readings, 1/32 of the value bytes, so the lower bound skips more records.
// A query checks a record's summaries before computing its distance
// (LowerBound), at the width its file stores. Files of version 3, and of
// version 2, which end their records with the CRC32 and have no summaries
// (their scans rank every record), still open and are read as they are; the
// next rewrite of one (a drain's tail, a fold or a reindex) writes version 4.
// Every reading a file stores is finite in float32: the writer refuses any
// other.
//
// Every file of series is a partition file laid out by Layout: the
// partitions of a build or reindex (cluster.Shuffle), and, through
// MergePartitions, the tails and folds of a drain and the dataset
// interchange file of the command-line tools (internal/dataset's SaveFile),
// which is a one-cluster partition file.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
)

const (
	partitionMagic = "CLMP"
	// partitionVersion 4 stores one summary byte per 8 readings; version 3
	// stored one per 16, and version 2, which introduced the trailing CRC32
	// checksum, none. Files of all three are read.
	partitionVersion            = 4
	partitionVersion3           = 3
	partitionVersionNoSummaries = 2
)

// RecordBytes returns the on-disk size of one record for the given series
// length.
func RecordBytes(seriesLen int) int { return 8 + 4*seriesLen }

// AppendRecord appends one record to recs as a partition file stores it —
// its ID, then its readings rounded to float32 — and its summary to sums.
// It is the one encoder of the record layout, for partition files (Layout)
// and the in-memory delta (internal/ingest) alike. A
// reading not finite in float32 is refused, recs and sums returned as they
// came: it would rank as NaN or +Inf, and break the summary lower bound.
func AppendRecord(recs, sums []byte, id int, values []float64) ([]byte, []byte, error) {
	n, m := len(recs), len(sums)
	recs = slices.Grow(recs, RecordBytes(len(values)))[:n+RecordBytes(len(values))]
	binary.LittleEndian.PutUint64(recs[n:], uint64(id))
	for i, v := range values {
		f := float32(v)
		if f-f != 0 {
			return recs[:n], sums, fmt.Errorf("storage: record %d: reading %d (%v) is not finite in float32, the storage precision", id, i, v)
		}
		binary.LittleEndian.PutUint32(recs[n+8+4*i:], math.Float32bits(f))
	}
	sums = slices.Grow(sums, SummaryBytes(len(values)))[:m+SummaryBytes(len(values))]
	summarize(sums[m:], recs[n+8:], len(values))
	return recs, sums, nil
}

// checkFinite reports the first reading of vals, little-endian float32s,
// that is a NaN or an infinity.
func checkFinite(vals []byte) error {
	for off := 0; off < len(vals); off += 4 {
		if f := math.Float32frombits(binary.LittleEndian.Uint32(vals[off:])); f-f != 0 {
			return fmt.Errorf("reading %d (%v) is not finite", off/4, f)
		}
	}
	return nil
}

// DecodeRecord reads one record of the layout AppendRecord writes: it fills
// vals, len(vals) readings, and returns the ID.
func DecodeRecord(src []byte, vals []float64) (id int) {
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
