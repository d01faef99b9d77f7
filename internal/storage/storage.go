// Package storage implements CLIMBER's disk formats: physical partition files,
// and the block file, which is the dataset interchange file of the
// command-line tools (internal/dataset's SaveFile and LoadFile are its only
// users; no index reads or writes one).
//
// The paper stores partitions on HDFS with a capacity of 64/128 MB and
// organises each partition so that "all data series objects belonging to a
// trie node are stored contiguously next to each other. The start offset of
// each trie node cluster is maintained in a header section within the
// partition" (Section VI, Localized Record-Level Similarity). This package
// reproduces that layout on a local filesystem:
//
//	block file:      magic | version | seriesLen | count | records…
//	partition file:  magic | version | seriesLen | #clusters |
//	                 directory (clusterID, count)… | records grouped by cluster…
//
// Records are fixed size — uint64 ID + seriesLen float32 readings — so the
// cluster directory needs only counts; byte offsets are derived. Reading a
// single trie-node cluster is a seek plus one sequential read.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

const (
	blockMagic     = "CLMB"
	partitionMagic = "CLMP"
	formatVersion  = 1
	// partitionVersion is independent of the block version: version 2
	// introduced the trailing CRC32 checksum.
	partitionVersion = 2
)

// RecordBytes returns the on-disk size of one record for the given series
// length.
func RecordBytes(seriesLen int) int { return 8 + 4*seriesLen }

// Record is one data series with its dataset-wide ID.
type Record struct {
	ID     int
	Values []float64
}

// ---------------------------------------------------------------------------
// Block files (the dataset interchange file)
// ---------------------------------------------------------------------------

// BlockWriter streams records into a raw block file.
type BlockWriter struct {
	f         *os.File
	w         *bufio.Writer
	seriesLen int
	count     uint32
	scratch   []byte
}

// NewBlockWriter creates (truncating) a block file for series of the given
// length.
func NewBlockWriter(path string, seriesLen int) (*BlockWriter, error) {
	if seriesLen <= 0 {
		return nil, fmt.Errorf("storage: series length must be positive, got %d", seriesLen)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create block: %w", err)
	}
	bw := &BlockWriter{f: f, w: bufio.NewWriterSize(f, 1<<16), seriesLen: seriesLen,
		scratch: make([]byte, RecordBytes(seriesLen))}
	// Header with a placeholder count, patched on Close.
	var hdr [16]byte
	copy(hdr[0:4], blockMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(seriesLen))
	binary.LittleEndian.PutUint32(hdr[12:16], 0)
	if _, err := bw.w.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: write block header: %w", err)
	}
	return bw, nil
}

// Append writes one record.
func (bw *BlockWriter) Append(id int, values []float64) error {
	if len(values) != bw.seriesLen {
		return fmt.Errorf("storage: record length %d, block expects %d", len(values), bw.seriesLen)
	}
	encodeRecord(bw.scratch, id, values)
	if _, err := bw.w.Write(bw.scratch); err != nil {
		return fmt.Errorf("storage: write record: %w", err)
	}
	bw.count++
	return nil
}

// Count returns the number of records appended so far.
func (bw *BlockWriter) Count() int { return int(bw.count) }

// Close flushes buffered data, patches the record count into the header and
// closes the file.
func (bw *BlockWriter) Close() error {
	if err := bw.w.Flush(); err != nil {
		bw.f.Close()
		return fmt.Errorf("storage: flush block: %w", err)
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], bw.count)
	if _, err := bw.f.WriteAt(cnt[:], 12); err != nil {
		bw.f.Close()
		return fmt.Errorf("storage: patch block count: %w", err)
	}
	if err := bw.f.Close(); err != nil {
		return fmt.Errorf("storage: close block: %w", err)
	}
	return nil
}

// BlockInfo describes a block file without loading its records.
type BlockInfo struct {
	SeriesLen int
	Count     int
}

// StatBlock reads a block file's header.
func StatBlock(path string) (BlockInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return BlockInfo{}, fmt.Errorf("storage: open block: %w", err)
	}
	defer f.Close()
	info, err := readBlockHeader(f)
	if err != nil {
		return BlockInfo{}, fmt.Errorf("storage: %s: %w", path, err)
	}
	return info, nil
}

func readBlockHeader(r io.Reader) (BlockInfo, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return BlockInfo{}, fmt.Errorf("read block header: %w", err)
	}
	if string(hdr[0:4]) != blockMagic {
		return BlockInfo{}, fmt.Errorf("bad block magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != formatVersion {
		return BlockInfo{}, fmt.Errorf("unsupported block version %d", v)
	}
	return BlockInfo{
		SeriesLen: int(binary.LittleEndian.Uint32(hdr[8:12])),
		Count:     int(binary.LittleEndian.Uint32(hdr[12:16])),
	}, nil
}

// ScanBlock streams every record of a block file through fn. The values
// slice passed to fn is reused between calls; fn must copy it to retain it.
func ScanBlock(path string, fn func(id int, values []float64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open block: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	info, err := readBlockHeader(r)
	if err != nil {
		return fmt.Errorf("storage: %s: %w", path, err)
	}
	return scanRecords(r, info.SeriesLen, info.Count, fn)
}

func scanRecords(r io.Reader, seriesLen, count int, fn func(id int, values []float64) error) error {
	buf := make([]byte, RecordBytes(seriesLen))
	vals := make([]float64, seriesLen)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("storage: read record %d/%d: %w", i, count, err)
		}
		id := decodeRecord(buf, vals)
		if err := fn(id, vals); err != nil {
			return err
		}
	}
	return nil
}

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
