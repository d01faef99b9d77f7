package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
)

// Layout is one partition file assembled in memory, the one writer of the
// format: NewLayout lays out the header and the directory in a pooled buffer
// and reserves a slot for every record, Put and copyRecords fill the slots,
// and Commit adds the CRC32 and puts the file in place. Slot i is the i-th
// record in file order: the directory's clusters in the order given, each
// cluster's Count records in a row. A writer that puts records in canonical
// order — clusters ascending, IDs ascending within a cluster — writes the
// bytes every other writer of the same record set writes (MergePartitions,
// cluster.Shuffle).
//
// Put may be called from several goroutines at once for distinct slots: a
// slot's record and summary bytes are its own.
type Layout struct {
	buf       []byte
	seriesLen int
	recBytes  int
	sumBytes  int
	recs      int // offset of slot 0's record
	sums      int // offset of slot 0's summary
	slots     int
	filled    atomic.Int64
}

// NewLayout lays out a partition file of records of seriesLen readings whose
// directory is dir (Count records of cluster ID each; offsets are derived).
// Release returns its buffer.
func NewLayout(seriesLen int, dir []ClusterInfo) *Layout {
	slots := 0
	for _, ci := range dir {
		slots += ci.Count
	}
	l := &Layout{seriesLen: seriesLen, recBytes: RecordBytes(seriesLen), sumBytes: SummaryBytes(seriesLen), slots: slots}
	l.recs = 16 + 12*len(dir)
	l.sums = l.recs + l.recBytes*slots
	l.buf = getBuf(l.sums + l.sumBytes*slots + 4)
	copy(l.buf[0:4], partitionMagic)
	binary.LittleEndian.PutUint32(l.buf[4:8], partitionVersion)
	binary.LittleEndian.PutUint32(l.buf[8:12], uint32(seriesLen))
	binary.LittleEndian.PutUint32(l.buf[12:16], uint32(len(dir)))
	for i, ci := range dir {
		binary.LittleEndian.PutUint64(l.buf[16+12*i:], uint64(ci.ID))
		binary.LittleEndian.PutUint32(l.buf[16+12*i+8:], uint32(ci.Count))
	}
	return l
}

// Len returns the number of records the layout holds.
func (l *Layout) Len() int { return l.slots }

// slot returns slot i's record and summary bytes.
func (l *Layout) slot(i int) (rec, sum []byte) {
	r, s := l.recs+i*l.recBytes, l.sums+i*l.sumBytes
	return l.buf[r : r+l.recBytes : r+l.recBytes], l.buf[s : s+l.sumBytes : s+l.sumBytes]
}

// Put encodes record id into slot i with AppendRecord, the record layout's
// encoder, and refuses it as that does: a reading not finite in float32 is
// an error naming the record. values must hold seriesLen readings.
func (l *Layout) Put(i, id int, values []float64) error {
	if len(values) != l.seriesLen {
		return fmt.Errorf("storage: record length %d, partition expects %d", len(values), l.seriesLen)
	}
	rec, sum := l.slot(i)
	if _, _, err := AppendRecord(rec[:0], sum[:0], id, values); err != nil {
		return err
	}
	l.filled.Add(1)
	return nil
}

// copyRecords puts encoded records, copied verbatim in a row from a
// partition file, into the slots from i on, and their summaries: sums, the
// source's summary bytes of the same records, copied when they are of the
// layout's width, and otherwise (a file of another version) computed from
// the copied bytes.
func (l *Layout) copyRecords(i int, recs, sums []byte) {
	n := len(recs) / l.recBytes
	r, s := l.recs+i*l.recBytes, l.sums+i*l.sumBytes
	copy(l.buf[r:r+len(recs)], recs)
	dst := l.buf[s : s+n*l.sumBytes]
	if len(sums) == len(dst) {
		copy(dst, sums)
	} else {
		for j := range n {
			rec := l.buf[r+j*l.recBytes : r+(j+1)*l.recBytes]
			summarize(dst[j*l.sumBytes:(j+1)*l.sumBytes], rec[8:], l.seriesLen)
		}
	}
	l.filled.Add(int64(n))
}

// Commit writes the laid-out file to dst with its trailing CRC32 and returns
// the bytes written. Every slot must have been filled. The file is written
// beside dst and renamed over it, so readers see either file whole;
// beforeRename, when set, is called between the two. On any failure the
// temporary file is removed and dst is untouched.
func (l *Layout) Commit(dst string, beforeRename func()) (int64, error) {
	return l.commit(dst+".tmp", dst, beforeRename)
}

// commit is Commit with the temporary file named by the caller.
func (l *Layout) commit(tmp, dst string, beforeRename func()) (int64, error) {
	if n := l.filled.Load(); n != int64(l.slots) {
		return 0, fmt.Errorf("storage: %d of the %d records of %s were placed", n, l.slots, dst)
	}
	end := l.sums + l.sumBytes*l.slots
	binary.LittleEndian.PutUint32(l.buf[end:], crc32.ChecksumIEEE(l.buf[:end]))
	if err := replaceFile(tmp, dst, l.buf, beforeRename); err != nil {
		return 0, err
	}
	return int64(len(l.buf)), nil
}

// Release returns the layout's buffer to the partition-buffer pool; the
// layout is unusable after it. It is safe to call more than once.
func (l *Layout) Release() {
	if l.buf != nil {
		putBuf(l.buf)
		l.buf = nil
	}
}
