package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"
)

// ClusterID identifies a contiguous record cluster inside a partition file.
// CLIMBER uses the global trie-node ID of the leaf owning the records;
// negative IDs are reserved by the index layer for per-group overflow
// clusters (records whose trie path matches no child of the group's root).
type ClusterID int64

// ClusterInfo is one directory entry of a partition file.
type ClusterInfo struct {
	ID     ClusterID
	Count  int
	offset int64 // byte offset of the cluster's first record
	first  int   // file-order index of the cluster's first record
}

// Partition provides random access to one partition's clusters. It can be
// backed three ways: an open file read through an io.ReaderAt
// (OpenPartition), a heap copy of the file bytes in a pooled buffer
// (LoadPartition), or a read-only memory mapping of the file (MapPartition).
// The query engine holds every partition it opens as a mapping, and a heap
// copy only where mapping is unsupported or fails (internal/cluster); the
// ReaderAt form serves one-pass readers (reindex, inspection). All read
// methods are safe for concurrent use.
//
// A Partition is reference counted: it is born with one reference, sharers
// take more with Retain, and every reference is returned with Release (Close
// is an alias for the common single-owner case). The backing resources —
// file handle, memory mapping or pooled heap buffer — are torn down when the
// last reference drains, which is what makes unmapping, and recycling the
// buffer for another partition's load, safe while scans may still be in
// flight elsewhere: an invalidation only drops the holder's reference (the
// store's registry of mappings), and the bytes stay put until the last
// scanning reader finishes and releases its own.
type Partition struct {
	r         io.ReaderAt
	closer    io.Closer // non-nil only for file-backed partitions
	data      []byte    // resident file bytes (heap copy or mapping); nil when file-backed
	mapped    bool      // data is a memory mapping, unmapped on final Release
	size      int64     // full file size in bytes
	seriesLen int
	total     int
	dir       []ClusterInfo // sorted by ID
	// version is the file's format version and sumW its summary bytes per
	// record (summaryWidth: 0 in a version-2 file). sumOff is the byte
	// offset of the summary section, 0 when the file has none; sums is that
	// section inside data when the partition is resident.
	version uint32
	sumW    int
	sumOff  int64
	sums    []byte
	refs    atomic.Int64 // outstanding references; resources freed at zero
}

// OpenPartition opens a partition file and reads its directory; record data
// stays on disk and is read on demand. Close releases the file handle.
func OpenPartition(path string) (*Partition, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open partition: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat partition: %w", err)
	}
	p, err := newPartition(f, info.Size(), path)
	if err != nil {
		f.Close()
		return nil, err
	}
	p.closer = f
	return p, nil
}

// LoadPartition reads an entire partition file into memory and returns a
// Partition serving every scan from that heap copy. The result holds no file
// handle and is safe to share across goroutines — the partition layout is
// immutable after construction, which is what makes the shared query-path
// cache sound.
//
// The copy lives in a buffer from the partition-buffer pool (bufpool.go) and
// goes back to it on the final Release, from where the next load may take it:
// bytes seen through the partition after that Release belong to some other
// partition.
func LoadPartition(path string) (*Partition, error) {
	data, err := readPooled(path)
	if err != nil {
		return nil, fmt.Errorf("storage: load partition: %w", err)
	}
	p, err := newPartition(bytes.NewReader(data), int64(len(data)), path)
	if err != nil {
		putBuf(data)
		return nil, err
	}
	p.setResident(data, false)
	return p, nil
}

// readPooled reads the whole file at path into a pooled buffer: one fstat
// for the size, one read sized to it. Partition files are immutable once
// published, so the size cannot change under the read.
func readPooled(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() > math.MaxInt {
		return nil, fmt.Errorf("%s: size %d exceeds the address space", path, info.Size())
	}
	data := getBuf(int(info.Size()))
	if _, err := io.ReadFull(f, data); err != nil {
		putBuf(data)
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return data, nil
}

// MapPartition memory-maps a partition file read-only and returns a
// Partition scanning straight over the mapped bytes — the zero-copy resident
// form: pages are backed by the kernel page cache, shared across processes
// and reclaimable by the kernel. Partition files are immutable once
// published (writers replace whole files and invalidate), which is what
// makes a shared mapping sound. The mapping is released when the last reference drains; on
// platforms without mapping support (MapSupported reports false) an error is
// returned and callers fall back to LoadPartition.
func MapPartition(path string) (*Partition, error) {
	if mapFailures.Load() > 0 {
		return nil, fmt.Errorf("storage: map partition %s: mappings are failing (FailMappings)", path)
	}
	data, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	p, err := newPartition(bytes.NewReader(data), int64(len(data)), path)
	if err != nil {
		_ = unmapFile(data)
		return nil, err
	}
	p.setResident(data, true)
	return p, nil
}

// setResident makes data, the whole file, the partition's backing, and its
// summary section a zero-copy view into it.
func (p *Partition) setResident(data []byte, mapped bool) {
	p.data, p.mapped = data, mapped
	if p.sumOff > 0 {
		p.sums = data[p.sumOff : p.sumOff+int64(p.total*p.sumW)]
	}
}

// mapFailures, while positive, makes every MapPartition call fail the way a
// refused mapping would (see FailMappings).
var mapFailures atomic.Int32

// FailMappings makes MapPartition fail until the returned function is called
// (once) — the seam that drives the heap fallback of callers that map, as a
// filesystem without mmap support or an exhausted vm.max_map_count would.
// Calls nest. Meant for tests: it changes every caller in the process.
func FailMappings() (restore func()) {
	mapFailures.Add(1)
	return func() { mapFailures.Add(-1) }
}

// newPartition parses the header and cluster directory from r.
func newPartition(r io.ReaderAt, size int64, path string) (*Partition, error) {
	var hdr [16]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("storage: read partition header: %w", err)
	}
	if string(hdr[0:4]) != partitionMagic {
		return nil, fmt.Errorf("storage: bad partition magic %q in %s", hdr[0:4], path)
	}
	version := binary.LittleEndian.Uint32(hdr[4:8])
	if !knownVersion(version) {
		return nil, fmt.Errorf("storage: unsupported partition version %d", version)
	}
	p := &Partition{
		r:         r,
		size:      size,
		seriesLen: int(binary.LittleEndian.Uint32(hdr[8:12])),
		version:   version,
	}
	if p.seriesLen <= 0 {
		return nil, fmt.Errorf("storage: partition series length %d in %s", p.seriesLen, path)
	}
	p.refs.Store(1)
	// A corrupted header must not size an allocation: the directory has to
	// fit in the file, and (below) so do the records it lists.
	nClusters := int(binary.LittleEndian.Uint32(hdr[12:16]))
	if int64(nClusters) > (size-16)/12 {
		return nil, fmt.Errorf("storage: partition directory of %d clusters overruns %s (%d bytes)", nClusters, path, size)
	}
	dirBytes := make([]byte, 12*nClusters)
	if _, err := r.ReadAt(dirBytes, 16); err != nil {
		return nil, fmt.Errorf("storage: read partition directory: %w", err)
	}
	recBytes := int64(RecordBytes(p.seriesLen))
	offset := int64(16 + 12*nClusters)
	p.dir = make([]ClusterInfo, nClusters)
	for i := 0; i < nClusters; i++ {
		id := ClusterID(binary.LittleEndian.Uint64(dirBytes[i*12 : i*12+8]))
		cnt := int(binary.LittleEndian.Uint32(dirBytes[i*12+8 : i*12+12]))
		if int64(cnt) > (size-offset)/recBytes {
			return nil, fmt.Errorf("storage: cluster %d of %d records overruns %s (%d bytes)", id, cnt, path, size)
		}
		p.dir[i] = ClusterInfo{ID: id, Count: cnt, offset: offset, first: p.total}
		offset += int64(cnt) * recBytes
		p.total += cnt
	}
	if p.sumW = summaryWidth(version, p.seriesLen); p.sumW > 0 {
		// The summary section must fit before the checksum, as the
		// records must fit in the file.
		if n := int64(p.total) * int64(p.sumW); n > size-4-offset {
			return nil, fmt.Errorf("storage: summary section of %d bytes overruns %s (%d bytes)", n, path, size)
		}
		p.sumOff = offset
	}
	return p, nil
}

// Retain takes one additional reference to the partition. Every Retain must
// be paired with a Release; it panics if the partition was already torn
// down, because resurrecting a released partition would hand out a dead
// mapping.
func (p *Partition) Retain() {
	if p.refs.Add(1) <= 1 {
		p.refs.Add(-1)
		panic("storage: Retain on a released partition")
	}
}

// Release returns one reference. The last Release tears the partition down:
// a memory mapping is unmapped, a file handle is closed, a heap copy's buffer
// returns to the pool for the next load. Releasing more references than were
// taken panics — that is a lifecycle bug that would otherwise surface as a
// scan over unmapped memory.
func (p *Partition) Release() error {
	n := p.refs.Add(-1)
	if n > 0 {
		return nil
	}
	if n < 0 {
		panic("storage: partition released more often than retained")
	}
	var err error
	switch {
	case p.mapped:
		err = unmapFile(p.data)
	case p.data != nil:
		putBuf(p.data)
	}
	// Poison the read state so a use-after-release fails loudly (nil deref /
	// nil-slice bounds panic) instead of silently reading freed memory.
	p.data, p.sums = nil, nil
	p.r = nil
	if p.closer != nil {
		if cerr := p.closer.Close(); err == nil {
			err = cerr
		}
		p.closer = nil
	}
	return err
}

// Close releases the caller's (sole) reference — the familiar spelling for
// single-owner partitions from OpenPartition. Shared partitions pair Retain
// with Release instead.
func (p *Partition) Close() error { return p.Release() }

// InMemory reports whether the partition serves reads from resident bytes
// (a heap copy or a memory mapping) rather than a file handle.
func (p *Partition) InMemory() bool { return p.data != nil }

// Mapped reports whether the resident bytes are a memory mapping.
func (p *Partition) Mapped() bool { return p.mapped }

// SizeBytes returns the partition file's full size in bytes.
func (p *Partition) SizeBytes() int64 { return p.size }

// clusterInfoBytes is the in-memory size of one decoded directory entry,
// charged by MemBytes on top of the file bytes.
const clusterInfoBytes = 24

// MemBytes returns the partition's resident memory footprint, the unit
// internal/pcache budgets: the retained file bytes plus the decoded cluster
// directory. Mapped pages count at file size; a heap copy counts at the
// capacity of its pooled buffer, which may exceed the file it holds, so the
// budget stays an upper bound on resident heap. A file-backed partition
// charges only its directory.
func (p *Partition) MemBytes() int64 {
	mem := int64(clusterInfoBytes * len(p.dir))
	switch {
	case p.mapped:
		mem += p.size
	case p.data != nil:
		mem += int64(cap(p.data))
	}
	return mem
}

// Version returns the file's format version: 4, or 3 or 2 for a file an
// older writer wrote.
func (p *Partition) Version() int { return int(p.version) }

// SummaryWidth returns the summary bytes the file stores per record: one per
// 8 readings in version 4, one per 16 in version 3, none in version 2.
func (p *Partition) SummaryWidth() int { return p.sumW }

// SeriesLen returns the length of the stored series.
func (p *Partition) SeriesLen() int { return p.seriesLen }

// Count returns the total number of records in the partition.
func (p *Partition) Count() int { return p.total }

// Clusters returns the directory entries (sorted by cluster ID). The slice
// is owned by the Partition; callers must not modify it.
func (p *Partition) Clusters() []ClusterInfo { return p.dir }

// findCluster locates a directory entry by ID via binary search.
func (p *Partition) findCluster(id ClusterID) (ClusterInfo, bool) {
	lo, hi := 0, len(p.dir)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case p.dir[mid].ID == id:
			return p.dir[mid], true
		case p.dir[mid].ID < id:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return ClusterInfo{}, false
}

// scanBuf is the reusable scratch one scan threads across clusters, so a
// multi-cluster scan allocates its buffers once instead of once per cluster:
// the decoded values and, on a file-backed partition, one run's record and
// summary bytes.
type scanBuf struct {
	recs, sums []byte
	vals       []float64
}

// runRecords bounds the records one run of a file-backed partition reads at
// once.
const runRecords = 256

// ScanCluster streams the records of one cluster through fn. A missing
// cluster ID is not an error — the partition simply holds no records for
// that trie node. The values slice passed to fn is reused; fn must copy to
// retain.
func (p *Partition) ScanCluster(id ClusterID, fn func(id int, values []float64) error) error {
	return p.scanCluster(id, &scanBuf{}, fn)
}

func (p *Partition) scanCluster(id ClusterID, sb *scanBuf, fn func(id int, values []float64) error) error {
	if sb.vals == nil {
		sb.vals = make([]float64, p.seriesLen)
	}
	recBytes := RecordBytes(p.seriesLen)
	return p.scanClusterRuns(id, sb, func(recs, _ []byte) error {
		for off := 0; off < len(recs); off += recBytes {
			rid := DecodeRecord(recs[off:off+recBytes], sb.vals)
			if err := fn(rid, sb.vals); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanClusters streams the records of each listed cluster, skipping IDs not
// present in this partition.
func (p *Partition) ScanClusters(ids []ClusterID, fn func(id int, values []float64) error) error {
	sb := &scanBuf{}
	for _, id := range ids {
		if err := p.scanCluster(id, sb, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanAll streams every record in the partition in directory order.
func (p *Partition) ScanAll(fn func(id int, values []float64) error) error {
	sb := &scanBuf{}
	for _, ci := range p.dir {
		if err := p.scanCluster(ci.ID, sb, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanClustersRaw streams each listed cluster's records through fn in their
// encoded form, skipping IDs not present in this partition: rec is the
// record's raw value bytes — 4*SeriesLen() little-endian float32 readings —
// with the record ID already decoded. It obeys the lifetime rules of
// ScanClusterRuns.
func (p *Partition) ScanClustersRaw(ids []ClusterID, fn func(id int, rec []byte) error) error {
	sb, recBytes := &scanBuf{}, RecordBytes(p.seriesLen)
	run := func(recs, _ []byte) error {
		for off := 0; off < len(recs); off += recBytes {
			rec := recs[off : off+recBytes]
			if err := fn(int(binary.LittleEndian.Uint64(rec)), rec[8:]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if err := p.scanClusterRuns(id, sb, run); err != nil {
			return err
		}
	}
	return nil
}

// ScanClusterRuns streams one cluster's records through fn in runs of
// consecutive records, with their summaries: recs holds whole records as the
// file stores them (RecordBytes each — the uint64 ID, then the float32
// readings the series.SqDist32* kernels take) and sums their summary bytes
// (SummaryWidth each, same order), or is nil in a version-2 file. A resident
// partition passes the whole cluster as one run of its own bytes; a
// file-backed one reads runs of up to 256 records into scratch reused between
// runs, with no allocation per record either way. Both slices are valid only
// during the callback and only while the caller holds its partition
// reference — afterwards the bytes may be unmapped, or hold another
// partition's records: they must not be stored, appended, or otherwise
// retained. Race builds poison released memory (poisonReleased), so a kept
// slice faults or reads NaN there.
func (p *Partition) ScanClusterRuns(id ClusterID, fn func(recs, sums []byte) error) error {
	return p.scanClusterRuns(id, &scanBuf{}, fn)
}

func (p *Partition) scanClusterRuns(id ClusterID, sb *scanBuf, fn func(recs, sums []byte) error) error {
	ci, ok := p.findCluster(id)
	if !ok || ci.Count == 0 {
		return nil
	}
	recBytes, w := RecordBytes(p.seriesLen), p.sumW
	if p.data != nil {
		var sums []byte
		if p.sums != nil {
			sums = p.sums[ci.first*w : (ci.first+ci.Count)*w]
		}
		return fn(p.data[ci.offset:ci.offset+int64(ci.Count*recBytes)], sums)
	}
	for i := 0; i < ci.Count; i += runRecords {
		n := min(runRecords, ci.Count-i)
		if len(sb.recs) < n*recBytes {
			sb.recs = make([]byte, n*recBytes)
		}
		recs := sb.recs[:n*recBytes]
		if _, err := p.r.ReadAt(recs, ci.offset+int64(i*recBytes)); err != nil {
			return fmt.Errorf("storage: read records %d-%d/%d: %w", i, i+n, ci.Count, err)
		}
		var sums []byte
		if p.sumOff > 0 {
			if len(sb.sums) < n*w {
				sb.sums = make([]byte, n*w)
			}
			sums = sb.sums[:n*w]
			if _, err := p.r.ReadAt(sums, p.sumOff+int64((ci.first+i)*w)); err != nil {
				return fmt.Errorf("storage: read summaries %d-%d/%d: %w", i, i+n, ci.Count, err)
			}
		}
		if err := fn(recs, sums); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks the partition for corruption. It recomputes the file's CRC32
// and compares it with the stored trailing checksum; then, in a file with
// summaries, it recomputes every record's summary from its readings and
// reports the first record, by ID, whose stored summary differs or whose
// readings are not finite. A wrong summary would make queries skip the
// record silently, and a checksum recomputed over it would not tell. It
// reads the whole file; partitions are capacity bounded, so the cost is one
// partition load.
func (p *Partition) Verify() error {
	if p.size < 4 {
		return fmt.Errorf("storage: partition too small to carry a checksum")
	}
	body := io.NewSectionReader(p.r, 0, p.size-4)
	crc := crc32.NewIEEE()
	if _, err := io.Copy(crc, bufio.NewReaderSize(body, 1<<16)); err != nil {
		return fmt.Errorf("storage: checksum partition: %w", err)
	}
	var stored [4]byte
	if _, err := p.r.ReadAt(stored[:], p.size-4); err != nil {
		return fmt.Errorf("storage: read partition checksum: %w", err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(stored[:]); got != want {
		return fmt.Errorf("storage: partition checksum mismatch: computed %08x, stored %08x", got, want)
	}
	if p.sumOff == 0 {
		return nil
	}
	recBytes, w := RecordBytes(p.seriesLen), p.sumW
	want := make([]byte, w)
	sb := &scanBuf{}
	for _, ci := range p.dir {
		err := p.scanClusterRuns(ci.ID, sb, func(recs, sums []byte) error {
			for i := 0; i < len(recs)/recBytes; i++ {
				rec, got := recs[i*recBytes:(i+1)*recBytes], sums[i*w:(i+1)*w]
				id := binary.LittleEndian.Uint64(rec)
				if err := checkFinite(rec[8:]); err != nil {
					return fmt.Errorf("storage: record %d: %w", id, err)
				}
				if summarize(want, rec[8:], p.seriesLen); !bytes.Equal(got, want) {
					return fmt.Errorf("storage: record %d: stored summary %x, its readings give %x", id, got, want)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
