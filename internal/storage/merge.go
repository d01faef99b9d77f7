package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
)

// Incoming is one record bound for a cluster of the partition MergePartitions
// writes.
type Incoming struct {
	Cluster ClusterID
	ID      int
	Values  []float64
}

// mergeRef names one record of a merged partition by where its bytes come
// from: from >= 0 is the source file holding the record and src its offset
// there; from < 0 is an incoming record and src its index.
type mergeRef struct {
	cluster ClusterID
	id      int
	from    int
	src     int
}

// MergePartitions writes to dst the partition file of the records of the
// partition files srcs plus incoming, and returns its record count and the
// bytes written. A drain merges into a partition's tail with it, a fold
// merges base and tail into the base, and the dataset interchange file is
// one cluster of incoming records. dst may be one of srcs. The file is laid
// out by Layout, the format's one writer: surviving records are copied
// verbatim from their file and each incoming record is encoded once into
// place, in canonical order — clusters ascending, records ascending by ID
// within a cluster — followed by every record's summary and a trailing
// CRC32, so the bytes depend on the record set alone, not on arrival order
// nor on how the records were split between files; a build's shuffle
// (cluster.Shuffle) writes the bytes MergePartitions would write of its
// records with no srcs. No records at all make an empty partition file,
// which opens like any other. The source files and the output live in
// pooled buffers.
//
// Every record, old or incoming, has seriesLen readings, and every incoming
// reading must be finite in float32: a record with one that is not is
// refused, naming its ID, and nothing is written. The merge is
// idempotent: an existing record whose ID reappears in incoming is replaced,
// whichever file and cluster held it, rather than duplicated. The source
// files must not share an ID among themselves.
//
// The new file is written beside dst and renamed over it, so readers see
// either file whole; beforeRename, when set, is called between the two (the
// drain crash matrix kills there). On any failure the temporary file is
// removed and dst is untouched.
func MergePartitions(dst string, seriesLen int, srcs []string, incoming []Incoming, beforeRename func()) (count int, written int64, err error) {
	_, count, written, err = MergeStaged(dst+".tmp", func(int) string { return dst }, seriesLen, srcs, incoming, beforeRename)
	return count, written, err
}

// MergeStaged is MergePartitions for a file whose name depends on what it
// holds: the merged file is written at tmp and renamed to name(count), the
// name its record count gives it, which is returned with the count. A drain
// stages every file it writes of a partition at one temporary name and
// never renames over a file a reader may be mapping.
func MergeStaged(tmp string, name func(count int) string, seriesLen int, srcs []string, incoming []Incoming, beforeRename func()) (dst string, count int, written int64, err error) {
	if seriesLen <= 0 {
		return "", 0, 0, fmt.Errorf("storage: series length must be positive, got %d", seriesLen)
	}
	olds := make([]*Partition, 0, len(srcs))
	defer func() {
		for _, old := range olds {
			old.Release()
		}
	}()
	total := len(incoming)
	for _, src := range srcs {
		old, err := LoadPartition(src)
		if err != nil {
			return "", 0, 0, err
		}
		olds = append(olds, old)
		if old.seriesLen != seriesLen {
			return "", 0, 0, fmt.Errorf("storage: merge of series length %d into a partition of %d", old.seriesLen, seriesLen)
		}
		total += old.total
	}
	for _, r := range incoming {
		if len(r.Values) != seriesLen {
			return "", 0, 0, fmt.Errorf("storage: record length %d, partition expects %d", len(r.Values), seriesLen)
		}
	}
	// Only records already in a file can be replaced; a write of incoming
	// records alone (a shuffle's) skips the set.
	var replaced map[int]struct{}
	if len(olds) > 0 {
		replaced = make(map[int]struct{}, len(incoming))
		for _, r := range incoming {
			replaced[r.ID] = struct{}{}
		}
	}

	recBytes := RecordBytes(seriesLen)
	refs := make([]mergeRef, 0, total)
	for from, old := range olds {
		for _, ci := range old.dir {
			off := int(ci.offset)
			for end := off + ci.Count*recBytes; off < end; off += recBytes {
				id := int(binary.LittleEndian.Uint64(old.data[off:]))
				if _, ok := replaced[id]; !ok {
					refs = append(refs, mergeRef{ci.ID, id, from, off})
				}
			}
		}
	}
	for i, r := range incoming {
		refs = append(refs, mergeRef{r.Cluster, r.ID, -1, i})
	}
	// The canonical order. A lone source file is already in it, so then only
	// the incoming records are out of place.
	order := func(a, b mergeRef) int {
		if c := cmp.Compare(a.cluster, b.cluster); c != 0 {
			return c
		}
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	}
	if !slices.IsSortedFunc(refs, order) {
		slices.SortFunc(refs, order)
	}
	var dir []ClusterInfo
	for i, ref := range refs {
		if i == 0 || ref.cluster != refs[i-1].cluster {
			dir = append(dir, ClusterInfo{ID: ref.cluster})
		}
		dir[len(dir)-1].Count++
	}
	// Surviving records are copied verbatim and their summaries computed
	// from the bytes just placed, whatever file they came from; an incoming
	// record is encoded in place.
	l := NewLayout(seriesLen, dir)
	defer l.Release()
	for i, ref := range refs {
		if ref.from >= 0 {
			l.copyRecord(i, olds[ref.from].data[ref.src:ref.src+recBytes])
			continue
		}
		r := incoming[ref.src]
		if err := l.Put(i, r.ID, r.Values); err != nil {
			return "", 0, 0, err
		}
	}
	dst = name(len(refs))
	if written, err = l.commit(tmp, dst, beforeRename); err != nil {
		return "", 0, 0, err
	}
	return dst, len(refs), written, nil
}

// replaceFile atomically replaces the file at path with data: one write into
// tmp, then — after beforeRename, when set — a rename over path. A
// temporary file this call created never outlives a failure.
func replaceFile(tmp, path string, data []byte, beforeRename func()) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("storage: create partition: %w", err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if beforeRename != nil {
			beforeRename()
		}
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort; err already says what went wrong
		return fmt.Errorf("storage: replace partition: %w", err)
	}
	return nil
}

// WithoutSummaries returns the version-2 form of the bytes of a version-3
// partition file: the same header, directory and records, version 2, no
// summary section, the CRC32 recomputed. It makes the version-2 files that
// tests open, and shows that a change of the summaries moved no record byte.
func WithoutSummaries(file []byte) ([]byte, error) {
	p, err := newPartition(bytes.NewReader(file), int64(len(file)), "partition bytes")
	if err != nil {
		return nil, err
	}
	if p.sumOff == 0 {
		return nil, fmt.Errorf("storage: partition has no summaries")
	}
	out := make([]byte, p.sumOff+4)
	copy(out, file[:p.sumOff])
	binary.LittleEndian.PutUint32(out[4:8], partitionVersionNoSummaries)
	binary.LittleEndian.PutUint32(out[p.sumOff:], crc32.ChecksumIEEE(out[:p.sumOff]))
	return out, nil
}
