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
// from: from >= 0 is the source file holding the record and src its index
// there, in file order; from < 0 is an incoming record and src its index.
type mergeRef struct {
	cluster ClusterID
	id      int
	from    int
	src     int
}

// mergeOrder is the canonical order of a partition's records — clusters
// ascending, IDs ascending within a cluster — made total by where a record
// comes from.
func mergeOrder(a, b mergeRef) int {
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

// MergePartitions writes to dst the partition file of the records of the
// partition files srcs plus incoming, and returns its record count and the
// bytes written. A drain merges into a partition's tail with it, a fold
// merges base and tail into the base, and the dataset interchange file is
// one cluster of incoming records. dst may be one of srcs. The file is laid
// out by Layout, the format's one writer: surviving records are copied
// verbatim from their file, a row of records stored consecutively at a
// time, and each incoming record is encoded once into place, in canonical
// order — clusters ascending, records ascending by ID within a cluster —
// followed by every record's summary and a trailing CRC32, so the bytes
// depend on the record set alone, not on arrival order nor on how the
// records were split between files; a build's shuffle (cluster.Shuffle)
// writes the bytes MergePartitions would write of its records with no srcs.
// A surviving record's summary is copied with it from a file of the version
// written (version 4) and computed from its readings otherwise. No records
// at all make an empty partition file, which opens like any other. The
// source files are read mapped (a heap copy where mapping fails) and the
// output is assembled in a pooled buffer.
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
	for _, src := range srcs {
		old, err := openSource(src)
		if err != nil {
			return "", 0, 0, err
		}
		olds = append(olds, old)
		if old.seriesLen != seriesLen {
			return "", 0, 0, fmt.Errorf("storage: merge of series length %d into a partition of %d", old.seriesLen, seriesLen)
		}
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

	// One list per source in the canonical order, merged: a file is in it
	// already unless something other than a writer put it together, and
	// only the incoming records need sorting.
	lists := make([][]mergeRef, 0, len(olds)+1)
	in := make([]mergeRef, len(incoming))
	for i, r := range incoming {
		in[i] = mergeRef{r.Cluster, r.ID, -1, i}
	}
	lists = append(lists, in)
	recBytes := RecordBytes(seriesLen)
	for from, old := range olds {
		refs := make([]mergeRef, 0, old.total)
		for _, ci := range old.dir {
			for j := range ci.Count {
				id := int(binary.LittleEndian.Uint64(old.data[ci.offset+int64(j*recBytes):]))
				if _, ok := replaced[id]; !ok {
					refs = append(refs, mergeRef{ci.ID, id, from, ci.first + j})
				}
			}
		}
		lists = append(lists, refs)
	}
	for _, list := range lists {
		if !slices.IsSortedFunc(list, mergeOrder) {
			slices.SortFunc(list, mergeOrder)
		}
	}
	refs := mergeSorted(lists)
	var dir []ClusterInfo
	for i, ref := range refs {
		if i == 0 || ref.cluster != refs[i-1].cluster {
			dir = append(dir, ClusterInfo{ID: ref.cluster})
		}
		dir[len(dir)-1].Count++
	}
	// Surviving records are copied verbatim, each row a source stores
	// consecutively at once, with their summaries; an incoming record is
	// encoded in place.
	l := NewLayout(seriesLen, dir)
	defer l.Release()
	for i := 0; i < len(refs); {
		ref := refs[i]
		if ref.from < 0 {
			r := incoming[ref.src]
			if err := l.Put(i, r.ID, r.Values); err != nil {
				return "", 0, 0, err
			}
			i++
			continue
		}
		j := i + 1
		for j < len(refs) && refs[j].from == ref.from && refs[j].src == refs[j-1].src+1 {
			j++
		}
		recs, sums := olds[ref.from].row(ref.src, j-i, l.sumBytes)
		l.copyRecords(i, recs, sums)
		i = j
	}
	dst = name(len(refs))
	if written, err = l.commit(tmp, dst, beforeRename); err != nil {
		return "", 0, 0, err
	}
	return dst, len(refs), written, nil
}

// openSource opens a merge's source file: mapped, or copied onto the heap
// where it cannot be mapped.
func openSource(path string) (*Partition, error) {
	if p, err := MapPartition(path); err == nil {
		return p, nil
	}
	return LoadPartition(path)
}

// mergeSorted merges lists, each in the canonical order (mergeOrder), into
// one list in that order.
func mergeSorted(lists [][]mergeRef) []mergeRef {
	n := 0
	for _, list := range lists {
		n += len(list)
	}
	out := make([]mergeRef, 0, n)
	for {
		best := -1
		for i, list := range lists {
			if len(list) > 0 && (best < 0 || mergeOrder(list[0], lists[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
}

// row returns the bytes of n records that the resident partition p stores
// in a row from record i in file order, and their summary bytes when p
// stores summaries w bytes wide (nil when it stores another width or none).
func (p *Partition) row(i, n, w int) (recs, sums []byte) {
	recBytes := RecordBytes(p.seriesLen)
	start := 16 + 12*len(p.dir) + i*recBytes
	recs = p.data[start : start+n*recBytes]
	if p.sumW == w {
		sums = p.sums[i*w : (i+n)*w]
	}
	return recs, sums
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

// Reformat returns the bytes of the partition file file in format version
// version, 2, 3 or 4: the same header, directory and records, the summary
// section of that version (none in version 2) computed from the records, the
// CRC32 recomputed. It makes the files of older versions that tests open,
// and the version-2 form shows that a change of the summaries moved no
// record byte.
func Reformat(file []byte, version int) ([]byte, error) {
	p, err := newPartition(bytes.NewReader(file), int64(len(file)), "partition bytes")
	if err != nil {
		return nil, err
	}
	v := uint32(version)
	if !knownVersion(v) {
		return nil, fmt.Errorf("storage: no partition version %d to write", version)
	}
	recBytes, w := RecordBytes(p.seriesLen), summaryWidth(v, p.seriesLen)
	recs := 16 + 12*len(p.dir)
	sums := recs + p.total*recBytes
	out := make([]byte, sums+p.total*w+4)
	copy(out, file[:sums])
	binary.LittleEndian.PutUint32(out[4:8], v)
	for i := range p.total {
		rec := out[recs+i*recBytes : recs+(i+1)*recBytes]
		summarize(out[sums+i*w:sums+(i+1)*w], rec[8:], p.seriesLen)
	}
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out, nil
}
