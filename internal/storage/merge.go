package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
)

// Incoming is one record bound for a cluster of the partition MergePartition
// rewrites.
type Incoming struct {
	Cluster ClusterID
	ID      int
	Values  []float64
}

// mergeRef names one record of a merged partition by where its bytes come
// from: src >= 0 is the record's offset in the old file, src < 0 is ^index
// into the incoming records.
type mergeRef struct {
	cluster ClusterID
	id      int
	src     int
}

// MergePartition rewrites the partition file at path to hold its current
// records plus incoming, and returns the merged record count and the bytes
// written. It is the byte-level form of decoding every record into a
// PartitionWriter and flushing it: surviving records are copied verbatim
// from the old file, each incoming record is encoded once into place, and the
// result is byte-identical to what PartitionWriter produces for the same
// record set — clusters ascending, records ascending by ID within a cluster,
// trailing CRC32. Both the old file and the output live in pooled buffers.
//
// The merge is idempotent: an existing record whose ID reappears in incoming
// is replaced, whichever cluster held it, rather than duplicated.
//
// The new file is written beside the old one and renamed over it, so readers
// see either file whole; on any failure the temporary file is removed and
// the old file is untouched. The caller invalidates cached copies of path.
func MergePartition(path string, incoming []Incoming) (count int, written int64, err error) {
	old, err := LoadPartition(path)
	if err != nil {
		return 0, 0, err
	}
	defer old.Release()
	replaced := make(map[int]struct{}, len(incoming))
	for _, r := range incoming {
		if len(r.Values) != old.seriesLen {
			return 0, 0, fmt.Errorf("storage: record length %d, partition expects %d", len(r.Values), old.seriesLen)
		}
		replaced[r.ID] = struct{}{}
	}

	recBytes := RecordBytes(old.seriesLen)
	refs := make([]mergeRef, 0, old.total+len(incoming))
	for _, ci := range old.dir {
		off := int(ci.offset)
		for end := off + ci.Count*recBytes; off < end; off += recBytes {
			id := int(binary.LittleEndian.Uint64(old.data[off:]))
			if _, ok := replaced[id]; !ok {
				refs = append(refs, mergeRef{ci.ID, id, off})
			}
		}
	}
	for i, r := range incoming {
		refs = append(refs, mergeRef{r.Cluster, r.ID, ^i})
	}
	// PartitionWriter's canonical order. The old file is already in it, so
	// only the incoming tail is out of place.
	order := func(a, b mergeRef) int {
		if c := cmp.Compare(a.cluster, b.cluster); c != 0 {
			return c
		}
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.src, b.src)
	}
	if !slices.IsSortedFunc(refs, order) {
		slices.SortFunc(refs, order)
	}
	nClusters := 0
	for i, ref := range refs {
		if i == 0 || ref.cluster != refs[i-1].cluster {
			nClusters++
		}
	}

	out := getBuf(16 + 12*nClusters + recBytes*len(refs) + 4)
	defer putBuf(out)
	copy(out[0:4], partitionMagic)
	binary.LittleEndian.PutUint32(out[4:8], partitionVersion)
	binary.LittleEndian.PutUint32(out[8:12], uint32(old.seriesLen))
	binary.LittleEndian.PutUint32(out[12:16], uint32(nClusters))
	dir, rec := 16, 16+12*nClusters
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && refs[j].cluster == refs[i].cluster {
			j++
		}
		binary.LittleEndian.PutUint64(out[dir:], uint64(refs[i].cluster))
		binary.LittleEndian.PutUint32(out[dir+8:], uint32(j-i))
		dir += 12
		i = j
	}
	for _, ref := range refs {
		dst := out[rec : rec+recBytes]
		if ref.src >= 0 {
			copy(dst, old.data[ref.src:])
		} else {
			r := incoming[^ref.src]
			encodeRecord(dst, r.ID, r.Values)
		}
		rec += recBytes
	}
	binary.LittleEndian.PutUint32(out[rec:], crc32.ChecksumIEEE(out[:rec]))

	if err := replaceFile(path, out); err != nil {
		return 0, 0, err
	}
	return len(refs), int64(len(out)), nil
}

// replaceFile atomically replaces the file at path with data: one write into
// path.tmp, then a rename over path. A temporary file this call created
// never outlives a failure.
func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("storage: create partition: %w", err)
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort; err already says what went wrong
		return fmt.Errorf("storage: replace partition: %w", err)
	}
	return nil
}
