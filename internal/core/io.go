package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"climber/internal/cluster"
	"climber/internal/grouping"
	"climber/internal/metric"
	"climber/internal/paa"
	"climber/internal/pivot"
	"climber/internal/trie"
)

// The skeleton file is the serialised global index — the structure the
// paper broadcasts to every worker and whose size Figure 8 reports. The
// format is a flat little-endian layout: config, pivot coordinates, then
// each group's centroid and trie in DFS preorder.
const (
	skeletonMagic   = "CLMS"
	skeletonVersion = 1
)

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// EncodedSize returns the byte size of the serialised skeleton — the
// "global index size" metric of Figures 8(b)/(d) and 12.
func (s *Skeleton) EncodedSize() int {
	var cw countingWriter
	if err := s.Encode(&cw); err != nil {
		return 0 // cannot happen with a non-failing writer
	}
	return int(cw.n)
}

type binWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (b *binWriter) u64(v uint64) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(b.buf[:], v)
	_, b.err = b.w.Write(b.buf[:])
}
func (b *binWriter) i64(v int64)   { b.u64(uint64(v)) }
func (b *binWriter) i(v int)       { b.i64(int64(v)) }
func (b *binWriter) f64(v float64) { b.u64(math.Float64bits(v)) }
func (b *binWriter) raw(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

// binReader decodes from bytes held in memory, so every count it reads can
// be held to the bytes that remain (count) before anything is sized by it.
type binReader struct {
	r   *bytes.Reader
	err error
	buf [8]byte
}

func (b *binReader) u64() uint64 {
	if b.err != nil {
		return 0
	}
	if _, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		b.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(b.buf[:])
}
func (b *binReader) i64() int64   { return int64(b.u64()) }
func (b *binReader) i() int       { return int(b.i64()) }
func (b *binReader) f64() float64 { return math.Float64frombits(b.u64()) }
func (b *binReader) raw(p []byte) {
	if b.err != nil {
		return
	}
	if _, err := io.ReadFull(b.r, p); err != nil {
		b.err = err
	}
}

// count reads the number of items that follow, each at least unit bytes
// long, and fails the read (returning 0) when it is negative or more than the
// remaining bytes can hold: a corrupted count must not size an allocation.
func (b *binReader) count(what string, unit int) int {
	n := b.i()
	if b.err == nil && (n < 0 || n > b.r.Len()/unit) {
		b.err = fmt.Errorf("core: corrupt %s count %d with %d bytes left", what, n, b.r.Len())
	}
	if b.err != nil {
		return 0
	}
	return n
}

// minTrieNodeBytes is the encoded size of a trie node without partitions or
// children (encodeTrie: six integers), minGroupBytes that of a group with an
// empty centroid and such a trie.
const (
	minTrieNodeBytes = 6 * 8
	minGroupBytes    = 3*8 + minTrieNodeBytes
)

// Encode serialises the skeleton.
func (s *Skeleton) Encode(w io.Writer) error {
	bw := &binWriter{w: w}
	bw.raw([]byte(skeletonMagic))
	bw.i(skeletonVersion)

	// Config.
	c := s.Cfg
	bw.i(c.Segments)
	bw.i(c.NumPivots)
	bw.i(c.PrefixLen)
	bw.i(c.Capacity)
	bw.f64(c.SampleRate)
	bw.i(c.Epsilon)
	bw.i(c.MaxCentroids)
	bw.i(int(c.Decay))
	bw.f64(c.Lambda)
	bw.u64(c.Seed)
	bw.i(c.BlockSize)
	if c.DisableWDTieBreak {
		bw.i(1)
	} else {
		bw.i(0)
	}
	bw.i(s.SeriesLen)

	// Pivots (dimension is Segments).
	flat := s.Pivots.Flat()
	bw.i(len(flat))
	for _, v := range flat {
		bw.f64(v)
	}

	// Groups.
	bw.i(len(s.Groups))
	for _, g := range s.Groups {
		bw.i(len(g.Centroid))
		for _, id := range g.Centroid {
			bw.i(id)
		}
		bw.i(g.DefaultPartition)
		bw.i64(g.ClusterBase)
		encodeTrie(bw, g.Trie)
	}

	bw.i(s.NumPartitions)
	bw.i(len(s.PartitionEst))
	for _, v := range s.PartitionEst {
		bw.i(v)
	}
	return bw.err
}

func encodeTrie(bw *binWriter, n *trie.Node) {
	bw.i(n.ID)
	bw.i(n.Pivot)
	bw.i(n.Depth)
	bw.i(n.Count)
	bw.i(len(n.Partitions))
	for _, p := range n.Partitions {
		bw.i(p)
	}
	bw.i(len(n.Children))
	for _, c := range n.Children {
		encodeTrie(bw, c)
	}
}

func decodeTrie(br *binReader) *trie.Node {
	n := &trie.Node{}
	n.ID = br.i()
	n.Pivot = br.i()
	n.Depth = br.i()
	n.Count = br.i()
	n.Partitions = make([]int, br.count("trie partition", 8))
	for i := range n.Partitions {
		n.Partitions[i] = br.i()
	}
	nChildren := br.count("trie child", minTrieNodeBytes)
	for i := 0; i < nChildren; i++ {
		n.Children = append(n.Children, decodeTrie(br))
	}
	return n
}

// DecodeSkeleton reads a skeleton serialised by Encode and reconstructs the
// derived components (transformer, weigher, assigner). Every count is held to
// the bytes that follow it, so the input is read into memory first unless it
// is a *bytes.Reader, which is left just past the skeleton.
func DecodeSkeleton(r io.Reader) (*Skeleton, error) {
	rd, ok := r.(*bytes.Reader)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("core: read skeleton: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	return decodeSkeleton(&binReader{r: rd})
}

func decodeSkeleton(br *binReader) (*Skeleton, error) {
	magic := make([]byte, 4)
	br.raw(magic)
	if br.err == nil && string(magic) != skeletonMagic {
		return nil, fmt.Errorf("core: bad skeleton magic %q", magic)
	}
	if v := br.i(); br.err == nil && v != skeletonVersion {
		return nil, fmt.Errorf("core: unsupported skeleton version %d", v)
	}

	var c Config
	c.Segments = br.i()
	c.NumPivots = br.i()
	c.PrefixLen = br.i()
	c.Capacity = br.i()
	c.SampleRate = br.f64()
	c.Epsilon = br.i()
	c.MaxCentroids = br.i()
	c.Decay = metric.DecayKind(br.i())
	c.Lambda = br.f64()
	c.Seed = br.u64()
	c.BlockSize = br.i()
	c.DisableWDTieBreak = br.i() != 0
	seriesLen := br.i()
	if br.err != nil {
		return nil, fmt.Errorf("core: read skeleton config: %w", br.err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: skeleton config: %w", err)
	}

	// Validate made both factors positive; dividing keeps the check from
	// overflowing.
	nFlat := br.count("pivot value", 8)
	if br.err != nil || nFlat%c.Segments != 0 || nFlat/c.Segments != c.NumPivots {
		return nil, fmt.Errorf("core: corrupt pivot payload (%d values for %d x %d)", nFlat, c.NumPivots, c.Segments)
	}
	pivots := make([][]float64, c.NumPivots)
	for i := range pivots {
		p := make([]float64, c.Segments)
		for j := range p {
			p[j] = br.f64()
		}
		pivots[i] = p
	}
	pset, err := pivot.NewSet(pivots, c.PrefixLen)
	if err != nil {
		return nil, err
	}

	nGroups := br.count("group", minGroupBytes)
	if br.err != nil {
		return nil, br.err
	}
	if nGroups == 0 {
		return nil, fmt.Errorf("core: skeleton has no groups")
	}
	groups := make([]*Group, nGroups)
	var centroids []pivot.Signature
	for gid := 0; gid < nGroups; gid++ {
		g := &Group{ID: gid}
		cLen := br.count("centroid", 8)
		if br.err != nil {
			return nil, br.err
		}
		if cLen > 0 {
			g.Centroid = make(pivot.Signature, cLen)
			for i := range g.Centroid {
				g.Centroid[i] = br.i()
			}
		}
		g.DefaultPartition = br.i()
		g.ClusterBase = br.i64()
		g.Trie = decodeTrie(br)
		if br.err != nil {
			return nil, fmt.Errorf("core: read group %d: %w", gid, br.err)
		}
		// Node IDs must be the DFS preorder 0..n-1 before indexNodes may
		// build its dense lookup table; anything else is corruption.
		nodes := g.Trie.Nodes()
		seen := make([]bool, len(nodes))
		for _, nd := range nodes {
			if nd.ID < 0 || nd.ID >= len(nodes) || seen[nd.ID] {
				return nil, fmt.Errorf("core: group %d has corrupt trie node IDs", gid)
			}
			seen[nd.ID] = true
		}
		g.indexNodes()
		groups[gid] = g
		if gid > 0 {
			centroids = append(centroids, g.Centroid)
		}
	}

	numPartitions := br.i()
	est := make([]int, br.count("partition estimate", 8))
	for i := range est {
		est[i] = br.i()
	}
	if br.err != nil {
		return nil, fmt.Errorf("core: read skeleton: %w", br.err)
	}

	tr, err := paa.NewTransformer(seriesLen, c.Segments)
	if err != nil {
		return nil, err
	}
	weigher, err := metric.NewWeigher(c.PrefixLen, c.Decay, c.Lambda)
	if err != nil {
		return nil, err
	}
	assigner, err := grouping.NewAssigner(centroids, weigher, c.NumPivots)
	if err != nil {
		return nil, fmt.Errorf("core: skeleton centroids: %w", err)
	}
	assigner.UseWeightTieBreak = !c.DisableWDTieBreak
	return &Skeleton{
		Cfg:           c,
		SeriesLen:     seriesLen,
		Transformer:   tr,
		Pivots:        pset,
		Weigher:       weigher,
		Assigner:      assigner,
		Groups:        groups,
		NumPartitions: numPartitions,
		PartitionEst:  est,
	}, nil
}

// SaveIndex persists an index's metadata — the current generation's skeleton
// plus its partition manifest — to one file. Partition files stay where the
// cluster wrote them.
func SaveIndex(ix *Index, path string) error {
	g := ix.AcquireGeneration()
	defer g.Release()
	return SaveSnapshot(g.Skel, g.Parts, path)
}

// SaveSnapshot persists a skeleton plus a partition manifest to one file —
// the serialised form of a generation. Partition paths under the file's own
// directory are stored relative to it, so a database directory (and a backup)
// can be relocated or copied wholesale and still open; paths elsewhere are
// stored as given.
//
// Each tail's path and record count follow the manifest only when some
// partition has a tail, so an index that never drained into one — a fresh
// build, a reindex, a backup taken by a writer, which folds first — has the
// bytes it always had.
//
// The write is atomic (temp file + fsync + rename): the manifest is the
// WAL-replay baseline and the streaming compactor rewrites it on every
// compaction, so a kill mid-save must leave either the old or the new
// manifest, never a truncated one that would make the database unopenable.
func SaveSnapshot(skel *Skeleton, parts *cluster.PartitionSet, path string) error {
	return saveSnapshot(skel, parts, path, false)
}

// saveSnapshot is SaveSnapshot, with the legacy tail section when legacy is
// set: a view read from a manifest that had it keeps it (UpgradeLayout).
func saveSnapshot(skel *Skeleton, parts *cluster.PartitionSet, path string, legacy bool) (err error) {
	root := filepath.Dir(path)
	tmp := path + ".tmp"
	CrashStep("index-write")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: create index file: %w", err)
	}
	// A temporary file this call created never outlives a failure.
	defer func() {
		if err != nil {
			f.Close()
			_ = os.Remove(tmp) // best effort; err already says what went wrong
		}
	}()
	w := bufio.NewWriter(f)
	if err := skel.Encode(w); err != nil {
		return fmt.Errorf("core: encode skeleton: %w", err)
	}
	bw := &binWriter{w: w}
	bw.i(parts.SeriesLen)
	bw.i(len(parts.Paths))
	// putPath writes p, relative to root when it lies under it.
	putPath := func(p string) {
		if rel, err := filepath.Rel(root, p); err == nil && filepath.IsLocal(rel) {
			p = rel
		}
		bw.i(len(p))
		bw.raw([]byte(p))
	}
	for i, p := range parts.Paths {
		putPath(p)
		bw.i(parts.Counts[i])
	}
	switch {
	case legacy:
		bw.raw([]byte(legacyTailsMagic))
		for pid := range parts.Paths {
			_, n := parts.Tail(pid)
			bw.i(n)
		}
	case slices.ContainsFunc(parts.Tails, func(t int) bool { return t > 0 }):
		bw.raw([]byte(tailsMagic))
		for pid := range parts.Paths {
			tail, n := parts.Tail(pid)
			putPath(tail)
			bw.i(n)
		}
	}
	if bw.err != nil {
		return fmt.Errorf("core: encode manifest: %w", bw.err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("core: flush index file: %w", err)
	}
	CrashStep("index-fsync")
	if err := f.Sync(); err != nil {
		return fmt.Errorf("core: sync index file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close index file: %w", err)
	}
	CrashStep("index-rename")
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: replace index file: %w", err)
	}
	return nil
}

// tailsMagic opens the optional tail section of the manifest: each
// partition's tail path (empty for none), stored like a base path, and its
// record count. legacyTailsMagic opens the one a manifest has that was
// written while drains still rewrote files under their names: a record count
// per partition, each tail at cluster.TailPath of its base.
const (
	tailsMagic       = "TLNM"
	legacyTailsMagic = "TAIL"
)

// readTails reads the manifest's tail section into parts, if br holds one,
// and reports whether it is the legacy one; resolve turns a stored path into
// the file's. A legacy tail is live only while its base holds exactly the
// records the manifest gives the base: a fold there renamed its new base in
// before it removed the tail and the manifest was saved, so after a kill in
// that window the base holds the tail's records and the tail must not be
// read beside it. The partition is then its base alone (its Counts entry, the
// WAL replay baseline, stays the manifest's; a writer's open folds the killed
// drain's replayed records into the base, see LegacyTails), and a writer's
// open sweeps the tail. Of a legacy manifest it also reports uncounted: a
// file the view reads, a base or a live tail, holds more records than the
// manifest gives it — a drain killed after it rewrote the file, whose records
// the WAL still holds. Each file is read through the store, whose mapping then
// serves the queries.
func readTails(cl *cluster.Cluster, br *binReader, parts *cluster.PartitionSet, resolve func(string) string) (legacy, uncounted bool, err error) {
	if br.r.Len() == 0 {
		return false, false, nil
	}
	magic := make([]byte, len(tailsMagic))
	br.raw(magic)
	legacy = string(magic) == legacyTailsMagic
	if br.err != nil || !legacy && string(magic) != tailsMagic {
		return false, false, fmt.Errorf("core: corrupt manifest trailer")
	}
	parts.Tails, parts.TailPaths = make([]int, len(parts.Paths)), make([]string, len(parts.Paths))
	for pid, base := range parts.Paths {
		var stored []byte
		if !legacy {
			stored = make([]byte, br.count("tail path byte", 1))
			br.raw(stored)
		}
		n := br.i()
		if br.err != nil || n < 0 || n > parts.Counts[pid] || !legacy && (n == 0) != (len(stored) == 0) {
			return false, false, fmt.Errorf("core: corrupt tail of partition %d", pid)
		}
		tail := cluster.TailPath(base)
		if !legacy {
			tail = resolve(string(stored))
		}
		if legacy {
			held, err := recordsIn(cl, base)
			if err != nil {
				return false, false, err
			}
			if held != parts.Counts[pid]-n {
				n = 0
			}
			if n > 0 {
				inTail, err := recordsIn(cl, tail)
				if err != nil {
					return false, false, err
				}
				held += inTail
			}
			uncounted = uncounted || held > parts.Counts[pid]
		}
		if n > 0 {
			parts.Tails[pid], parts.TailPaths[pid] = n, tail
		}
	}
	return legacy, uncounted, nil
}

// recordsIn returns the number of records the partition file at path holds.
func recordsIn(cl *cluster.Cluster, path string) (int, error) {
	h, err := cl.OpenPartition(&cluster.PartitionSet{Paths: []string{path}}, 0)
	if err != nil {
		return 0, err
	}
	defer h.Close()
	return h.Count(), nil
}

// LegacyTails reports whether the index was opened from a manifest with the
// legacy TAIL trailer. A drain of that layout killed before its manifest save
// may have left records in partition files that the WAL replays too, so a
// writer's open lands the replay with a fold of every partition it touches
// (ingest.Open): the fold replaces a record already in the files.
func (ix *Index) LegacyTails() bool { return ix.legacyTails }

// UncountedRecords reports whether the index was opened from a legacy
// manifest and a file its view reads holds more records than the manifest
// gives it (see readTails): a drain of that layout was killed after it
// rewrote the file. Only a writer's open lands the replay that counts them.
func (ix *Index) UncountedRecords() bool { return ix.uncounted }

// OpenIndex loads index metadata saved by SaveIndex and attaches it to the
// given cluster for partition I/O accounting. The file is small (the
// skeleton is tens of kilobytes) and read whole, so that every count in it is
// held to the bytes that follow: a corrupted file is an error, never an
// allocation sized by garbage.
func OpenIndex(cl *cluster.Cluster, path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: open index file: %w", err)
	}
	br := &binReader{r: bytes.NewReader(data)}
	skel, err := decodeSkeleton(br)
	if err != nil {
		return nil, err
	}
	parts := &cluster.PartitionSet{}
	parts.SeriesLen = br.i()
	if br.err == nil && parts.SeriesLen != skel.SeriesLen {
		return nil, fmt.Errorf("core: manifest series length %d, skeleton %d", parts.SeriesLen, skel.SeriesLen)
	}
	n := br.count("partition", 16) // a path length and a record count each
	// Manifests written by SaveSnapshot carry paths relative to their own
	// directory; resolve them against it. Old absolute-path
	// manifests pass through unchanged.
	resolve := func(p string) string {
		if !filepath.IsAbs(p) {
			p = filepath.Join(filepath.Dir(path), p)
		}
		return p
	}
	for i := 0; i < n; i++ {
		p := make([]byte, br.count("partition path byte", 1))
		br.raw(p)
		parts.Paths = append(parts.Paths, resolve(string(p)))
		parts.Counts = append(parts.Counts, br.i())
		if br.err == nil && parts.Counts[i] < 0 {
			return nil, fmt.Errorf("core: partition %d has %d records in the manifest", i, parts.Counts[i])
		}
	}
	if br.err != nil {
		return nil, fmt.Errorf("core: read manifest: %w", br.err)
	}
	legacy, uncounted, err := readTails(cl, br, parts, resolve)
	if err != nil {
		return nil, err
	}
	ix := &Index{Cl: cl, legacyTails: legacy, uncounted: uncounted}
	ix.gen.Store(NewGeneration(skel, parts, nil))
	ix.initNextID()
	return ix, nil
}
