package core

import (
	"fmt"
	"os"

	"climber/internal/cluster"
	"climber/internal/storage"
)

// Routed is one new data series with its assigned ID and the destination the
// skeleton routed it to: the unit of work of the ingestion drain
// (internal/ingest), which lands records in partition files via Drain.
type Routed struct {
	ID     int
	Route  cluster.Route
	Values []float64
}

// initNextID seeds the index's ID counter from the persisted partition
// counts. Build and OpenIndex call it once; afterwards every ID comes from
// ReserveIDs so concurrent writers can never mint duplicates by re-reading
// mutable state.
func (ix *Index) initNextID() {
	ix.nextID.Store(int64(ix.Partitions().Len()))
}

// ReserveIDs atomically reserves n consecutive record IDs and returns the
// first. IDs continue the build sequence (build assigns 0..N-1).
func (ix *Index) ReserveIDs(n int) int {
	return int(ix.nextID.Add(int64(n))) - n
}

// EnsureNextID raises the ID counter to at least min. WAL replay uses it so
// IDs acked before a crash are never reissued after reopen.
func (ix *Index) EnsureNextID(min int) {
	for {
		cur := ix.nextID.Load()
		if cur >= int64(min) || ix.nextID.CompareAndSwap(cur, int64(min)) {
			return
		}
	}
}

// UnreserveIDs returns a failed write's ID reservation, keeping the ID
// sequence dense. If the counter moved on (another writer reserved past us
// — possible only when the caller broke the serialisation contract), the
// burned gap is left in place; a gap is tolerable for the writer that kept
// the contract, while reissuing IDs under it would not be. Dense IDs matter
// because initNextID re-derives the counter from the record count at open:
// a gap below the final count would make a future open reissue the ID of a
// durable record.
func (ix *Index) UnreserveIDs(first, n int) {
	ix.nextID.CompareAndSwap(int64(first+n), int64(first))
}

// PersistedRecords returns the number of records held by the partition
// files, per the manifest. With a live delta index the database's total
// record count is this plus the delta's length.
func (ix *Index) PersistedRecords() int {
	return ix.Partitions().Len()
}

// TailStats reports the tails the current view names: how many partitions
// have one, the records in them, and the files' sizes.
func (ix *Index) TailStats() (files, records int, bytes int64) {
	g := ix.AcquireGeneration()
	defer g.Release()
	for pid := range g.Parts.Paths {
		path, n := g.Parts.Tail(pid)
		if n == 0 {
			continue
		}
		files++
		records += n
		if info, err := os.Stat(path); err == nil {
			bytes += info.Size()
		}
	}
	return files, records, bytes
}

// RouteNew routes one new record through the current generation's skeleton;
// see Skeleton.RouteRecord. The route does not depend on id.
func (ix *Index) RouteNew(id int, values []float64) cluster.Route {
	return ix.Skeleton().RouteRecord(values)
}

// foldFraction sets when a drain folds a partition's tail into its base
// instead of rewriting the tail: when the tail, incoming records included,
// would hold more than 1/foldFraction of the base's records. A tail rewrite
// costs the tail's size on every drain and a fold the base's size once per
// tail filled, so with drains of d records into a base of B the tail bytes
// written per drain average B/(2·foldFraction) records' worth and the fold
// bytes foldFraction·d; one-eighth is about where the two meet for the
// drains this serves (tens of records into partitions of thousands), an
// order of magnitude under rewriting B on every drain.
const foldFraction = 8

// DrainStats is what one Drain wrote: the bytes of the tail files, the bytes
// of the base files it folded into, and the number of those folds.
type DrainStats struct {
	TailBytes int64
	FoldBytes int64
	Folds     int
}

// Drain lands already-routed records — with foldAll, every tail too — in new
// partition files, one per affected partition: its tail, or on a fold its
// base. It builds the view naming them beside the current one, with delta as
// its delta, and commits it with Publish (save, directory fsync, swap). A
// caller draining records out of the current delta hands over a delta
// without them, so the published view holds each record once: in its files
// or in its delta; one that only folds hands over the current delta. The
// current view's files are never touched, so running queries are
// unaffected; an error before the manifest's rename removes the files
// written and the current view stays. Callers must serialise Drain with
// every other write path (climber.DB funnels every write through its
// ingestion pipeline).
func (ix *Index) Drain(recs []Routed, foldAll bool, delta DeltaSource, save func(next *Generation) error) (st DrainStats, err error) {
	cur := ix.gen.Load() // the writer's own: only it swaps
	byPartition := make(map[int][]storage.Incoming)
	for _, r := range recs {
		byPartition[r.Route.Partition] = append(byPartition[r.Route.Partition],
			storage.Incoming{Cluster: r.Route.Cluster, ID: r.ID, Values: r.Values})
	}
	parts := cur.Parts.Clone()
	wrote := false
	for pid := range parts.Paths {
		if _, ok := byPartition[pid]; ok || foldAll && parts.Tails[pid] > 0 {
			wrote = true
			if err = ix.appendToPartition(parts, pid, byPartition[pid], foldAll, &st); err != nil {
				break
			}
		}
	}
	next := NewGeneration(cur.Skel, parts, delta)
	switch {
	case err != nil:
		ix.retire(next, cur) // never published: no reader holds it
	case wrote:
		err = ix.Publish(next, save)
	}
	return st, err
}

// appendToPartition lands recs in partition pid of parts, a view under
// construction. Partition files are immutable cluster-contiguous layouts, so
// an append is a merge into a new file (storage.MergeStaged) — of the
// partition's tail, a small file beside the base, while the base stays as it
// is. Only when the tail would outgrow 1/foldFraction of the base (or fold is
// set) is the base merged instead: one merge of base, tail and recs into a new
// base that is byte for byte the file merging every drain into it would have
// left. A new file is written at its partition's temporary name and renamed
// to the name its record count gives it (cluster.TailPath for a base's first
// tail, GrownTailPath after that, FoldedPath for a folded base), which no
// earlier file of the partition had; a redone fold writes the bytes and the
// name it wrote before. Merging is idempotent within the files merged: a
// record whose ID reappears is replaced rather than duplicated, which is what
// lets a fold take in records a killed drain of the legacy layout already put
// in the base (see ingest.Open).
func (ix *Index) appendToPartition(parts *cluster.PartitionSet, pid int, recs []storage.Incoming, fold bool, st *DrainStats) error {
	base := parts.Paths[pid]
	tail, nTail := parts.Tail(pid)
	nBase := parts.Counts[pid] - nTail
	step := func(name string) { CrashStep(fmt.Sprintf("%s-%05d", name, pid)) }
	if !fold && nTail+len(recs) <= nBase/foldFraction {
		var srcs []string
		name := func(int) string { return cluster.TailPath(base) }
		if nTail > 0 {
			srcs = []string{tail}
			name = func(count int) string { return cluster.GrownTailPath(base, count) }
		}
		step("tail-write")
		path, count, written, err := storage.MergeStaged(cluster.TailPath(base)+".tmp", name,
			parts.SeriesLen, srcs, recs, func() { step("tail-rename") })
		if err != nil {
			return fmt.Errorf("core: write tail of partition %d: %w", pid, err)
		}
		parts.Counts[pid], parts.Tails[pid], parts.TailPaths[pid] = nBase+count, count, path
		st.TailBytes += written
		return nil
	}
	srcs := []string{base}
	if nTail > 0 {
		srcs = append(srcs, tail)
	}
	step("fold-write")
	path, count, written, err := storage.MergeStaged(base+".tmp", func(count int) string { return cluster.FoldedPath(base, count) },
		parts.SeriesLen, srcs, recs, func() { step("fold-rename") })
	if err != nil {
		return fmt.Errorf("core: fold partition %d: %w", pid, err)
	}
	parts.Paths[pid], parts.Counts[pid], parts.Tails[pid], parts.TailPaths[pid] = path, count, 0, ""
	st.FoldBytes += written
	st.Folds++
	return nil
}
