package core

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"climber/internal/cluster"
	"climber/internal/storage"
)

// Routed is one new data series with its assigned ID and the destination the
// skeleton routed it to: the unit of work of the ingestion drain
// (internal/ingest), which lands records in partition files via WriteRouted.
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
// IDs acked before a crash are never reissued after reopen. The replayed IDs
// below min may already sit in partition files — a drain that was killed
// before its manifest save — so the drain that carries them again folds
// (see redrainBelow).
func (ix *Index) EnsureNextID(min int) {
	raise(&ix.redrainBelow, int64(min))
	raise(&ix.nextID, int64(min))
}

// raise lifts a to at least v.
func raise(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
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

// TailStats reports the tails the current generation has on disk: how many
// partitions have one, the records in them, and the files' sizes.
func (ix *Index) TailStats() (files, records int, bytes int64) {
	g := ix.AcquireGeneration()
	defer g.Release()
	for pid, base := range g.Parts.Paths {
		_, tail := g.Parts.Layout(pid)
		if tail == 0 {
			continue
		}
		files++
		records += tail
		// A tail folded since the layout was read is no longer there to size.
		if info, err := os.Stat(cluster.TailPath(base)); err == nil {
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

// DrainStats is what one WriteRouted or FoldTails call wrote: the bytes of
// the tail files it rewrote, the bytes of the base files it folded into, and
// the number of those folds.
type DrainStats struct {
	TailBytes int64
	FoldBytes int64
	Folds     int
}

// WriteRouted lands already-routed records in partition files, grouping by
// destination so each affected partition sees one file written — its tail,
// or on a fold its base — and reports what it wrote. Callers must serialise
// WriteRouted calls: each is a read-modify-replace of partition files, and
// two interleaved on one file lose records (climber.DB funnels every write
// through its ingestion pipeline). That also keeps them serialised against
// generation swaps, so the whole batch lands in one generation's files.
// Queries running concurrently are safe — partition files are replaced
// atomically and cluster.OpenPartition pairs a base only with its own tail.
//
// A failed call may have landed some of the records already, and a caller may
// fail after a call that succeeded (the manifest save, the WAL reset) and keep
// the records; either way it retries with the same IDs and the retry replaces
// them where they lie, because every ID that has been through here folds.
func (ix *Index) WriteRouted(recs []Routed) (st DrainStats, err error) {
	g := ix.AcquireGeneration()
	defer g.Release()
	byPartition := make(map[int][]storage.Incoming)
	maxID := -1
	for _, r := range recs {
		byPartition[r.Route.Partition] = append(byPartition[r.Route.Partition],
			storage.Incoming{Cluster: r.Route.Cluster, ID: r.ID, Values: r.Values})
		maxID = max(maxID, r.ID)
	}
	defer raise(&ix.redrainBelow, int64(maxID+1))
	pids := make([]int, 0, len(byPartition))
	for pid := range byPartition {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		if err := ix.appendToPartition(g, pid, byPartition[pid], false, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// FoldTails folds every tail of the current generation into its base, so the
// base files alone hold every persisted record: what a backup links and a
// reindex reads. Callers serialise it with WriteRouted and save the manifest
// afterwards (also after an error: the folds that did happen are recorded).
func (ix *Index) FoldTails() (st DrainStats, err error) {
	g := ix.AcquireGeneration()
	defer g.Release()
	for pid := range g.Parts.Paths {
		if _, tail := g.Parts.Layout(pid); tail == 0 {
			continue
		}
		if err := ix.appendToPartition(g, pid, nil, true, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// appendToPartition lands recs in partition pid. Partition files are
// immutable cluster-contiguous layouts, so an append is read-modify-replace
// (storage.MergePartitions' byte-level merge) — of the partition's tail, a
// small file in the partition format beside the base that is created on the
// first drain, while the base stays as it is. Only when the tail would
// outgrow 1/foldFraction of the base (or fold is set) is the base rewritten
// instead: one merge of base, tail and recs into the base, after which the
// tail is removed. The base after a fold is byte for byte the file that
// merging every drain into it would have left. This is the one place a
// partition file is rewritten.
//
// Each file is replaced whole by rename, its mapping dropped from the store's
// registry, and only then is the new layout recorded, which is the order cluster.OpenPartition
// relies on. A fold records the layout before removing the tail: from the
// rename on the tail's records are in the base, and a reader must not pair
// the two.
//
// Merging is idempotent — a record whose ID reappears is replaced rather than
// duplicated — but only within the files merged, so records that may already
// be in the base (IDs below redrainBelow: replayed after a crash, or drained
// before) go through a fold, never into the tail beside it.
func (ix *Index) appendToPartition(g *Generation, pid int, recs []storage.Incoming, fold bool, st *DrainStats) error {
	base := g.Parts.Paths[pid]
	tail := cluster.TailPath(base)
	nBase, nTail := g.Parts.Layout(pid)
	redrain := ix.redrainBelow.Load()
	for _, r := range recs {
		fold = fold || int64(r.ID) < redrain
	}
	step := func(name string) { CrashStep(fmt.Sprintf("%s-%05d", name, pid)) }
	if !fold && nTail+len(recs) <= nBase/foldFraction {
		var srcs []string
		if nTail > 0 {
			srcs = []string{tail}
		}
		step("tail-write")
		count, written, err := storage.MergePartitions(tail, g.Parts.SeriesLen, srcs, recs, func() { step("tail-rename") })
		if err != nil {
			return fmt.Errorf("core: rewrite tail of partition %d: %w", pid, err)
		}
		ix.Cl.InvalidatePartition(tail)
		g.Parts.SetLayout(pid, nBase, count)
		st.TailBytes += written
		return nil
	}
	srcs := []string{base}
	if nTail > 0 {
		srcs = append(srcs, tail)
	}
	step("fold-write")
	count, written, err := storage.MergePartitions(base, g.Parts.SeriesLen, srcs, recs, func() { step("fold-rename") })
	if err != nil {
		return fmt.Errorf("core: rewrite partition %d: %w", pid, err)
	}
	// The store holds the replaced file mapped; drop the mapping so the
	// next query maps the merged contents. In-flight queries keep scanning
	// their immutable snapshot.
	ix.Cl.InvalidatePartition(base)
	g.Parts.SetLayout(pid, count, 0)
	st.FoldBytes += written
	st.Folds++
	if nTail > 0 {
		step("tail-remove")
		err := os.Remove(tail)
		ix.Cl.InvalidatePartition(tail)
		if err != nil {
			return fmt.Errorf("core: remove folded tail of partition %d: %w", pid, err)
		}
	}
	return nil
}
