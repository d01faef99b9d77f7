package core

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"climber/internal/cluster"
	"climber/internal/storage"
)

// Routed is one new data series with its assigned ID and the destination the
// skeleton routed it to. It is the unit of work shared by the synchronous
// Append path and the streaming ingestion compactor (internal/ingest), both
// of which ultimately land records in partition files via WriteRouted.
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
	ix.countsMu.Lock()
	defer ix.countsMu.Unlock()
	return ix.Partitions().Len()
}

// RouteNewRecord routes one record through the skeleton's pivots, groups, and
// tries: it is Step 4 of construction, and the route of every later append.
// Algorithm 1's final tie-break must not depend on worker scheduling, so its
// generator is derived from the record ID: a record's destination is a pure
// function of (skeleton, seed, id, values) — WAL replay after a crash
// recomputes identical routes, and an online reindex re-routes the surviving
// delta against the new skeleton with the same determinism.
func (s *Skeleton) RouteNewRecord(id int, values []float64) cluster.Route {
	rng := rand.New(rand.NewPCG(s.Cfg.Seed, uint64(id)+0x9e3779b97f4a7c15))
	return s.RouteRecord(values, rng)
}

// RouteNew routes one new record through the current generation's skeleton;
// see Skeleton.RouteNewRecord.
func (ix *Index) RouteNew(id int, values []float64) cluster.Route {
	return ix.Skeleton().RouteNewRecord(id, values)
}

// Append inserts new data series into a built index without rebuilding the
// skeleton: each record is routed through the existing pivots, groups, and
// tries and appended to its partition file. Appended records receive IDs
// continuing the build sequence; the assigned IDs are returned in input
// order.
//
// The skeleton's partitioning was derived from the original sample, so a
// heavily appended index drifts from its capacity targets — like the
// paper's prototype, rebuilding is the answer once partitions grow far past
// the capacity constraint (the soft-constraint discussion of Section V).
//
// Concurrency: ID assignment is atomic, but the partition rewrites are not
// — concurrent Append calls may interleave read-modify-replace cycles on
// the same partition file and lose records, so callers must serialise them.
// climber.DB does this internally by funnelling every write through its
// ingestion pipeline; direct users of core.Index remain responsible for it.
func (ix *Index) Append(records [][]float64) ([]int, error) {
	if len(records) == 0 {
		return nil, nil
	}
	seriesLen := ix.Skeleton().SeriesLen
	for i, r := range records {
		if len(r) != seriesLen {
			return nil, fmt.Errorf("core: appended record %d has length %d, index stores %d",
				i, len(r), seriesLen)
		}
	}
	first := ix.ReserveIDs(len(records))
	routed := make([]Routed, len(records))
	ids := make([]int, len(records))
	for i, r := range records {
		id := first + i
		ids[i] = id
		routed[i] = Routed{ID: id, Route: ix.RouteNew(id, r), Values: r}
	}
	if _, err := ix.WriteRouted(routed); err != nil {
		// Hand the reservation back so the ID sequence stays dense. Any
		// partitions already rewritten hold orphans under these IDs; a
		// retry reissues the same IDs and the replace-by-ID merge lands
		// the new records exactly once in the orphans' place.
		ix.UnreserveIDs(first, len(records))
		return nil, err
	}
	return ids, nil
}

// WriteRouted lands already-routed records in their partition files,
// grouping by destination so each affected partition is rewritten once, and
// returns the partition-file bytes it wrote. Callers must serialise
// WriteRouted calls (see Append) — which also keeps them serialised against
// generation swaps, so the whole batch lands in one generation's files.
// Queries running concurrently are safe — partition files are replaced
// atomically, so they see either the old or the new consistent snapshot.
func (ix *Index) WriteRouted(recs []Routed) (written int64, err error) {
	g := ix.AcquireGeneration()
	defer g.Release()
	byPartition := make(map[int][]storage.Incoming)
	for _, r := range recs {
		byPartition[r.Route.Partition] = append(byPartition[r.Route.Partition],
			storage.Incoming{Cluster: r.Route.Cluster, ID: r.ID, Values: r.Values})
	}
	pids := make([]int, 0, len(byPartition))
	for pid := range byPartition {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		n, err := ix.appendToPartition(g, pid, byPartition[pid])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// appendToPartition merges recs into one partition file. Partition files are
// immutable cluster-contiguous layouts, so append is read-modify-replace —
// storage.MergePartition's byte-level merge, cheap because partitions are
// capacity bounded.
//
// The merge is idempotent: an existing record whose ID reappears in recs is
// replaced rather than duplicated. This is what makes WAL replay after a
// crash between partition writes and the manifest save safe — recompacting
// a replayed record lands it exactly once.
func (ix *Index) appendToPartition(g *Generation, pid int, recs []storage.Incoming) (written int64, err error) {
	path := g.Parts.Paths[pid]
	count, written, err := storage.MergePartition(path, recs)
	if err != nil {
		return 0, fmt.Errorf("core: rewrite partition %d: %w", pid, err)
	}
	// The partition cache, when enabled, may hold the replaced file; drop
	// it so the next query loads the merged contents. In-flight queries
	// keep scanning their immutable snapshot.
	ix.Cl.InvalidatePartition(path)
	ix.countsMu.Lock()
	g.Parts.Counts[pid] = count
	ix.countsMu.Unlock()
	return written, nil
}
