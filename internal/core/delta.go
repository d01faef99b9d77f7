package core

import (
	"context"
	"sort"

	"climber/internal/series"
	"climber/internal/storage"
)

// DeltaSource is the read interface of an in-memory delta index holding
// records appended but not yet compacted into partition files (see
// internal/ingest). Implementations must be safe for concurrent use with
// inserts: every search merges delta hits into its answer while writers add
// records.
type DeltaSource interface {
	// ScanRuns streams the delta records routed to partition pid, one run
	// per cluster in the layout of storage.Partition.ScanClusterRuns, whose
	// lifetime rules both slices obey. clusters narrows the scan to the
	// listed record clusters; nil means every cluster of the partition.
	ScanRuns(pid int, clusters map[storage.ClusterID]struct{}, fn func(recs, sums []byte) error) error
	// Len returns the number of records currently held.
	Len() int
}

// SetDelta installs (or, with nil, removes) the delta index merged into
// every search answer on the *current* generation. It is called when a
// streaming ingestion pipeline attaches to the index; installing a new
// source while queries run is safe. During an online reindex the new
// generation gets its own re-routed delta before the swap, so this
// convenience forwarder always targets the generation queries will see.
func (ix *Index) SetDelta(d DeltaSource) {
	ix.gen.Load().SetDelta(d)
}

// Delta returns the current generation's delta source, or nil.
func (ix *Index) Delta() DeltaSource {
	return ix.gen.Load().Delta()
}

// scanDelta ranks the delta records the executed plan covers into a top-k
// of their own, so acked-but-uncompacted writes are visible at once with
// exactly the pruning the disk scan used: executed maps each scanned
// partition to the clusters actually compared (nil = every cluster, a
// widened partition), so a budget-truncated query merges delta hits for
// exactly the coverage it achieved. The runs are in the partition file's
// layout and the partition scan itself ranks them (stepScan.run), so a
// record has the same distance in the delta as in the file a drain moves
// it to. The top-k is nil when there is no delta record.
//
// The delta candidates deliberately do NOT share the disk scan's top-k
// accumulator: a record can transiently exist both in the delta and in a
// partition file while a compaction is landing, and pushing the duplicate
// into one k-bounded heap would evict a genuine k-th neighbour; mergeResults
// dedupes the two without shrinking the answer.
//
// The records are charged to RecordsScanned and DeltaScanned but to no
// partition load; those skipped by their lower bound count as scanned, as
// on disk, and in the pruned-records counter. pruned is their number.
func (e *executor) scanDelta(ctx context.Context) (top *series.TopK, pruned int, err error) {
	d := e.gen.Delta()
	if d == nil || d.Len() == 0 {
		return nil, 0, nil
	}
	top = series.NewTopK(e.opts.K)
	seriesLen := e.gen.Parts.SeriesLen
	sc := &stepScan{e: e, top: top, recBytes: storage.RecordBytes(seriesLen), sumBytes: storage.SummaryBytes(seriesLen)}
	run := func(recs, sums []byte) error { return sc.run(ctx, recs, sums) }
	for pid, clusters := range e.executed {
		if err = d.ScanRuns(pid, clusters, run); err != nil {
			break
		}
	}
	e.stats.RecordsScanned += sc.scanned
	e.stats.DeltaScanned += sc.scanned
	e.ix.Cl.Stats.ScanPrunedRecords.Add(int64(sc.pruned))
	return top, sc.pruned, err
}

// mergeResults combines the disk scan's top-k with the delta's top-k,
// deduplicating by ID and keeping the k closest. Any record in the true
// top-k of the union is in the top-k of whichever population holds it, so
// the merge is exact. A record transiently in both populations (appended,
// not yet compacted) carries the same distance in both, so either copy may
// stand for it. The sort below orders by (Dist, ID) — series.Result.Before,
// the order both top-k accumulators kept — so a tie at the k-th distance
// goes to the lower ID, as it does inside each population.
func mergeResults(disk, delta []series.Result, k int) []series.Result {
	all := make([]series.Result, 0, len(disk)+len(delta))
	all = append(all, disk...)
	all = append(all, delta...)
	sort.Slice(all, func(i, j int) bool { return all[i].Before(all[j]) })
	seen := make(map[int]struct{}, len(all))
	out := all[:0]
	for _, r := range all {
		if _, ok := seen[r.ID]; ok {
			continue
		}
		seen[r.ID] = struct{}{}
		out = append(out, r)
		if len(out) == k {
			break
		}
	}
	return out
}
