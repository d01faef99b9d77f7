package core

import (
	"context"
	"math"
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
	// ScanPartition streams the delta records routed to partition pid.
	// clusters narrows the scan to the listed record clusters; nil means
	// every cluster of the partition. The values slice passed to fn must
	// stay valid after fn returns (delta records are immutable once added).
	ScanPartition(pid int, clusters map[storage.ClusterID]struct{}, fn func(id int, values []float64) error) error
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

// scanDelta collects the delta records covered by the executed scan plan
// into a top-k of their own, so acked-but-uncompacted writes are immediately
// visible with exactly the pruning the on-disk plan used: records routed to
// unplanned partitions or clusters are skipped, mirroring how the disk scan
// would miss them after compaction. executed maps each scanned partition to
// the clusters actually compared (nil = every cluster, i.e. the partition
// was widened), so a budget-truncated query merges delta hits for exactly
// the coverage it achieved. The result is nil when no delta is installed or
// it is empty.
//
// The delta candidates deliberately do NOT share the disk scan's top-k
// accumulator: a record can transiently exist both in the delta and in a
// partition file while a compaction is landing, and pushing the duplicate
// into one k-bounded heap would evict a genuine k-th neighbour. Keeping the
// populations separate and merging with mergeResults dedupes without
// shrinking the answer.
//
// Delta comparisons are charged to RecordsScanned (and DeltaScanned) but to
// no partition load — the records are resident by definition.
//
// Delta records are held as float64, so they are ranked by the float64
// kernel over the first len(q) readings (all of them unless q is a prefix
// query). A record equal to the bound is offered to the accumulator, which
// breaks the tie by ID, as the partition scan does.
func (g *Generation) scanDelta(ctx context.Context, executed planMap, q []float64, k int, stats *QueryStats) (*series.TopK, error) {
	d := g.Delta()
	if d == nil || d.Len() == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	top := series.NewTopK(k)
	scan := func(id int, values []float64) error {
		stats.RecordsScanned++
		stats.DeltaScanned++
		bound := math.Inf(1)
		if b, ok := top.Bound(); ok {
			bound = b
		}
		if dd := series.SqDistEarlyAbandonBlocked(q, values[:len(q)], bound); dd <= bound {
			top.Push(id, dd)
		}
		return nil
	}
	for pid, clusters := range executed {
		if err := d.ScanPartition(pid, clusters, scan); err != nil {
			return nil, err
		}
	}
	return top, nil
}

// mergeResults combines the disk scan's top-k with the delta's top-k,
// deduplicating by ID and keeping the k closest. Any record in the true
// top-k of the union is in the top-k of whichever population holds it, so
// the merge is exact. A record transiently in both populations (appended,
// not yet compacted) may carry two slightly different distances: the disk
// copy is ranked by the raw float32 kernel (query rounded to storage
// precision), the delta copy by the float64 kernel over its decoded values.
// The sort below orders by (Dist, ID) — series.Result.Before, the order
// both top-k accumulators kept — so dedup deterministically keeps the copy
// with the smaller distance, and a tie at the k-th distance goes to the
// lower ID, as it does inside each population.
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
