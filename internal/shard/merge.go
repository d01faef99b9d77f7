package shard

import (
	"sort"

	"climber"
	"climber/internal/api"
)

// answer is one shard's slice of a scatter-gather query: the topology index
// of the shard that produced it plus its (shard-local) top-k results.
type answer struct {
	shard   int
	results []api.Result
}

// mergeTopK folds per-shard top-k answers into the global top-k: every
// shard-local ID is mapped into the global ID space (Topology.GlobalID),
// the union is ordered by ascending (distance, ID) — series.Result.Before,
// the same total order the unsharded engine's accumulator keeps, so a tie
// at the k-th distance goes to the lower ID here too — and duplicates of
// one global ID are collapsed keeping the closest copy. Duplicates arise
// from read-replica topology entries (two shards sharing an IDBase hold the
// same records) and from a record transiently present on two shards during
// a topology migration; dedupe is what keeps the merged answer a set. dups
// reports how many copies were dropped.
func (t *Topology) mergeTopK(answers []answer, k int) (merged []api.Result, dups int) {
	total := 0
	for _, a := range answers {
		total += len(a.results)
	}
	all := make([]api.Result, 0, total)
	for _, a := range answers {
		for _, r := range a.results {
			all = append(all, api.Result{ID: t.GlobalID(a.shard, r.ID), Dist: r.Dist})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Before(all[j]) })
	seen := make(map[int]struct{}, len(all))
	merged = all[:0]
	for _, r := range all {
		if _, dup := seen[r.ID]; dup {
			dups++ // count every duplicate, even past the k-th rank
			continue
		}
		seen[r.ID] = struct{}{}
		if len(merged) < k {
			merged = append(merged, r)
		}
	}
	return merged, dups
}

// sumStats folds per-shard query statistics into the whole query's effort:
// the volume counters (records, bytes, steps) sum across shards, the trie
// descent gauges (TargetNodeSize, TargetPathLen) take the per-shard
// maximum, Partial is true when any shard's answer was budget-truncated
// (matching the top-level response marker), and BudgetExhausted carries
// the first shard-reported reason. Every exported field of climber.Stats
// must be folded here — TestSumStatsFoldsEveryField holds this function to
// that rule, because StepsPlanned/StepsExecuted once shipped silently
// dropped by this very fold.
func sumStats(stats []climber.Stats) climber.Stats {
	var out climber.Stats
	for _, s := range stats {
		out.GroupsConsidered += s.GroupsConsidered
		if s.TargetNodeSize > out.TargetNodeSize {
			out.TargetNodeSize = s.TargetNodeSize
		}
		if s.TargetPathLen > out.TargetPathLen {
			out.TargetPathLen = s.TargetPathLen
		}
		out.PartitionsScanned += s.PartitionsScanned
		out.RecordsScanned += s.RecordsScanned
		out.BytesLoaded += s.BytesLoaded
		out.DeltaScanned += s.DeltaScanned
		out.PartitionCacheHits += s.PartitionCacheHits
		out.PartitionCacheMisses += s.PartitionCacheMisses
		out.StepsPlanned += s.StepsPlanned
		out.StepsExecuted += s.StepsExecuted
		if s.Partial {
			out.Partial = true
			if out.BudgetExhausted == "" {
				out.BudgetExhausted = s.BudgetExhausted
			}
		}
	}
	return out
}
