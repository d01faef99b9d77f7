package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"climber"
	"climber/internal/api"
)

// rows is the counter table of climber-router, each row declared once, in
// the order of both GET /stats and GET /metrics. The front moves the request
// and outcome rows; the scatter moves partial_answers, budget_exhausted,
// duplicates_dropped and the four effort rows; shard_errors is the sum of
// the per-shard family rendered by shardMetrics.
func (r *Router) rows() []api.Row {
	return []api.Row{
		{Key: "searches", Metric: "climber_router_search_requests_total", Help: "Answered /search requests."},
		{Key: "batches", Metric: "climber_router_batch_requests_total", Help: "Answered /search/batch requests."},
		{Key: "prefix_searches", Metric: "climber_router_prefix_requests_total", Help: "Answered /search/prefix requests."},
		{Key: "appends", Metric: "climber_router_append_requests_total", Help: "Answered /append requests."},
		{Key: "append_series", Metric: "climber_router_append_series_total", Help: "Series inside successful appends."},
		{Key: "flushes", Metric: "climber_router_flush_requests_total", Help: "Answered /flush requests."},
		{Key: "reindexes", Metric: "climber_router_reindex_requests_total", Help: "Answered /reindex requests."},
		{Key: "backups", Metric: "climber_router_backup_requests_total", Help: "Answered /backup requests."},
		{Key: "bad_requests", Metric: "climber_router_bad_requests_total", Help: "Requests rejected with 400."},
		{Key: "rejected", Metric: "climber_router_rejected_total", Help: "Requests rejected with 429 by admission control."},
		{Key: "canceled", Metric: "climber_router_canceled_total", Help: "Requests aborted by client disconnect."},
		{Key: "errors", Metric: "climber_router_errors_total", Help: "Requests failed by shard loss or quorum."},
		{Key: "partial_answers", Metric: "climber_router_partial_answers_total", Help: "Partial answers: shard-subset merges or budget-truncated shard answers."},
		{Key: "budget_exhausted", Metric: "climber_router_budget_exhausted_total", Help: "Answers partial because at least one shard's query budget ran out."},
		{Key: "duplicates_dropped", Metric: "climber_router_duplicates_dropped_total", Help: "Duplicate global IDs dropped by the top-k merge."},
		{Key: "shard_errors", Value: func() (n int64) {
			for i := range r.shardErrs {
				n += r.shardErrs[i].Load()
			}
			return n
		}},
		{Key: "in_flight", Metric: "climber_router_inflight_requests", Help: "Requests currently holding an admission slot.", Gauge: true},
		{Key: "queued", Metric: "climber_router_queued_requests", Help: "Requests currently waiting for an admission slot.", Gauge: true},
		{Key: "traced_queries", Metric: "climber_router_traced_queries_total", Help: "Routed queries that ran with tracing attached (explain, sampled, or propagated).", MetricOnly: true},
		{Key: "unended_spans", Metric: "climber_router_unended_spans_total", Help: "Spans traced routed queries opened in the router and did not end; anything but 0 is a code path that skips a span's End.", MetricOnly: true},
		{Key: "slow_log_entries", Metric: "climber_router_slow_log_entries_total", Help: "Routed requests recorded in the slow-query log (threshold or sampled).", MetricOnly: true},
		{Key: "partitions_scanned", Metric: "climber_router_partitions_scanned_total", Help: "Partitions the shards scanned for routed answers.", MetricOnly: true},
		{Key: "cache_hits", Metric: "climber_router_partition_cache_hits_total", Help: "Always 0: since every partition file stays mapped after its first open, shards no longer count file opens per query (each shard's climber_partition_cache_hits_total does).", MetricOnly: true},
		{Key: "cache_misses", Metric: "climber_router_partition_cache_misses_total", Help: "Always 0: shards no longer count partition-file loads per query (each shard's climber_partition_cache_misses_total does).", MetricOnly: true},
		{Key: "delta_scanned", Metric: "climber_router_delta_scanned_total", Help: "Delta records the shards scanned for routed answers.", MetricOnly: true},
	}
}

// Meters lays the table out: every row in one block, then the per-shard
// families, then the front's histograms.
func (r *Router) Meters() api.Meters {
	return api.Meters{
		Section:  "router",
		Counters: r.c,
		Metrics:  []api.Block{{Own: r.identityMetrics}, {Rows: r.rows()}, {Own: r.shardMetrics}, {Hists: true}},
		Query:    api.Row{Metric: "climber_router_query_latency_seconds", Help: "End-to-end routed query latency, every outcome included (200s, 400s, 429s)."},
		Append:   api.Row{Metric: "climber_router_append_latency_seconds", Help: "End-to-end routed append latency (admission to global ack)."},
		Stage:    api.Row{Metric: "climber_router_stage_latency_seconds", Help: "Per-router-stage latency of traced routed queries."},
		// The direct children of a routed query's root span.
		Stages: []string{"scatter", "merge"},
	}
}

func (r *Router) identityMetrics(_ context.Context, w *strings.Builder) {
	fmt.Fprintf(w, "# HELP climber_build_info Build identity of this router; constant 1.\n# TYPE climber_build_info gauge\n")
	fmt.Fprintf(w, "climber_build_info{version=%q,role=\"router\",shards=\"%d\"} 1\n", climber.Version, len(r.topo.Shards))
}

// shardMetrics renders the per-shard families: scatter health and errors,
// and — polled from every reachable shard's /stats — the bytes of partition
// files each shard holds memory-mapped plus fleet totals, the router-level
// view of the shards' resident read paths (reclaimable page cache). Unreachable shards are skipped; their absence
// is visible through climber_router_shard_up.
func (r *Router) shardMetrics(ctx context.Context, w *strings.Builder) {
	family := func(name, help, kind string, value func(shard int) (int64, bool)) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for i := range r.topo.Shards {
			if v, ok := value(i); ok {
				fmt.Fprintf(w, "%s{shard=%q} %d\n", name, r.topo.Shards[i].ID, v)
			}
		}
	}
	family("climber_router_shard_up", "Shard health per the last probe (1 up, 0 down).", "gauge", func(i int) (int64, bool) {
		if r.up[i].Load() {
			return 1, true
		}
		return 0, true
	})
	family("climber_router_shard_errors_total", "Failed sub-requests per shard.", "counter", func(i int) (int64, bool) {
		return r.shardErrs[i].Load(), true
	})

	type cacheBytes struct {
		Cache struct{ ResidentBytes, MappedBytes int64 } `json:"cache"`
	}
	raws, errs := r.shardStats(ctx)
	byShard := make([]cacheBytes, len(raws))
	var resident, mapped int64
	for i, raw := range raws {
		if errs[i] == nil {
			errs[i] = json.Unmarshal(raw, &byShard[i])
		}
		if errs[i] == nil {
			resident += byShard[i].Cache.ResidentBytes
			mapped += byShard[i].Cache.MappedBytes
		}
	}
	family("climber_router_shard_cache_resident_bytes", "Per-shard bytes of partition files currently memory-mapped.", "gauge", func(i int) (int64, bool) {
		return byShard[i].Cache.ResidentBytes, errs[i] == nil
	})
	family("climber_router_shard_cache_mapped_bytes", "Per-shard bytes of partition files currently memory-mapped; equal to climber_router_shard_cache_resident_bytes.", "gauge", func(i int) (int64, bool) {
		return byShard[i].Cache.MappedBytes, errs[i] == nil
	})
	api.WriteSample(w, "climber_router_cache_resident_bytes", "Bytes of partition files currently memory-mapped, summed over reachable shards.", "gauge", resident)
	api.WriteSample(w, "climber_router_cache_mapped_bytes", "Memory-mapped partition-file bytes summed over reachable shards; equal to climber_router_cache_resident_bytes.", "gauge", mapped)
}
