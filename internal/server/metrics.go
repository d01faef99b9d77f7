package server

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/series"
)

// metrics aggregates the server's operational counters. The admission
// counters (rejected, canceled, inflight, queued) are written by the shared
// api.Limiter through pointers handed over at construction, so one set of
// numbers backs both /stats and /metrics.
type metrics struct {
	searches     atomic.Int64   // /search requests answered (incl. errors)
	batches      atomic.Int64   // /search/batch requests answered
	batchQueries atomic.Int64   // queries inside answered batches
	prefixes     atomic.Int64   // /search/prefix requests answered
	appends      atomic.Int64   // /append requests answered (incl. errors)
	appendSeries atomic.Int64   // series inside successful appends
	flushes      atomic.Int64   // /flush requests answered
	reindexes    atomic.Int64   // /reindex requests answered (incl. errors)
	backups      atomic.Int64   // /backup requests answered (incl. errors)
	badRequests  atomic.Int64   // 400s from decode/validation
	framed       atomic.Int64   // query/append requests that arrived as binary frames
	rejected     atomic.Int64   // 429s from admission control
	canceled     atomic.Int64   // queries aborted by client disconnect
	errors       atomic.Int64   // internal query failures
	budgetExh    atomic.Int64   // queries answered partially, budget exhausted
	inflight     atomic.Int64   // queries currently holding an admission slot
	queued       atomic.Int64   // requests currently waiting for a slot
	traced       atomic.Int64   // queries that ran with a trace attached
	latency      *api.Histogram // read path (search + batch + prefix) only
	appendLat    *api.Histogram // write path; fsync-bound, kept out of the
	// query histogram so write bursts cannot skew search percentiles
	stageLat map[string]*api.Histogram // per-pipeline-stage latency, traced queries only
}

// stageNames are the pipeline stages of one traced query, in execution
// order — the direct children of a query's root span (see internal/core)
// and the label values of climber_stage_latency_seconds.
var stageNames = []string{"plan", "scan", "widen", "delta", "merge"}

// ServerStats is the JSON shape of the server section of GET /stats.
type ServerStats struct {
	Searches        int64   `json:"searches"`
	Batches         int64   `json:"batches"`
	BatchQueries    int64   `json:"batch_queries"`
	PrefixSearches  int64   `json:"prefix_searches"`
	Appends         int64   `json:"appends"`
	AppendSeries    int64   `json:"append_series"`
	Flushes         int64   `json:"flushes"`
	Reindexes       int64   `json:"reindexes"`
	Backups         int64   `json:"backups"`
	BadRequests     int64   `json:"bad_requests"`
	FramedRequests  int64   `json:"framed_requests"`
	Rejected        int64   `json:"rejected"`
	Canceled        int64   `json:"canceled"`
	Errors          int64   `json:"errors"`
	BudgetExhausted int64   `json:"budget_exhausted"`
	InFlight        int64   `json:"in_flight"`
	Queued          int64   `json:"queued"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
}

func (m *metrics) snapshot(uptime time.Duration) ServerStats {
	return ServerStats{
		Searches:        m.searches.Load(),
		Batches:         m.batches.Load(),
		BatchQueries:    m.batchQueries.Load(),
		PrefixSearches:  m.prefixes.Load(),
		Appends:         m.appends.Load(),
		AppendSeries:    m.appendSeries.Load(),
		Flushes:         m.flushes.Load(),
		Reindexes:       m.reindexes.Load(),
		Backups:         m.backups.Load(),
		BadRequests:     m.badRequests.Load(),
		FramedRequests:  m.framed.Load(),
		Rejected:        m.rejected.Load(),
		Canceled:        m.canceled.Load(),
		Errors:          m.errors.Load(),
		BudgetExhausted: m.budgetExh.Load(),
		InFlight:        m.inflight.Load(),
		Queued:          m.queued.Load(),
		UptimeSeconds:   uptime.Seconds(),
	}
}

// renderProm writes the Prometheus text exposition of the server counters,
// the latency histograms, and the DB's partition-cache and ingestion
// counters. buildInfo is the pre-rendered label set of the
// climber_build_info gauge; slowTotal is the slow-query log's lifetime
// entry count.
func (m *metrics) renderProm(w *strings.Builder, buildInfo string, slowTotal int64, cache climber.CacheStats, ing climber.IngestStats) {
	metric := func(name, help, kind string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter := func(name, help string, v int64) { metric(name, help, "counter", v) }
	gauge := func(name, help string, v int64) { metric(name, help, "gauge", v) }
	if buildInfo != "" {
		fmt.Fprintf(w, "# HELP climber_build_info Build and index-granularity identity; constant 1.\n")
		fmt.Fprintf(w, "# TYPE climber_build_info gauge\n")
		fmt.Fprintf(w, "climber_build_info{%s} 1\n", buildInfo)
	}
	fmt.Fprintf(w, "# HELP climber_scan_kernel_info Float32 scan kernel implementation this process selected at start-up; constant 1.\n")
	fmt.Fprintf(w, "# TYPE climber_scan_kernel_info gauge\n")
	fmt.Fprintf(w, "climber_scan_kernel_info{impl=%q} 1\n", series.KernelName())
	counter("climber_search_requests_total", "Answered /search requests.", m.searches.Load())
	counter("climber_batch_requests_total", "Answered /search/batch requests.", m.batches.Load())
	counter("climber_batch_queries_total", "Queries inside answered batches.", m.batchQueries.Load())
	counter("climber_prefix_requests_total", "Answered /search/prefix requests.", m.prefixes.Load())
	counter("climber_bad_requests_total", "Requests rejected with 400.", m.badRequests.Load())
	counter("climber_framed_requests_total", "Query and append requests that arrived as binary frames (the router hop) rather than JSON.", m.framed.Load())
	counter("climber_rejected_total", "Requests rejected with 429 by admission control.", m.rejected.Load())
	counter("climber_canceled_total", "Queries aborted by client disconnect.", m.canceled.Load())
	counter("climber_query_errors_total", "Queries that failed internally.", m.errors.Load())
	counter("climber_budget_exhausted_total", "Queries answered partially because their time/partition budget ran out.", m.budgetExh.Load())
	gauge("climber_inflight_queries", "Queries currently holding an admission slot.", m.inflight.Load())
	gauge("climber_queued_requests", "Requests currently waiting for an admission slot.", m.queued.Load())
	counter("climber_traced_queries_total", "Queries that ran with tracing attached (explain, sampled, or propagated).", m.traced.Load())
	counter("climber_slow_log_entries_total", "Requests recorded in the slow-query log (threshold or sampled).", slowTotal)

	m.latency.Render(w, "climber_query_latency_seconds",
		"End-to-end query latency, every outcome included (200s, 400s, 429s).")
	m.appendLat.Render(w, "climber_append_latency_seconds",
		"End-to-end append latency (admission to durable ack).")
	for i, st := range stageNames {
		m.stageLat[st].RenderLabeled(w, "climber_stage_latency_seconds",
			fmt.Sprintf("stage=%q", st),
			"Per-pipeline-stage latency of traced queries.", i == 0)
	}

	counter("climber_partition_cache_hits_total", "Partition opens served from the shared cache.", cache.Hits)
	counter("climber_partition_cache_misses_total", "Partition opens that loaded from disk.", cache.Misses)
	counter("climber_partition_cache_evictions_total", "Partitions evicted to hold the byte budget.", cache.Evictions)
	counter("climber_partition_cache_bytes_saved_total", "Partition-file bytes the cache avoided re-reading.", cache.BytesSaved)
	counter("climber_partitions_loaded_total", "Real partition disk loads.", cache.PartitionsLoaded)
	gauge("climber_partition_cache_resident_bytes", "Partition-cache charge against its byte budget (metadata plus decoded or mapped bytes).", cache.ResidentBytes)
	gauge("climber_partition_cache_mapped_bytes", "Subset of resident bytes served by read-only memory mappings.", cache.MappedBytes)
	fmt.Fprintf(w, "# HELP climber_partition_load_buffers_total Partition-sized buffers issued to heap loads and compaction merges, by whether the recycled pool had one.\n")
	fmt.Fprintf(w, "# TYPE climber_partition_load_buffers_total counter\n")
	fmt.Fprintf(w, "climber_partition_load_buffers_total{source=\"reused\"} %d\n", cache.LoadBuffersReused)
	fmt.Fprintf(w, "climber_partition_load_buffers_total{source=\"fresh\"} %d\n", cache.LoadBuffersFresh)
	gauge("climber_partition_buffer_idle_bytes", "Capacity the recycled partition-buffer pool holds idle.", cache.BufferIdleBytes)

	counter("climber_append_requests_total", "Answered /append requests.", m.appends.Load())
	counter("climber_append_series_total", "Series inside successful appends.", m.appendSeries.Load())
	counter("climber_flush_requests_total", "Answered /flush requests.", m.flushes.Load())
	counter("climber_reindex_requests_total", "Answered /reindex requests.", m.reindexes.Load())
	counter("climber_backup_requests_total", "Answered /backup requests.", m.backups.Load())
	counter("climber_ingest_appended_series_total", "Series acked by the ingestion pipeline.", ing.AppendedSeries)
	counter("climber_ingest_replayed_series_total", "WAL entries replayed into the delta at open.", ing.ReplayedSeries)
	counter("climber_compactions_total", "Completed delta-to-partition compactions.", ing.Compactions)
	counter("climber_compacted_series_total", "Series moved from the delta into partition files.", ing.CompactedSeries)
	counter("climber_compact_errors_total", "Failed background compaction attempts.", ing.CompactErrors)
	counter("climber_compaction_bytes_written_total", "Partition-file bytes completed compactions rewrote.", ing.CompactBytesWritten)
	fmt.Fprintf(w, "# HELP climber_compaction_duration_seconds Duration of completed delta-to-partition compactions.\n")
	fmt.Fprintf(w, "# TYPE climber_compaction_duration_seconds histogram\n")
	var cum int64
	for i, le := range climber.CompactionBuckets {
		cum += ing.CompactDurations[i]
		fmt.Fprintf(w, "climber_compaction_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += ing.CompactDurations[len(climber.CompactionBuckets)]
	fmt.Fprintf(w, "climber_compaction_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "climber_compaction_duration_seconds_sum %g\n", ing.CompactSeconds)
	fmt.Fprintf(w, "climber_compaction_duration_seconds_count %d\n", cum)
	gauge("climber_wal_bytes", "Current write-ahead-log size in bytes.", ing.WALBytes)
	gauge("climber_delta_records", "Acked records resident in the in-memory delta index.", int64(ing.DeltaRecords))
	gauge("climber_delta_bytes", "Storage-equivalent bytes resident in the delta index.", ing.DeltaBytes)
}
