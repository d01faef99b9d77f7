package server

import (
	"context"
	"fmt"
	"strings"

	"climber"
	"climber/internal/api"
	"climber/internal/series"
)

// The counter rows of climber-serve, each declared once. GET /stats lists
// them reads, writes, outcomes; GET /metrics puts the write-path rows with
// the ingestion gauges (see Meters). The front moves every row but
// budget_exhausted, which Search and Batch move.
var (
	reads = []api.Row{
		{Key: "searches", Metric: "climber_search_requests_total", Help: "Answered /search requests."},
		{Key: "batches", Metric: "climber_batch_requests_total", Help: "Answered /search/batch requests."},
		{Key: "batch_queries", Metric: "climber_batch_queries_total", Help: "Queries inside answered batches."},
		{Key: "prefix_searches", Metric: "climber_prefix_requests_total", Help: "Answered /search/prefix requests."},
	}
	writes = []api.Row{
		{Key: "appends", Metric: "climber_append_requests_total", Help: "Answered /append requests."},
		{Key: "append_series", Metric: "climber_append_series_total", Help: "Series inside successful appends."},
		{Key: "flushes", Metric: "climber_flush_requests_total", Help: "Answered /flush requests."},
		{Key: "reindexes", Metric: "climber_reindex_requests_total", Help: "Answered /reindex requests."},
		{Key: "backups", Metric: "climber_backup_requests_total", Help: "Answered /backup requests."},
	}
	outcomes = []api.Row{
		{Key: "bad_requests", Metric: "climber_bad_requests_total", Help: "Requests rejected with 400."},
		{Key: "framed_requests", Metric: "climber_framed_requests_total", Help: "Query and append requests that arrived as binary frames (the router hop) rather than JSON."},
		{Key: "rejected", Metric: "climber_rejected_total", Help: "Requests rejected with 429 by admission control."},
		{Key: "canceled", Metric: "climber_canceled_total", Help: "Queries aborted by client disconnect."},
		{Key: "errors", Metric: "climber_query_errors_total", Help: "Queries that failed internally."},
		{Key: "budget_exhausted", Metric: "climber_budget_exhausted_total", Help: "Queries answered partially because their time/partition budget ran out."},
		{Key: "in_flight", Metric: "climber_inflight_queries", Help: "Queries currently holding an admission slot.", Gauge: true},
		{Key: "queued", Metric: "climber_queued_requests", Help: "Requests currently waiting for an admission slot.", Gauge: true},
		{Key: "traced_queries", Metric: "climber_traced_queries_total", Help: "Queries that ran with tracing attached (explain, sampled, or propagated).", MetricOnly: true},
		{Key: "unended_spans", Metric: "climber_unended_spans_total", Help: "Spans traced queries opened and did not end; anything but 0 is a code path that skips a span's End.", MetricOnly: true},
		{Key: "slow_log_entries", Metric: "climber_slow_log_entries_total", Help: "Requests recorded in the slow-query log (threshold or sampled).", MetricOnly: true},
	}
)

func (b *backend) Meters() api.Meters {
	return api.Meters{
		Section:  "server",
		Counters: b.c,
		Metrics: []api.Block{
			{Own: b.identityMetrics}, {Rows: reads}, {Rows: outcomes}, {Hists: true},
			{Own: b.cacheMetrics}, {Rows: writes}, {Own: b.ingestMetrics},
		},
		Query:  api.Row{Metric: "climber_query_latency_seconds", Help: "End-to-end query latency, every outcome included (200s, 400s, 429s)."},
		Append: api.Row{Metric: "climber_append_latency_seconds", Help: "End-to-end append latency (admission to durable ack)."},
		Stage:  api.Row{Metric: "climber_stage_latency_seconds", Help: "Per-pipeline-stage latency of traced queries."},
		// The pipeline stages of one traced query, in execution order: the
		// direct children of a query's root span (see internal/core).
		Stages: []string{"plan", "scan", "widen"},
	}
}

func (b *backend) identityMetrics(_ context.Context, w *strings.Builder) {
	fmt.Fprintf(w, "# HELP climber_build_info Build and index-granularity identity; constant 1.\n")
	fmt.Fprintf(w, "# TYPE climber_build_info gauge\n")
	fmt.Fprintf(w, "climber_build_info{%s} 1\n", b.buildInfo)
	fmt.Fprintf(w, "# HELP climber_scan_kernel_info Float32 scan kernel implementation this process selected at start-up; constant 1.\n")
	fmt.Fprintf(w, "# TYPE climber_scan_kernel_info gauge\n")
	fmt.Fprintf(w, "climber_scan_kernel_info{impl=%q} 1\n", series.KernelName())
}

// cacheMetrics renders the DB's partition-cache counters.
func (b *backend) cacheMetrics(_ context.Context, w *strings.Builder) {
	cache := b.db.CacheStats()
	api.WriteSample(w, "climber_partition_cache_hits_total", "Partition opens served by the file's existing mapping: every open of a file after its first.", "counter", cache.Hits)
	api.WriteSample(w, "climber_partition_cache_misses_total", "Partition opens that loaded from disk.", "counter", cache.Misses)
	api.WriteSample(w, "climber_partition_cache_evictions_total", "Always 0: a mapped partition file stays mapped until a writer replaces it or the DB closes.", "counter", cache.Evictions)
	api.WriteSample(w, "climber_partition_cache_bytes_saved_total", "Partition-file bytes the cache avoided re-reading.", "counter", cache.BytesSaved)
	api.WriteSample(w, "climber_partitions_loaded_total", "Real partition disk loads.", "counter", cache.PartitionsLoaded)
	api.WriteSample(w, "climber_partition_cache_resident_bytes", "Bytes of partition files currently memory-mapped; equal to climber_partition_cache_mapped_bytes.", "gauge", cache.ResidentBytes)
	api.WriteSample(w, "climber_partition_cache_mapped_bytes", "Subset of resident bytes served by read-only memory mappings.", "gauge", cache.MappedBytes)
	api.WriteSample(w, "climber_partition_map_fallbacks_total", "Partition loads that could not memory-map the file and copied it onto the heap instead.", "counter", cache.MapFallbacks)
	fmt.Fprintf(w, "# HELP climber_partition_load_buffers_total Partition-sized buffers issued to heap loads and compaction merges, by whether the recycled pool had one.\n")
	fmt.Fprintf(w, "# TYPE climber_partition_load_buffers_total counter\n")
	fmt.Fprintf(w, "climber_partition_load_buffers_total{source=\"reused\"} %d\n", cache.LoadBuffersReused)
	fmt.Fprintf(w, "climber_partition_load_buffers_total{source=\"fresh\"} %d\n", cache.LoadBuffersFresh)
	api.WriteSample(w, "climber_partition_buffer_idle_bytes", "Capacity the recycled partition-buffer pool holds idle.", "gauge", cache.BufferIdleBytes)
	api.WriteSample(w, "climber_scan_pruned_records_total", "Records partition scans skipped by their summary lower bound alone, without computing a distance.", "counter", cache.ScanPrunedRecords)
}

// ingestMetrics renders the DB's ingestion-pipeline counters.
func (b *backend) ingestMetrics(_ context.Context, w *strings.Builder) {
	ing := b.db.IngestStats()
	api.WriteSample(w, "climber_ingest_appended_series_total", "Series acked by the ingestion pipeline.", "counter", ing.AppendedSeries)
	api.WriteSample(w, "climber_ingest_replayed_series_total", "WAL entries replayed into the delta at open.", "counter", ing.ReplayedSeries)
	api.WriteSample(w, "climber_compactions_total", "Completed delta-to-partition compactions.", "counter", ing.Compactions)
	api.WriteSample(w, "climber_compacted_series_total", "Series moved from the delta into partition files.", "counter", ing.CompactedSeries)
	api.WriteSample(w, "climber_compact_errors_total", "Failed background compaction attempts.", "counter", ing.CompactErrors)
	api.WriteSample(w, "climber_compaction_bytes_written_total", "Partition-file bytes completed compactions rewrote.", "counter", ing.CompactBytesWritten)
	api.WriteSample(w, "climber_compaction_tail_bytes_written_total", "Bytes of partition tail files written: a compaction rewrites the small tail beside each partition base it touches.", "counter", ing.TailBytesWritten)
	api.WriteSample(w, "climber_compaction_fold_bytes_written_total", "Bytes of partition base files written by folds.", "counter", ing.FoldBytesWritten)
	api.WriteSample(w, "climber_folds_total", "Partition bases rewritten to take in their tail (the tail reached an eighth of the base, or a backup or reindex began).", "counter", ing.Folds)
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
	api.WriteSample(w, "climber_wal_bytes", "Current write-ahead-log size in bytes.", "gauge", ing.WALBytes)
	api.WriteSample(w, "climber_delta_records", "Acked records resident in the in-memory delta index.", "gauge", int64(ing.DeltaRecords))
	api.WriteSample(w, "climber_delta_bytes", "Storage-equivalent bytes resident in the delta index.", "gauge", ing.DeltaBytes)
	api.WriteSample(w, "climber_tail_files", "Partitions that currently have a tail file.", "gauge", int64(ing.TailFiles))
	api.WriteSample(w, "climber_tail_records", "Records held in partition tail files.", "gauge", int64(ing.TailRecords))
	api.WriteSample(w, "climber_tail_bytes", "Size of the partition tail files on disk.", "gauge", ing.TailBytes)
}
