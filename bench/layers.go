package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/core"
	"climber/internal/ingest"
	"climber/internal/pcache"
	"climber/internal/series"
	"climber/internal/storage"
)

// layerInputs is what the per-layer report draws on: the phases of the
// run (sources T, R, P, C) and the stopped deployment's directories for
// the in-process pass (source L).
type layerInputs struct {
	cfg       runConfig
	dep       *deployment
	in        *inputs
	ph        *phases
	rec       recallResult
	crash     crashResult
	build     buildResult
	peakRSSKB int64
	records   int
}

// layerMetrics fills rep with every per-layer metric. A metric whose layer
// is not on the workload's path (shard.* without a router, ingest.*
// without appends) is reported as 0, because the contract wants every
// declared metric on every workload.
func layerMetrics(rep *report, l layerInputs) error {
	w, ph := l.cfg.w, l.ph
	closed, traced, paced := ph.closed, ph.traced, ph.paced

	// client (C): what the load generator saw.
	pl := toMS(paced.latencies(opSearch))
	rep.set("client.paced_p50_ms", quantile(pl, 0.50), len(pl))
	rep.set("client.paced_p95_ms", quantile(pl, 0.95), len(pl))
	rep.set("client.paced_p99_ms", quantile(pl, 0.99), len(pl))
	over, late := 0, 0
	for _, s := range paced.samples {
		if s.failed || (s.kind == opSearch && float64(s.latency)/1e6 > w.pacedLimitMS) {
			over++
		}
		if s.late > time.Millisecond {
			late++
		}
	}
	rep.set("client.paced_over_limit_share", ratio(float64(over), float64(len(paced.samples))), len(paced.samples))
	rep.set("client.late_share", ratio(float64(late), float64(len(paced.samples))), len(paced.samples))
	cl := toMS(closed.latencies(opSearch))
	rep.set("client.closed_qps", ratio(float64(closed.queries()), closed.elapsed.Seconds()), closed.queries())
	rep.set("client.closed_p95_ms", quantile(cl, 0.95), len(cl))
	rep.set("client.closed_p99_ms", quantile(cl, 0.99), len(cl))
	for _, k := range []opKind{opSearch, opPrefix, opBatch} {
		ms := toMS(closed.latencies(k))
		rep.set("client."+k.String()+"_p50_ms", median(ms), len(ms))
	}
	rep.set("client.recall_member", l.rec.member, truthSize/2)
	rep.set("client.recall_heldout", l.rec.heldOut, truthSize/2)
	rep.set("client.self_hit_share", l.rec.selfHit, truthSize/2)

	// shard, server, core, obs (T): the traced phase's span trees.
	ts := analyzeTraces(traced.traced)
	rep.Spans = summarizeSpans(traced.traced)
	rep.set("shard.router_self_us", median(ts.routerSelf), len(ts.routerSelf))
	rep.set("shard.slowest_shard_us", median(ts.slowestShard), len(ts.slowestShard))
	rep.set("shard.skew_ratio", median(ts.skew), len(ts.skew))
	rep.set("shard.hop_overhead_us", median(ts.hopOverhead), len(ts.hopOverhead))
	rep.set("server.http_overhead_us", median(ts.httpOverhead), len(ts.httpOverhead))
	for _, st := range coreStages {
		rep.set("core."+st+"_us", median(ts.stage[st]), len(ts.stage[st]))
	}
	tl := toMS(traced.latencies(opSearch))
	rep.set("obs.tracing_overhead_share", ratio(median(tl), median(cl))-1, len(tl))

	// server, core, pcache, ingest (R, P): counters around the untraced
	// closed phase.
	queries := float64(closed.queries())
	answers := float64(closed.searchAnswers)
	var d struct {
		rejected, hits, misses, evictions, loads, resident int64
		cpu                                                time.Duration
		wchar                                              int64
	}
	for i := range ph.after.stats {
		a, b := ph.after.stats[i], ph.before.stats[i]
		d.rejected += a.Server.Rejected - b.Server.Rejected
		d.hits += a.Cache.Hits - b.Cache.Hits
		d.misses += a.Cache.Misses - b.Cache.Misses
		d.evictions += a.Cache.Evictions - b.Cache.Evictions
		d.loads += a.Cache.PartitionsLoaded - b.Cache.PartitionsLoaded
		d.resident += a.Cache.ResidentBytes
	}
	for i := range ph.after.procs {
		d.cpu += ph.after.procs[i].cpu - ph.before.procs[i].cpu
		d.wchar += ph.after.procs[i].wchar - ph.before.procs[i].wchar
	}
	rep.set("server.rejected_share", ratio(float64(d.rejected), float64(len(closed.samples))), len(closed.samples))
	rep.set("server.cpu_ms_per_query", ratio(float64(d.cpu)/1e6, queries), int(queries))
	rep.set("server.peak_rss_mb", float64(l.peakRSSKB)/1024, len(l.dep.dirs))
	rep.set("core.records_per_result", ratio(float64(closed.stats.RecordsScanned), float64(closed.results)), int(answers))
	rep.set("core.partitions_per_query", ratio(float64(closed.stats.PartitionsScanned), answers), int(answers))
	rep.set("core.groups_per_query", ratio(float64(closed.stats.GroupsConsidered), answers), int(answers))
	rep.set("core.partial_share", ratio(float64(closed.partial), answers), int(answers))
	rep.set("pcache.hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)), int(d.hits+d.misses))
	rep.set("pcache.loads_per_query", ratio(float64(d.loads), queries), int(queries))
	rep.set("pcache.evictions_per_kquery", 1000*ratio(float64(d.evictions), queries), int(queries))
	rep.set("pcache.resident_mb", float64(d.resident)/1e6, len(ph.after.stats))

	// ingest (C, R, P): the write side of the closed phase and the crash.
	al := toMS(closed.latencies(opAppend))
	ap50 := median(al)
	stalls := 0
	for _, v := range al {
		if v > 10*ap50 {
			stalls++
		}
	}
	appended := float64(len(al) * batchSize)
	rep.set("ingest.append_p50_ms", ap50, len(al))
	rep.set("ingest.append_p95_ms", quantile(al, 0.95), len(al))
	rep.set("ingest.append_series_per_s", ratio(appended, closed.elapsed.Seconds()), len(al))
	rep.set("ingest.stall_share", ratio(float64(stalls), float64(len(al))), len(al))
	rep.set("ingest.delta_scanned_per_query", ratio(float64(closed.stats.DeltaScanned), answers), int(answers))
	userBytes := appended * float64(l.in.base.Length()) * 4
	if len(al) == 0 {
		d.wchar = 0 // a read-only workload's log lines are not write amplification
	}
	rep.set("ingest.write_bytes_per_user_byte", ratio(float64(d.wchar), userBytes), len(al))
	rep.set("ingest.compactions", float64(l.crash.compactions), 1)
	rep.set("ingest.replay_ms", float64(l.crash.replay)/1e6, 1)
	rep.set("ingest.self_miss_share", l.crash.selfMiss, l.crash.selfChecked)

	// build: the phase split climber.BuildDataset reports.
	rep.set("build.total_s", l.build.total.Seconds(), buildRepeats)
	rep.set("build.skeleton_s", l.build.stats.Skeleton.Seconds(), len(l.dep.dirs))
	rep.set("build.conversion_s", l.build.stats.Conversion.Seconds(), len(l.dep.dirs))
	rep.set("build.redistribution_s", l.build.stats.Redistribution.Seconds(), len(l.dep.dirs))
	rep.set("build.series_per_s", ratio(float64(l.in.base.Len()), l.build.total.Seconds()), l.in.base.Len())
	rep.set("build.skeleton_bytes", float64(l.build.skeletonBytes), len(l.dep.dirs))

	return inProcessLayers(rep, l)
}

// perOp times fn: rounds rounds of iters calls each, returning the median
// round's time per call. Fixed counts, one goroutine.
func perOp(iters, rounds int, fn func()) time.Duration {
	per := make([]float64, rounds)
	for r := range per {
		begin := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[r] = float64(time.Since(begin)) / float64(iters)
	}
	return time.Duration(median(per))
}

// sink keeps measured calls' results alive so the compiler cannot drop
// the calls.
var sink float64

// inProcessLayers is source L: with the servers stopped, the bench opens
// the same directory with the same cache/mmap options and times the
// layers' public functions directly.
func inProcessLayers(rep *report, l layerInputs) error {
	w, in := l.cfg.w, l.in
	ctx := context.Background()
	dir := l.dep.dirs[0] // behind a router every shard is the same shape; shard 0 stands for them
	seriesLen := in.base.Length()

	// db: the root package's query entry points.
	begin := time.Now()
	opts := []climber.Option{climber.WithPartitionCacheBytes(w.cacheBytes), climber.WithMmap(w.mmap)}
	if w.compactRecords > 0 {
		// Parked: the layer pass times DB.Flush itself.
		opts = append(opts, climber.WithCompactionRecords(1<<30), climber.WithCompactionAge(time.Hour))
	}
	db, err := climber.Open(dir, opts...)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	defer db.Close()
	rep.set("db.open_ms", float64(time.Since(begin))/1e6, 1)
	variant, err := api.ParseVariant(w.variant)
	if err != nil {
		return err
	}
	vopt := climber.WithVariant(variant)
	const dbQueries = 128
	var searchUS, prefixUS, batchUS []float64
	var lastResults []climber.Result
	var lastStats climber.Stats
	for pass := 0; pass < 2; pass++ { // pass 0 warms the cache and is discarded
		searchUS, prefixUS, batchUS = searchUS[:0], prefixUS[:0], batchUS[:0]
		for i := 0; i < dbQueries; i++ {
			q := in.pool[(i*13)%len(in.pool)]
			t := time.Now()
			rs, st, err := db.SearchWithStatsContext(ctx, q, topK, vopt)
			if err != nil {
				return fmt.Errorf("layer pass: search: %w", err)
			}
			searchUS = append(searchUS, float64(time.Since(t))/1e3)
			lastResults, lastStats = rs, st
		}
		for i := 0; i < dbQueries/2; i++ {
			q := in.pool[(i*13)%len(in.pool)][:min(prefixLen, seriesLen)]
			t := time.Now()
			if _, _, err := db.SearchPrefixWithStatsContext(ctx, q, topK, vopt); err != nil {
				return fmt.Errorf("layer pass: prefix: %w", err)
			}
			prefixUS = append(prefixUS, float64(time.Since(t))/1e3)
		}
		for b := 0; b < dbQueries/2/batchSize; b++ {
			qs := make([][]float64, batchSize)
			for i := range qs {
				qs[i] = in.pool[((b*batchSize+i)*13)%len(in.pool)]
			}
			t := time.Now()
			if _, _, err := db.SearchBatchWithStatsContextWorkers(ctx, qs, topK, 1, vopt); err != nil {
				return fmt.Errorf("layer pass: batch: %w", err)
			}
			batchUS = append(batchUS, float64(time.Since(t))/1e3/batchSize)
		}
	}
	rep.set("db.search_us", median(searchUS), len(searchUS))
	rep.set("db.prefix_us", median(prefixUS), len(prefixUS))
	rep.set("db.batch_us_per_query", median(batchUS), len(batchUS)*batchSize)

	// api: the wire contract's decode and encode on real bodies.
	body := searchBody(in.poolJSON[0], w.variant, false)
	rep.set("api.decode_search_us", float64(perOp(200, 5, func() {
		if _, err := api.DecodeSearchRequest(body, seriesLen, 10000); err != nil {
			panic(err) // the same body was accepted over HTTP
		}
	}))/1e3, 1000)
	abody := listBody("series", in.poolJSON[:batchSize], "}")
	rep.set("api.decode_append_us", float64(perOp(50, 5, func() {
		if _, err := api.DecodeAppendRequest(abody, seriesLen, 1024); err != nil {
			panic(err) // pool series have the indexed length
		}
	}))/1e3, 250)
	resp := api.SearchResponse{Stats: lastStats}
	for _, r := range lastResults {
		resp.Results = append(resp.Results, api.Result{ID: r.ID, Dist: r.Dist})
	}
	rep.set("api.encode_response_us", float64(perOp(200, 5, func() {
		api.WriteJSON(httptest.NewRecorder(), http.StatusOK, resp)
	}))/1e3, 1000)

	// storage, pcache, series: one real partition of this workload, the
	// fullest one.
	parts := db.Index().Partitions()
	pid := 0
	for i, c := range parts.Counts {
		if c > parts.Counts[pid] {
			pid = i
		}
	}
	if err := storageLayers(rep, parts.Paths[pid], in.truthQ[0], w.mmap); err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	if w.appendEvery > 0 {
		return ingestLayers(rep, l, db)
	}
	for _, name := range []string{"ingest.wal_append_us", "ingest.delta_add_ns_per_record",
		"ingest.delta_scan_ns_per_record", "ingest.compact_ms"} {
		rep.set(name, 0, 0)
	}
	return nil
}

// scanRaw is the executor's inner loop rebuilt from public calls: stream
// every cluster's raw float32 records through the early-abandon kernel
// into a top-k heap.
func scanRaw(p *storage.Partition, ids []storage.ClusterID, q32 []float32) (*series.TopK, error) {
	tk := series.NewTopK(topK)
	err := p.ScanClustersRaw(ids, func(id int, rec []byte) error {
		bound, full := tk.Bound()
		if !full {
			bound = math.Inf(1)
		}
		if d := series.SqDistEarlyAbandon32Blocked(q32, rec, bound); d < bound {
			tk.Push(id, d)
		}
		return nil
	})
	return tk, err
}

func storageLayers(rep *report, path string, q []float64, mmap bool) error {
	q32 := series.ToFloat32(q)
	clusterIDs := func(p *storage.Partition) []storage.ClusterID {
		ids := make([]storage.ClusterID, len(p.Clusters()))
		for i, c := range p.Clusters() {
			ids[i] = c.ID
		}
		return ids
	}

	// The three backings, each timed from open to the end of a first full
	// scan (a decoded load has paid everything at open).
	const loads = 5
	var decoded, mapped, readerAt []float64
	var records int
	var fileBytes int64
	var heapBytes uint64
	for i := 0; i < loads; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		p, err := storage.LoadPartition(path)
		if err != nil {
			return err
		}
		decoded = append(decoded, float64(time.Since(t)))
		runtime.ReadMemStats(&after)
		heapBytes = after.TotalAlloc - before.TotalAlloc
		records, fileBytes = p.Count(), p.SizeBytes()
		if err := p.Release(); err != nil {
			return err
		}

		if storage.MapSupported() {
			t = time.Now()
			p, err = storage.MapPartition(path)
			if err != nil {
				return err
			}
			if _, err := scanRaw(p, clusterIDs(p), q32); err != nil {
				return err
			}
			mapped = append(mapped, float64(time.Since(t)))
			if err := p.Release(); err != nil {
				return err
			}
		}

		t = time.Now()
		p, err = storage.OpenPartition(path)
		if err != nil {
			return err
		}
		if err := p.ScanAll(offer64(series.NewTopK(topK), q)); err != nil {
			return err
		}
		readerAt = append(readerAt, float64(time.Since(t)))
		if err := p.Close(); err != nil {
			return err
		}
	}
	n := float64(records)
	rep.set("storage.load_decoded_ns_per_record", median(decoded)/n, records)
	rep.set("storage.load_mapped_ns_per_record", median(mapped)/n, records)
	rep.set("storage.load_readerat_ns_per_record", median(readerAt)/n, records)
	rep.set("storage.heap_bytes_per_record", float64(heapBytes)/n, records)
	rep.set("storage.disk_bytes_per_record", float64(fileBytes)/n, records)

	// Warm scan over the workload's own resident backing.
	load := storage.LoadPartition
	if mmap && storage.MapSupported() {
		load = storage.MapPartition
	}
	p, err := load(path)
	if err != nil {
		return err
	}
	defer p.Release()
	ids := clusterIDs(p)
	exact, err := scanRaw(p, ids, q32)
	if err != nil {
		return err
	}
	rep.set("storage.scan_raw_ns_per_record", float64(perOp(1, 15, func() {
		tk, err := scanRaw(p, ids, q32)
		if err != nil {
			panic(err) // the same scan just succeeded
		}
		sink += float64(tk.Len())
	}))/n, records)

	// pcache: a hit on a resident key, a miss with the real loader.
	var hits, misses, evictions, saved atomic.Int64
	cache := pcache.New(1<<30, pcache.Counters{Hits: &hits, Misses: &misses, Evictions: &evictions, BytesSaved: &saved})
	defer cache.Purge()
	loader := func() (*storage.Partition, error) { return load(path) }
	get := func() {
		cp, _, err := cache.Get(path, loader)
		if err != nil {
			panic(err) // the same file just loaded
		}
		if err := cp.Release(); err != nil {
			panic(err)
		}
	}
	rep.set("pcache.get_miss_us", float64(perOp(1, 9, func() {
		cache.Invalidate(path)
		get()
	}))/1e3, 9)
	rep.set("pcache.get_hit_ns", float64(perOp(20000, 5, get)), 100000)

	// series: the distance kernels over the same real record bytes, early
	// abandon bounded by the true k-th distance.
	const kernelRecords = 4096
	var raw [][]byte
	var vals [][]float64
	err = p.ScanClustersRaw(ids, func(_ int, rec []byte) error {
		if len(raw) < kernelRecords {
			raw = append(raw, append([]byte(nil), rec...))
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = p.ScanClusters(ids, func(_ int, v []float64) error {
		if len(vals) < kernelRecords {
			vals = append(vals, append([]float64(nil), v...))
		}
		return nil
	})
	if err != nil {
		return err
	}
	kth, _ := exact.Bound()
	elems := float64(len(raw) * len(q))
	kernel := func(name string, fn func()) {
		rep.set(name, float64(perOp(1, 15, fn))/elems, len(raw))
	}
	kernel("series.sqdist32_ns_per_elem", func() {
		for _, r := range raw {
			sink += series.SqDist32Blocked(q32, r)
		}
	})
	kernel("series.sqdist32_ea_ns_per_elem", func() {
		for _, r := range raw {
			sink += series.SqDistEarlyAbandon32Blocked(q32, r, kth)
		}
	})
	kernel("series.sqdist64_ns_per_elem", func() {
		for _, v := range vals {
			sink += series.SqDistBlocked(q, v)
		}
	})
	kernel("series.sqdist64_ea_ns_per_elem", func() {
		for _, v := range vals {
			sink += series.SqDistEarlyAbandonBlocked(q, v, kth)
		}
	})
	dists := make([]float64, len(raw))
	for i, r := range raw {
		dists[i] = series.SqDist32Blocked(q32, r)
	}
	// Descending distances make every push an admission: the heap's
	// worst case, which is what a scan pays until its bound tightens.
	sort.Sort(sort.Reverse(sort.Float64Slice(dists)))
	rep.set("series.topk_push_ns", float64(perOp(1, 15, func() {
		tk := series.NewTopK(topK)
		for i, d := range dists {
			tk.Push(i, d)
		}
		sink += float64(tk.Len())
	}))/float64(len(dists)), len(dists))
	return nil
}

// ingestLayers times the write path's pieces on the reopened database:
// the log, the delta index, and one compaction of 2 048 records.
func ingestLayers(rep *report, l layerInputs, db *climber.DB) error {
	in := l.in
	seriesLen := in.base.Length()
	const deltaRecords = 2048

	wal, _, err := ingest.OpenWAL(filepath.Join(filepath.Dir(l.dep.dirs[0]), "layer.wal"), seriesLen)
	if err != nil {
		return err
	}
	next := 0
	entries := make([]ingest.Entry, batchSize)
	walUS := float64(perOp(1, 31, func() {
		for i := range entries {
			entries[i] = ingest.Entry{ID: next, Values: in.appends.Get(next % in.appends.Len())}
			next++
		}
		if err := wal.Append(entries); err != nil {
			panic(err) // a fresh log in the run's own directory
		}
	})) / 1e3
	if err := wal.Close(); err != nil {
		return err
	}
	rep.set("ingest.wal_append_us", walUS, 31)

	ix := db.Index()
	recs := make([]core.Routed, deltaRecords)
	for i := range recs {
		v := in.appends.Get(i)
		recs[i] = core.Routed{ID: l.records + i, Route: ix.RouteNew(l.records+i, v), Values: v}
	}
	var delta *ingest.MemDelta
	rep.set("ingest.delta_add_ns_per_record", float64(perOp(1, 15, func() {
		delta = ingest.NewMemDelta()
		delta.Add(recs)
	}))/deltaRecords, deltaRecords)
	pids := map[int]struct{}{}
	for _, r := range recs {
		pids[r.Route.Partition] = struct{}{}
	}
	q := in.truthQ[0]
	rep.set("ingest.delta_scan_ns_per_record", float64(perOp(1, 15, func() {
		tk := series.NewTopK(topK)
		for pid := range pids {
			if err := delta.ScanPartition(pid, nil, offer64(tk, q)); err != nil {
				panic(err) // the callback never fails
			}
		}
		sink += float64(tk.Len())
	}))/deltaRecords, deltaRecords)

	data := make([][]float64, deltaRecords)
	for i := range data {
		data[i] = in.appends.Get(i)
	}
	if _, err := db.Append(data); err != nil {
		return err
	}
	begin := time.Now()
	if err := db.Flush(); err != nil {
		return err
	}
	rep.set("ingest.compact_ms", float64(time.Since(begin))/1e6, deltaRecords)
	return nil
}
