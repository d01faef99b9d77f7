// Package server exposes an opened climber.DB as a concurrent HTTP JSON
// query service — the serving layer the paper's production framing assumes
// (pivot-based search as a service-side component, judged under sustained
// concurrent workloads).
//
// Endpoints:
//
//	POST /search        one kNN query   {"query": [...], "k": 10, ...}
//	POST /search/batch  many queries    {"queries": [[...], ...], "k": 10, ...}
//	POST /search/prefix one query shorter than the indexed length
//	POST /append        ingest series   {"series": [[...], ...]}
//	POST /flush         force compaction of acked writes into partitions
//	POST /reindex       rebuild the index online; queries keep serving
//	POST /backup        hard-link a consistent snapshot {"dir": "name"}
//	GET  /info          database shape (series length, groups, partitions)
//	GET  /stats         server + cache + ingestion counters, JSON
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text exposition
//
// The request/response types and the serving primitives (admission limiter,
// latency histogram, request Observer) live in internal/api, shared with the
// shard router (internal/shard) that scatter-gathers over several of these
// servers.
//
// Admission control bounds the number of in-flight queries AND writes: a
// request beyond MaxInFlight waits for a slot up to QueueTimeout and is
// answered 429 when none frees up. The request context is threaded through
// the whole core search path, so a client that disconnects mid-query stops
// the partition scans it triggered instead of burning disk and CPU to
// compute an answer nobody will read. An append whose response was never
// read is still durable — once its WAL fsync starts, the write lands.
//
// Anytime queries: a search request carrying time_budget_ms and/or
// max_partitions runs under the core engine's budget contract — the query
// stops at a plan-step boundary when the budget is spent and answers 200
// with its best partial result, marked by the partial and steps_executed
// response fields (and counted by climber_budget_exhausted_total). A time
// budget additionally arms a hard per-request deadline at a small multiple
// of the budget, so a budgeted request can never hold its admission slot
// unboundedly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/obs"
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when the client disconnected before its answer was ready. The
// client never sees it; it keeps access logs and metrics honest.
const StatusClientClosedRequest = api.StatusClientClosedRequest

// Config tunes the service. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// ServeConfig holds the admission, request-limit and slow-log settings
	// shared with the shard router.
	api.ServeConfig
	// BackupRoot is the directory under which POST /backup creates its
	// snapshots. Empty disables the endpoint (403): backups write to the
	// server's filesystem, so the operator must opt in to a location.
	BackupRoot string
}

// Server answers CLIMBER queries over HTTP on behalf of one DB. Create it
// with New and mount Handler on an http.Server.
type Server struct {
	db        *climber.DB
	cfg       Config
	seriesLen int
	minPrefix int // shortest admissible /search/prefix query (PAA segments)
	lim       *api.Limiter
	m         metrics
	started   time.Time
	observe   api.Observer // shared request-observation pipeline (trace arming, histograms, slow log)
	buildInfo string       // rendered label set of the climber_build_info gauge

	// Test seams: hookAdmitted runs after a query request is admitted
	// (holding its slot) and before the search starts; hookSearchDone
	// receives the search error verbatim, before it is mapped to a status.
	hookAdmitted   func(ctx context.Context)
	hookSearchDone func(err error)
}

// New wraps db in a Server. The db must stay open for the server's
// lifetime; the caller closes it after shutting the HTTP server down.
func New(db *climber.DB, cfg Config) *Server {
	cfg.ServeConfig = cfg.ServeConfig.WithDefaults()
	s := &Server{
		db:        db,
		cfg:       cfg,
		seriesLen: db.Info().SeriesLen,
		minPrefix: db.Index().Skeleton().Cfg.Segments,
		started:   time.Now(),
	}
	s.lim = api.NewLimiter(s.cfg.MaxInFlight, s.cfg.QueueTimeout, api.LimiterCounters{
		Queued:   &s.m.queued,
		Rejected: &s.m.rejected,
		Canceled: &s.m.canceled,
		InFlight: &s.m.inflight,
	})
	s.m.latency = api.NewHistogram()
	s.m.appendLat = api.NewHistogram()
	s.m.stageLat = make(map[string]*api.Histogram, len(stageNames))
	for _, st := range stageNames {
		s.m.stageLat[st] = api.NewHistogram()
	}
	s.observe = api.Observer{
		Slow:     obs.NewSlowLog(s.cfg.SlowLogSize, s.cfg.SlowThreshold, s.cfg.SlowSample, s.cfg.Logger),
		StageLat: s.m.stageLat,
		Traced:   &s.m.traced,
	}
	cfg0 := db.Index().Skeleton().Cfg
	s.buildInfo = fmt.Sprintf("version=%q,series_len=\"%d\",segments=\"%d\",prefix_len=\"%d\"",
		climber.Version, s.seriesLen, cfg0.Segments, cfg0.PrefixLen)
	return s
}

// SlowLog exposes the server's slow-query ring so cmd/climber-serve can
// mount it on the -debug-addr diagnostics listener too.
func (s *Server) SlowLog() *obs.SlowLog { return s.observe.Slow }

// Handler returns the service's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /search", s.observe.Instrument("/search", &s.m.searches, s.m.latency, s.handleSearch))
	mux.Handle("POST /search/batch", s.observe.Instrument("/search/batch", &s.m.batches, s.m.latency, s.handleBatch))
	mux.Handle("POST /search/prefix", s.observe.Instrument("/search/prefix", &s.m.prefixes, s.m.latency, s.handlePrefix))
	mux.Handle("POST /append", s.observe.Instrument("/append", &s.m.appends, s.m.appendLat, s.handleAppend))
	mux.HandleFunc("POST /flush", s.handleFlush)
	mux.HandleFunc("POST /reindex", s.handleReindex)
	mux.HandleFunc("POST /backup", s.handleBackup)
	mux.HandleFunc("GET /info", s.handleInfo)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/slow", s.observe.Slow.Handler())
	return mux
}

// admit acquires an in-flight slot, waiting up to QueueTimeout. It returns
// the release function, or the HTTP status that denied admission.
func (s *Server) admit(ctx context.Context) (release func(), status int, err error) {
	return s.lim.Admit(ctx)
}

// readBody slurps the request body under the configured size cap and read
// deadline via the shared api.ReadBody, counting failures as bad requests.
// The caller releases the buffer once the body is decoded.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*api.Buffer, bool) {
	body, status, err := api.ReadBody(w, r, s.cfg.MaxBodyBytes, s.cfg.BodyReadTimeout)
	if err != nil {
		s.m.badRequests.Add(1)
		api.WriteError(w, status, err)
		return nil, false
	}
	return body, true
}

// spellingOf reads the request's spelling off its Content-Type, counting
// framed requests. A frame passes the same admission, body cap, deadline
// and limits as JSON and is answered in kind; errors stay JSON.
func (s *Server) spellingOf(r *http.Request) api.Spelling {
	sp := api.SpellingOf(r.Header)
	if sp == api.Frame {
		s.m.framed.Add(1)
	}
	return sp
}

// finishQuery maps a search error to its response status, maintaining the
// outcome counters. It reports whether the query succeeded.
func (s *Server) finishQuery(w http.ResponseWriter, err error) bool {
	if s.hookSearchDone != nil {
		s.hookSearchDone(err)
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, context.Canceled):
		s.m.canceled.Add(1)
		api.WriteError(w, StatusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.errors.Add(1)
		api.WriteError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, climber.ErrClosed):
		s.m.errors.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, err)
	default:
		s.m.errors.Add(1)
		api.WriteError(w, http.StatusInternalServerError, err)
	}
	return false
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, false)
}

// handlePrefix answers a query shorter than the indexed series length —
// candidates are ranked over the first len(query) readings of each record
// (see climber.Request.Prefix).
func (s *Server) handlePrefix(w http.ResponseWriter, r *http.Request) {
	s.handleQuery(w, r, true)
}

// handleQuery is the admit-decode-query-respond path of /search and
// /search/prefix, which differ only in the query lengths the body may
// carry and the trace name.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, prefix bool) {
	// Admission comes first: reading and decoding a body is itself heap-
	// and CPU-expensive work an overloaded server must not do unbounded.
	release, status, err := s.admit(r.Context())
	if err != nil {
		api.WriteError(w, status, err)
		return
	}
	defer release()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sp := s.spellingOf(r)
	var req *api.SearchRequest
	name := "search"
	if prefix {
		name = "prefix"
		req, err = sp.DecodePrefix(body.B, s.minPrefix, s.seriesLen, s.cfg.MaxK)
	} else {
		req, err = sp.DecodeSearch(body.B, s.seriesLen, s.cfg.MaxK)
	}
	body.Release()
	if err != nil {
		s.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if s.hookAdmitted != nil {
		s.hookAdmitted(r.Context())
	}
	tctx, tr := s.observe.TraceFor(r.Context(), name, req.Explain)
	ctx, cancel := s.budgetContext(tctx, req.TimeBudgetMS)
	defer cancel()

	q := api.EngineRequest(req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS)
	q.Query, q.Prefix, q.Explain = req.Query, prefix, req.Explain
	ans, err := s.db.Query(ctx, q)
	trace := api.FinishTrace(r.Context(), tr, ans.Stats)
	if !s.finishQuery(w, err) {
		return
	}
	if ans.Stats.Partial {
		s.m.budgetExh.Add(1)
	}
	resp := SearchResponse{
		Results: ans.Results, Stats: ans.Stats,
		Partial: ans.Stats.Partial, StepsExecuted: ans.Stats.StepsExecuted,
	}
	if req.Explain {
		resp.Explain = map[string]*api.ExplainData{"": api.ExplainFromCore(ans.Explain)}
		resp.Trace = trace
	}
	sp.Write(w, http.StatusOK, &resp)
}

// budgetContext derives the per-request deadline a time budget implies: the
// soft budget stops the engine at a step boundary with a partial answer,
// and this hard backstop — a small multiple, leaving room for one step's
// overshoot plus encode — guarantees even a wedged query cannot hold its
// admission slot much past its promise. budgetMS <= 0 leaves ctx untouched.
func (s *Server) budgetContext(ctx context.Context, budgetMS int) (context.Context, context.CancelFunc) {
	if budgetMS <= 0 {
		return ctx, func() {}
	}
	hard := 4*time.Duration(budgetMS)*time.Millisecond + time.Second
	return context.WithTimeout(ctx, hard)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, status, err := s.admit(r.Context())
	if err != nil {
		api.WriteError(w, status, err)
		return
	}
	defer release()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sp := s.spellingOf(r)
	req, err := sp.DecodeBatch(body.B, s.seriesLen, s.cfg.MaxK, s.cfg.MaxBatch)
	body.Release()
	if err != nil {
		s.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if s.hookAdmitted != nil {
		s.hookAdmitted(r.Context())
	}

	// The request's own slot funds one batch worker; widen only into slots
	// that are idle right now so batches never execute more concurrent
	// queries than MaxInFlight allows across the whole server.
	extra, releaseExtra := s.lim.AcquireExtra(min(len(req.Queries), s.cfg.MaxInFlight) - 1)
	defer releaseExtra()
	tctx, tr := s.observe.TraceFor(r.Context(), "batch", req.Explain)
	ctx, cancel := s.budgetContext(tctx, req.TimeBudgetMS)
	defer cancel()

	batch, err := s.db.QueryBatch(ctx, req.Queries,
		api.EngineRequest(req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS), 1+extra)
	sum := batchSummary{Queries: len(req.Queries)}
	out := make([][]Result, len(batch))
	for i, ans := range batch {
		out[i] = ans.Results
		sum.StepsExecuted += ans.Stats.StepsExecuted
		if ans.Stats.Partial {
			sum.Truncated++
		}
	}
	trace := api.FinishTrace(r.Context(), tr, sum)
	if !s.finishQuery(w, err) {
		return
	}
	s.m.batchQueries.Add(int64(len(req.Queries)))
	resp := BatchResponse{
		Results:       out,
		StepsExecuted: sum.StepsExecuted,
		Partial:       sum.Truncated > 0,
	}
	// The counter is per query (matching /search), not per batch request:
	// a 50-query batch with 40 truncated answers counts 40.
	s.m.budgetExh.Add(int64(sum.Truncated))
	if req.Explain {
		resp.Trace = trace
	}
	sp.Write(w, http.StatusOK, &resp)
}

// batchSummary is the slow-query-log stats shape for a batch request: a
// compact roll-up, not a full stats fold — per-query detail lives under
// the trace's "query" spans.
type batchSummary struct {
	Queries       int `json:"queries"`
	StepsExecuted int `json:"steps_executed"`
	Truncated     int `json:"truncated"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	// Writes share the query admission budget: ingesting a batch of series
	// costs routing CPU, a WAL fsync, and delta inserts, so an overloaded
	// server queues and sheds appends exactly as it does searches.
	release, status, err := s.admit(r.Context())
	if err != nil {
		api.WriteError(w, status, err)
		return
	}
	defer release()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sp := s.spellingOf(r)
	req, err := sp.DecodeAppend(body.B, s.seriesLen, s.cfg.MaxAppend)
	body.Release()
	if err != nil {
		s.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if s.hookAdmitted != nil {
		s.hookAdmitted(r.Context())
	}

	ids, err := s.db.AppendContext(r.Context(), req.Series)
	if !s.finishQuery(w, err) {
		return
	}
	s.m.appendSeries.Add(int64(len(req.Series)))
	sp.Write(w, http.StatusOK, &AppendResponse{IDs: ids})
}

// handleFlush forces a synchronous compaction: every previously acked
// append is in its partition file when the 200 arrives. Operators use it
// before snapshotting the database directory; tests use it to exercise the
// compaction path deterministically.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	release, status, err := s.admit(r.Context())
	if err != nil {
		api.WriteError(w, status, err)
		return
	}
	defer release()
	s.m.flushes.Add(1)
	if !s.finishQuery(w, s.db.FlushContext(r.Context())) {
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "flushed"})
}

// handleReindex runs an online reindex synchronously: when the 200 arrives,
// the new generation is durable and serving. The rebuild does not hold an
// admission slot — it is a minutes-scale background job and DB.Reindex
// already rejects a second concurrent attempt — so queries keep flowing at
// full concurrency while it runs. 409 means a reindex is already running.
func (s *Server) handleReindex(w http.ResponseWriter, r *http.Request) {
	s.m.reindexes.Add(1)
	err := s.db.Reindex(r.Context())
	if errors.Is(err, climber.ErrReindexInProgress) {
		api.WriteError(w, http.StatusConflict, err)
		return
	}
	if !s.finishQuery(w, err) {
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "reindexed",
		"generation": s.db.Info().Generation,
	})
}

// handleBackup snapshots the database into a fresh directory under the
// configured BackupRoot. The client names only the final path element; any
// separator or traversal in the name is a 400, and an unset BackupRoot is a
// 403 so a default deployment cannot be asked to write arbitrary trees.
func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request) {
	s.m.backups.Add(1)
	if s.cfg.BackupRoot == "" {
		api.WriteError(w, http.StatusForbidden,
			errors.New("backups disabled: server started without a backup root"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Dir string `json:"dir"`
	}
	defer body.Release()
	if err := json.Unmarshal(body.B, &req); err != nil {
		s.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid backup request: %w", err))
		return
	}
	if req.Dir == "" || req.Dir != filepath.Base(req.Dir) || req.Dir == ".." || req.Dir == "." {
		s.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("backup dir must be a bare directory name, got %q", req.Dir))
		return
	}
	dest := filepath.Join(s.cfg.BackupRoot, req.Dir)
	err := s.db.Backup(r.Context(), dest)
	if errors.Is(err, climber.ErrReindexInProgress) {
		api.WriteError(w, http.StatusConflict, err)
		return
	}
	if !s.finishQuery(w, err) {
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "backed_up", "dir": dest})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := s.db.Info()
	api.WriteJSON(w, http.StatusOK, InfoResponse{
		SeriesLen:     info.SeriesLen,
		NumRecords:    info.NumRecords,
		NumGroups:     info.NumGroups,
		NumPartitions: info.NumPartitions,
		SkeletonBytes: info.SkeletonBytes,
		Generation:    info.Generation,
	})
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Server ServerStats         `json:"server"`
	Cache  climber.CacheStats  `json:"cache"`
	Ingest climber.IngestStats `json:"ingest"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, StatsResponse{
		Server: s.m.snapshot(time.Since(s.started)),
		Cache:  s.db.CacheStats(),
		Ingest: s.db.IngestStats(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.m.renderProm(&b, s.buildInfo, s.observe.Slow.Total(), s.db.CacheStats(), s.db.IngestStats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}
