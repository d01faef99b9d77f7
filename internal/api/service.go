package api

import (
	"context"
	"errors"
	"io"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"time"

	"climber"
	"climber/internal/obs"
)

// Shape is what request validation needs to know about the index.
type Shape struct {
	// SeriesLen is the indexed series length.
	SeriesLen int
	// MinPrefix is the shortest admissible /search/prefix query.
	MinPrefix int
}

// Backend is what stands behind the dialect: a Service owns every route,
// limit, status and counter a client can observe, and asks a Backend for the
// answers. cmd/climber-serve mounts a Service over one open database
// (internal/server), cmd/climber-router one over a scatter-gather of such
// services (internal/shard); the two can differ in nothing but this
// interface. Every method must be safe for concurrent use.
type Backend interface {
	// Shape reports the index shape requests are validated against. An error
	// means it is not known (a router no shard has answered yet, or whose
	// shards disagree) and answers the request 503.
	Shape(ctx context.Context) (Shape, error)
	// Search answers one validated /search (prefix false) or /search/prefix
	// query. ctx carries the request's span when it is traced; the front
	// attaches the finished trace to an explain answer.
	Search(ctx context.Context, req *SearchRequest, prefix bool) (*SearchResponse, error)
	// Batch answers one validated /search/batch. The request holds one
	// admission slot, which funds one worker; grant asks for up to extra more
	// out of the slots idle right now and reports how many it got, so batches
	// never run more concurrent queries than the service admits. The front
	// returns the granted slots when Batch returns.
	Batch(ctx context.Context, req *BatchRequest, grant func(extra int) int) (*BatchResponse, error)
	// Append ingests one validated /append and acks with the assigned IDs.
	Append(ctx context.Context, req *AppendRequest) (*AppendResponse, error)
	// Admin runs one administrative post — op is "flush", "reindex" or "backup",
	// anything else an error; body the raw request body of a backup (nil
	// otherwise) — and returns the members its 200 carries besides "status".
	Admin(ctx context.Context, op string, body []byte) (map[string]any, error)
	// Info is the body of GET /info; an error answers 503.
	Info(ctx context.Context) (any, error)
	// Stats are the backend's own sections of GET /stats, after the front's.
	Stats(ctx context.Context) Object
	// Health is the status (200 or 503) and body of GET /healthz.
	Health() (status int, body any)
	// Classify maps an error of the backend's own classes to the status that
	// answers it and the counter row it moves ("" for none). The front has
	// already taken the context errors: a dead client is 499, a deadline 504.
	Classify(err error) (status int, counter string)
	// Meters declares the service's counter table and expositions.
	Meters() Meters
}

// Service is the one HTTP front of the serving stack: the routes, admission,
// the body read under cap and deadline, decoding in either spelling and its
// 400s, trace arming, the error-to-status mapping, answering in the request's
// spelling, the latency histograms, the slow-query log and the counters, over
// a Backend that does the work. Create it with NewService and mount Handler.
type Service struct {
	b       Backend
	cfg     ServeConfig
	m       Meters
	lim     *Limiter
	slow    *obs.SlowLog
	started time.Time
	// latency sees the read path (search, prefix, batch), appendLat the
	// fsync-bound write path, kept apart so write bursts cannot skew search
	// percentiles; stageLat is fed by traced queries only.
	latency, appendLat *Histogram
	stageLat           map[string]*Histogram
}

// NewService puts the front before b. cfg is taken with its defaults applied.
func NewService(b Backend, cfg ServeConfig) *Service {
	cfg = cfg.WithDefaults()
	s := &Service{
		b:         b,
		cfg:       cfg,
		m:         b.Meters(),
		slow:      obs.NewSlowLog(cfg.SlowLogSize, cfg.SlowThreshold, cfg.SlowSample, cfg.Logger),
		started:   time.Now(),
		latency:   NewHistogram(),
		appendLat: NewHistogram(),
		stageLat:  make(map[string]*Histogram),
	}
	s.lim = NewLimiter(cfg.MaxInFlight, cfg.QueueTimeout, s.m.Counters)
	s.m.Counters.Bind("slow_log_entries", s.slow.Total)
	for _, st := range s.m.Stages {
		s.stageLat[st] = NewHistogram()
	}
	return s
}

// SlowLog exposes the slow-query ring so a command can mount it on its
// -debug-addr diagnostics listener too.
func (s *Service) SlowLog() *obs.SlowLog { return s.slow }

// Handler returns the routing handler: the endpoint set every service
// exposes, so a client need not know what stands behind it.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /search", s.instrument("/search", "searches", s.latency, s.handleQuery(false)))
	mux.Handle("POST /search/batch", s.instrument("/search/batch", "batches", s.latency, s.handleBatch))
	mux.Handle("POST /search/prefix", s.instrument("/search/prefix", "prefix_searches", s.latency, s.handleQuery(true)))
	mux.Handle("POST /append", s.instrument("/append", "appends", s.appendLat, s.handleAppend))
	// A flush holds an admission slot like the writes it compacts. A reindex
	// runs for minutes and the backend refuses a second one itself, and a
	// backup links files: neither may starve the query budget.
	mux.HandleFunc("POST /flush", s.handleAdmin("flush", "flushes", "flushed", true, false))
	mux.HandleFunc("POST /reindex", s.handleAdmin("reindex", "reindexes", "reindexed", false, false))
	mux.HandleFunc("POST /backup", s.handleAdmin("backup", "backups", "backed_up", false, true))
	mux.HandleFunc("GET /info", s.handleInfo)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/slow", s.slow.Handler())
	return mux
}

// admit acquires an in-flight slot, waiting up to QueueTimeout, or answers
// the 429 (499 when the client hung up in the queue) that denied it.
func (s *Service) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, status, err := s.lim.Admit(r.Context())
	if err != nil {
		WriteError(w, status, err)
		return nil, false
	}
	return release, true
}

// readBody slurps the request body under the configured cap and deadline, or
// answers the 400, 408 or 413 of a body that broke them.
func (s *Service) readBody(w http.ResponseWriter, r *http.Request) (*Buffer, bool) {
	body, status, err := ReadBody(w, r, s.cfg.MaxBodyBytes, s.cfg.BodyReadTimeout)
	if err != nil {
		s.m.Counters.Add("bad_requests", 1)
		WriteError(w, status, err)
		return nil, false
	}
	return body, true
}

// open is the shared front half of the query and append endpoints. Admission
// comes first — reading and decoding a body is itself heap- and CPU-expensive
// work an overloaded service must not do unbounded — then the body, the index
// shape, and decode in the request's spelling. A frame passes the same
// admission, cap, deadline and limits as JSON and is answered in kind; errors
// stay JSON. ok false means the request has been answered; otherwise the
// caller releases the slot when it is done.
func (s *Service) open(w http.ResponseWriter, r *http.Request, decode func(sp Spelling, body []byte, sh Shape) error) (sp Spelling, release func(), ok bool) {
	slot, ok := s.admit(w, r)
	if !ok {
		return sp, nil, false
	}
	defer func() {
		if !ok {
			slot()
		}
	}()
	body, ok := s.readBody(w, r)
	if !ok {
		return sp, nil, false
	}
	defer body.Release() // no decoder aliases its input
	shape, err := s.b.Shape(r.Context())
	if err != nil {
		s.m.Counters.Add("errors", 1)
		WriteError(w, http.StatusServiceUnavailable, err)
		return sp, nil, false
	}
	sp = SpellingOf(r.Header)
	if sp == Frame {
		s.m.Counters.Add("framed_requests", 1)
	}
	if err := decode(sp, body.B, shape); err != nil {
		s.m.Counters.Add("bad_requests", 1)
		WriteError(w, http.StatusBadRequest, err)
		return sp, nil, false
	}
	return sp, slot, true
}

// failed answers a request whose backend call returned err, moving the
// outcome counter; it reports whether there was an error to answer.
func (s *Service) failed(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	var status int
	var counter string
	switch {
	case errors.Is(err, context.Canceled):
		status, counter = StatusClientClosedRequest, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		status, counter = http.StatusGatewayTimeout, "errors"
	default:
		status, counter = s.b.Classify(err)
	}
	s.m.Counters.Add(counter, 1)
	WriteError(w, status, err)
	return true
}

// handleQuery is the path of /search and /search/prefix, which differ only
// in the query lengths the body may carry and the trace name.
func (s *Service) handleQuery(prefix bool) observed {
	name := "search"
	if prefix {
		name = "prefix"
	}
	return func(w http.ResponseWriter, r *http.Request, qo *queryObs) {
		var req *SearchRequest
		sp, release, ok := s.open(w, r, func(sp Spelling, body []byte, sh Shape) (err error) {
			if prefix {
				req, err = sp.DecodePrefix(body, sh.MinPrefix, sh.SeriesLen, s.cfg.MaxK)
			} else {
				req, err = sp.DecodeSearch(body, sh.SeriesLen, s.cfg.MaxK)
			}
			return err
		})
		if !ok {
			return
		}
		defer release()
		var resp *SearchResponse
		trace, err := s.traced(r.Context(), qo, name, req.Explain, func(ctx context.Context) (any, error) {
			var err error
			if resp, err = s.b.Search(ctx, req, prefix); err != nil {
				return climber.Stats{}, err
			}
			return resp.Stats, nil
		})
		if s.failed(w, err) {
			return
		}
		resp.Trace = trace
		sp.Write(w, http.StatusOK, resp)
	}
}

// batchSummary is the slow-query-log stats shape of a batch request: a
// compact roll-up, not a full stats fold — per-query detail lives under the
// trace's spans.
type batchSummary struct {
	Queries       int `json:"queries"`
	StepsExecuted int `json:"steps_executed"`
	Truncated     int `json:"truncated"`
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request, qo *queryObs) {
	var req *BatchRequest
	sp, release, ok := s.open(w, r, func(sp Spelling, body []byte, sh Shape) (err error) {
		req, err = sp.DecodeBatch(body, sh.SeriesLen, s.cfg.MaxK, s.cfg.MaxBatch)
		return err
	})
	if !ok {
		return
	}
	defer release()
	releaseExtra := func() {}
	defer func() { releaseExtra() }()
	grant := func(extra int) (got int) {
		got, releaseExtra = s.lim.AcquireExtra(extra)
		return got
	}
	var resp *BatchResponse
	trace, err := s.traced(r.Context(), qo, "batch", req.Explain, func(ctx context.Context) (any, error) {
		var err error
		if resp, err = s.b.Batch(ctx, req, grant); err != nil {
			return batchSummary{Queries: len(req.Queries)}, err
		}
		return batchSummary{len(req.Queries), resp.StepsExecuted, resp.Truncated}, nil
	})
	if s.failed(w, err) {
		return
	}
	s.m.Counters.Add("batch_queries", int64(len(req.Queries)))
	resp.Trace = trace
	sp.Write(w, http.StatusOK, resp)
}

// handleAppend shares the query admission budget: ingesting a batch of
// series costs routing CPU, a WAL fsync and delta inserts, so an overloaded
// service queues and sheds appends exactly as it does searches.
func (s *Service) handleAppend(w http.ResponseWriter, r *http.Request, _ *queryObs) {
	var req *AppendRequest
	sp, release, ok := s.open(w, r, func(sp Spelling, body []byte, sh Shape) (err error) {
		req, err = sp.DecodeAppend(body, sh.SeriesLen, s.cfg.MaxAppend)
		return err
	})
	if !ok {
		return
	}
	defer release()
	resp, err := s.b.Append(r.Context(), req)
	if s.failed(w, err) {
		return
	}
	s.m.Counters.Add("append_series", int64(len(req.Series)))
	sp.Write(w, http.StatusOK, resp)
}

// handleAdmin is /flush, /reindex and /backup: count the request, run the
// backend's op, answer {"status": done} plus whatever the backend adds.
func (s *Service) handleAdmin(op, counter, done string, admitted, hasBody bool) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		if admitted {
			release, ok := s.admit(w, r)
			if !ok {
				return
			}
			defer release()
		}
		s.m.Counters.Add(counter, 1)
		var body []byte
		if hasBody {
			buf, ok := s.readBody(w, r)
			if !ok {
				return
			}
			// Not released: a backend may hand the bytes to an HTTP transport,
			// which can still be reading them after a failed round trip.
			body = buf.B
		}
		extra, err := s.b.Admin(r.Context(), op, body)
		if s.failed(w, err) {
			return
		}
		reply := map[string]any{"status": done}
		maps.Copy(reply, extra)
		WriteJSON(w, http.StatusOK, reply)
	}
}

func (s *Service) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.b.Info(r.Context())
	if err != nil {
		s.m.Counters.Add("errors", 1)
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleStats answers the front's counter section, rendered from the rows,
// followed by the backend's own sections.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	section := append(s.m.Counters.stats(), Member{"uptime_seconds", time.Since(s.started).Seconds()})
	WriteJSON(w, http.StatusOK, append(Object{{s.m.Section, section}}, s.b.Stats(r.Context())...))
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := s.b.Health()
	WriteJSON(w, status, body)
}

// handleMetrics renders the Prometheus text exposition, block by block as
// the backend's Meters lay it out.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	for _, blk := range s.m.Metrics {
		switch {
		case blk.Own != nil:
			blk.Own(r.Context(), &b)
		case blk.Hists:
			s.latency.Render(&b, s.m.Query.Metric, s.m.Query.Help)
			s.appendLat.Render(&b, s.m.Append.Metric, s.m.Append.Help)
			for i, st := range s.m.Stages {
				s.stageLat[st].RenderLabeled(&b, s.m.Stage.Metric, "stage="+strconv.Quote(st), s.m.Stage.Help, i == 0)
			}
		default:
			s.m.Counters.render(&b, blk.Rows)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// observed is a handler under the instrument wrapper.
type observed func(http.ResponseWriter, *http.Request, *queryObs)

// queryObs carries one request's observability state between the instrument
// wrapper and its handler: the wrapper decides sampling and parses the
// propagated traceparent header before the handler runs, the handler fills
// in what the query produced, and the wrapper turns the result into
// histogram observations and a slow-log entry.
type queryObs struct {
	// sampled arms tracing without an explain flag: set by an upstream
	// traceparent sampled bit or by the slow log's head-sampling.
	sampled bool
	// traceID is the propagated trace id ("" = generate fresh).
	traceID string
	// stats, trace, stages are filled by traced after the query.
	stats  any
	trace  *obs.SpanData
	stages map[string]int64
}

// statusWriter captures the response status code for the slow-query log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's read deadline.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// instrument wraps one query-path handler with the observation pipeline: the
// latency histogram sees every outcome — 400s and 429s included, so
// bad-request storms show in the percentiles — the endpoint's counter row
// moves exactly once per request, traced queries feed the per-stage
// histograms, and every finished request is offered to the slow-query log.
func (s *Service) instrument(endpoint, counter string, lat *Histogram, h observed) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qo := &queryObs{}
		if id, sampled, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader)); ok {
			qo.traceID, qo.sampled = id, sampled
		}
		if !qo.sampled {
			qo.sampled = s.slow.Sample()
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r, qo)
		d := time.Since(start)
		lat.Observe(d)
		s.m.Counters.Add(counter, 1)
		for stage, ns := range qo.stages {
			if hist := s.stageLat[stage]; hist != nil {
				hist.Observe(time.Duration(ns))
			}
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.slow.Note(endpoint, d, qo.sampled, qo.traceID, status, qo.stats, qo.trace)
	})
}

// traced runs one query under the request's trace. A trace starts when the
// request asked for explain or the sampling decision armed one, adopting a
// propagated trace id so every hop's logs agree on identity (a router
// forwards the id and sampled bit in the traceparent header of each
// sub-request). run gets the (possibly traced) context and returns the
// query's wire stats for the slow log (their zero shape when it failed).
// Once the query is done, the spans its trace left open are added to the
// unended_spans counter, which reads 0 unless a path skips an End. traced
// returns the span tree for an explain answer, nil otherwise.
func (s *Service) traced(ctx context.Context, qo *queryObs, name string, explain bool, run func(ctx context.Context) (stats any, err error)) (*obs.SpanData, error) {
	var tr *obs.Trace // nil when tracing is off, which every span call tolerates
	if explain || qo.sampled {
		tr = obs.NewTrace(name, qo.traceID)
		qo.traceID = tr.ID()
		s.m.Counters.Add("traced_queries", 1)
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}
	var err error
	qo.stats, err = run(ctx)
	if tr == nil {
		return nil, err
	}
	tr.Root().End()
	s.m.Counters.Add("unended_spans", tr.Unended())
	qo.trace = tr.Root().Data()
	qo.stages = tr.Root().StageNanos()
	if !explain {
		return nil, err
	}
	return qo.trace, err
}
