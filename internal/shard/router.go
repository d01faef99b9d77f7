package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/obs"
)

// Config tunes the router. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// ServeConfig holds the admission, request-limit and slow-log settings
	// shared with the single-node server.
	api.ServeConfig
	// Quorum selects the scatter-gather failure policy. 0 (the default)
	// demands every shard: the first shard error cancels the remaining
	// sub-queries and fails the request fast with 502 — no silently
	// incomplete answers. A positive value tolerates shard loss: the
	// query succeeds, marked partial, as long as at least Quorum shards
	// answered, and is 503 otherwise.
	Quorum int
	// HealthInterval is the period of the background shard health probes.
	// Default: 2s.
	HealthInterval time.Duration
	// ShardTimeout, when positive, bounds each forwarded sub-request in
	// addition to the client's own deadline. Default: 0 (client deadline
	// only).
	ShardTimeout time.Duration
	// Client overrides the HTTP client used for shard traffic (tests,
	// custom transports). Default: a client with a widened idle pool.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	c.ServeConfig = c.ServeConfig.WithDefaults()
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		c.Client = &http.Client{Transport: tr}
	}
	return c
}

// Router scatter-gathers CLIMBER queries over the shards of a Topology,
// speaking the same HTTP dialect (internal/api) as the single-node server
// it fronts. Create it with NewRouter, mount Handler, and Close it on
// shutdown to stop the health prober.
type Router struct {
	topo   *Topology
	cfg    Config
	client *http.Client
	// maxReply bounds one shard reply (api.MaxReplyBytes over the router's
	// own MaxK, MaxBatch and MaxBodyBytes): a shard that streams past it is
	// a failed shard, not a reason to run out of memory.
	maxReply int64
	lim      *api.Limiter
	m        rmetrics
	started  time.Time
	observe  api.Observer // shared request-observation pipeline (trace arming, histograms, slow log)

	// seriesLen is the indexed series length, learned from the first shard
	// /info that answers; 0 until then. Request validation needs it, so a
	// router whose every shard is unreachable answers 503, not 400/200.
	seriesLen atomic.Int64
	// appendSeq mints the rendezvous routing key for each appended series
	// — the record's global append sequence number. Seeded from the
	// aggregate record count when /info first succeeds; the seed only
	// shifts where the key sequence starts, so a fallback start at 0 still
	// spreads appends evenly.
	appendSeq atomic.Int64

	up         []atomic.Bool // per-shard health, indexed like topo.Shards
	healthStop chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once

	// probeCtx is the health prober's root context; Close cancels it so
	// in-flight /healthz probes abort instead of running out their
	// timeout while Close waits on healthDone.
	probeCtx    context.Context
	probeCancel context.CancelFunc
}

// rmetrics aggregates the router's operational counters; the admission
// ones are written by the shared api.Limiter.
type rmetrics struct {
	searches    atomic.Int64              // /search requests answered (incl. errors)
	batches     atomic.Int64              // /search/batch requests answered
	prefixes    atomic.Int64              // /search/prefix requests answered
	appends     atomic.Int64              // /append requests answered
	appendSer   atomic.Int64              // series inside successful appends
	flushes     atomic.Int64              // /flush requests answered
	reindexes   atomic.Int64              // /reindex requests answered
	backups     atomic.Int64              // /backup requests answered
	badRequests atomic.Int64              // 400s from decode/validation
	rejected    atomic.Int64              // 429s from admission control
	canceled    atomic.Int64              // requests aborted by client disconnect
	errors      atomic.Int64              // requests failed (shard loss, quorum, internal)
	partials    atomic.Int64              // successful answers merged from a strict subset
	budgetExh   atomic.Int64              // answers partial because a shard's budget ran out
	dups        atomic.Int64              // duplicate global IDs dropped by the merge
	inflight    atomic.Int64              // requests currently holding an admission slot
	queued      atomic.Int64              // requests currently waiting for a slot
	traced      atomic.Int64              // routed queries that ran with a trace attached
	partScanned atomic.Int64              // partitions scanned by the shards for routed answers
	cacheHits   atomic.Int64              // shard partition-cache hits inside routed answers
	cacheMisses atomic.Int64              // shard partition-cache misses inside routed answers
	deltaRecs   atomic.Int64              // delta records the shards scanned for routed answers
	shardErrs   []atomic.Int64            // failed sub-requests, indexed like topo.Shards
	latency     *api.Histogram            // read path (search + batch + prefix)
	appendLat   *api.Histogram            // write path
	stageLat    map[string]*api.Histogram // per-router-stage latency, traced queries only
}

// rstageNames are the router's pipeline stages — the direct children of
// a routed query's root span and the label values of
// climber_router_stage_latency_seconds.
var rstageNames = []string{"scatter", "merge"}

// NewRouter builds a router over a validated topology and starts its
// background health prober. Every shard starts optimistically marked up;
// the first probe round corrects that within HealthInterval.
func NewRouter(t *Topology, cfg Config) *Router {
	r := &Router{
		topo:       t,
		cfg:        cfg.withDefaults(),
		started:    time.Now(),
		up:         make([]atomic.Bool, len(t.Shards)),
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	// The prober outlives any request, so its root cannot come from a
	// caller.
	//lint:ignore ctxflow the health prober is a background root owned by the Router; Close cancels it
	r.probeCtx, r.probeCancel = context.WithCancel(context.Background())
	r.client = r.cfg.Client
	r.maxReply = api.MaxReplyBytes(r.cfg.MaxK, r.cfg.MaxBatch, r.cfg.MaxBodyBytes)
	r.lim = api.NewLimiter(r.cfg.MaxInFlight, r.cfg.QueueTimeout, api.LimiterCounters{
		Queued:   &r.m.queued,
		Rejected: &r.m.rejected,
		Canceled: &r.m.canceled,
		InFlight: &r.m.inflight,
	})
	r.m.shardErrs = make([]atomic.Int64, len(t.Shards))
	r.m.latency = api.NewHistogram()
	r.m.appendLat = api.NewHistogram()
	r.m.stageLat = make(map[string]*api.Histogram, len(rstageNames))
	for _, st := range rstageNames {
		r.m.stageLat[st] = api.NewHistogram()
	}
	r.observe = api.Observer{
		Slow:     obs.NewSlowLog(r.cfg.SlowLogSize, r.cfg.SlowThreshold, r.cfg.SlowSample, r.cfg.Logger),
		StageLat: r.m.stageLat,
		Traced:   &r.m.traced,
	}
	for i := range r.up {
		r.up[i].Store(true)
	}
	go r.healthLoop()
	return r
}

// Close stops the health prober and drops idle shard connections. It does
// not touch the shards themselves.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		r.probeCancel()
		close(r.healthStop)
		<-r.healthDone
		r.client.CloseIdleConnections()
	})
}

// Handler returns the router's routing handler — the same endpoint set a
// single climber-serve exposes, so clients need not know they talk to a
// sharded deployment.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /search", r.observe.Instrument("/search", &r.m.searches, r.m.latency, r.handleSearch))
	mux.Handle("POST /search/batch", r.observe.Instrument("/search/batch", &r.m.batches, r.m.latency, r.handleBatch))
	mux.Handle("POST /search/prefix", r.observe.Instrument("/search/prefix", &r.m.prefixes, r.m.latency, r.handlePrefix))
	mux.Handle("POST /append", r.observe.Instrument("/append", &r.m.appends, r.m.appendLat, r.handleAppend))
	mux.HandleFunc("POST /flush", r.handleFlush)
	mux.HandleFunc("POST /reindex", r.handleReindex)
	mux.HandleFunc("POST /backup", r.handleBackup)
	mux.HandleFunc("GET /info", r.handleInfo)
	mux.HandleFunc("GET /stats", r.handleStats)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.Handle("GET /debug/slow", r.observe.Slow.Handler())
	return mux
}

// SlowLog exposes the router's slow-query ring so cmd/climber-router can
// mount it on the -debug-addr diagnostics listener too.
func (r *Router) SlowLog() *obs.SlowLog { return r.observe.Slow }

// healthLoop probes every shard's /healthz each HealthInterval and flips
// the per-shard up flags the scatter and append paths consult.
func (r *Router) healthLoop() {
	defer close(r.healthDone)
	r.probeAll() // correct the optimistic start immediately
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.healthStop:
			return
		case <-ticker.C:
			r.probeAll()
		}
	}
}

func (r *Router) probeAll() {
	timeout := r.cfg.HealthInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for i := range r.topo.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := r.getShard(r.probeCtx, i, "/healthz", timeout)
			r.up[i].Store(err == nil)
		}(i)
	}
	wg.Wait()
}

// Healthy reports how many shards the last probe round saw up.
func (r *Router) Healthy() int {
	n := 0
	for i := range r.up {
		if r.up[i].Load() {
			n++
		}
	}
	return n
}

// quorumNeed is the number of shard answers a read requires under the
// configured policy.
func (r *Router) quorumNeed() int {
	if r.cfg.Quorum <= 0 {
		return len(r.topo.Shards)
	}
	if r.cfg.Quorum > len(r.topo.Shards) {
		return len(r.topo.Shards)
	}
	return r.cfg.Quorum
}

// errShardStatus is a shard's non-200 answer, carrying the status so the
// router can tell client-caused rejections (a 400 the router could not
// pre-validate, like a prefix shorter than the shards' PAA segment count)
// from genuine shard failures.
type errShardStatus struct {
	status int
	msg    string
}

func (e errShardStatus) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("status %d: %s", e.status, e.msg)
	}
	return fmt.Sprintf("status %d", e.status)
}

// do runs one shard request and returns the 200 body in a recycled buffer,
// sized from the reply's Content-Length and never past maxReply; a non-2xx
// answer (always JSON) becomes an errShardStatus carrying the shard's own
// message.
func (r *Router) do(req *http.Request) (*api.Buffer, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := api.ReadAll(io.LimitReader(resp.Body, r.maxReply+1), resp.ContentLength)
	if err != nil {
		return nil, err
	}
	if int64(len(raw.B)) > r.maxReply {
		raw.Release()
		return nil, fmt.Errorf("reply exceeds the router's %d-byte limit", r.maxReply)
	}
	if resp.StatusCode != http.StatusOK {
		defer raw.Release()
		var er api.ErrorResponse
		if jerr := api.DecodeJSON(raw.B, &er); jerr == nil && er.Error != "" {
			return nil, errShardStatus{status: resp.StatusCode, msg: er.Error}
		}
		return nil, errShardStatus{status: resp.StatusCode}
	}
	return raw, nil
}

// forward POSTs body, in the given spelling, to one shard and returns the
// response body. Queries and appends cross the hop as frames, always — the
// shards accept both spellings, so a fleet upgrades shards first — and the
// administrative posts stay JSON. When ctx carries an active span, the
// sub-request gets a traceparent header with the sampled bit set, so the
// shard traces the same query under the same id and its trace nests under
// the router's. body is not recycled: after a failed round trip the
// transport may still be reading it.
func (r *Router) forward(ctx context.Context, shard int, path string, sp api.Spelling, body []byte) (*api.Buffer, error) {
	if r.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.ShardTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.topo.Shards[shard].URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", sp.ContentType())
	if span := obs.SpanFromContext(ctx); span != nil {
		req.Header.Set(obs.TraceHeader, obs.FormatTraceparent(span.Trace().ID(), true))
	}
	return r.do(req)
}

// getShard GETs path on one shard, bounded by timeout when positive. These
// are the cold paths (probes, /info, /stats): the reply buffer is left to
// the collector rather than threaded back to the pool.
func (r *Router) getShard(ctx context.Context, shard int, path string, timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.topo.Shards[shard].URL+path, nil)
	if err != nil {
		return nil, err
	}
	raw, err := r.do(req)
	if err != nil {
		return nil, err
	}
	return raw.B, nil
}

// reply is one shard's scatter outcome: the answering frame, released by
// the gather step once decoded. span is the per-shard child of the scatter
// span (nil when untraced); the gather step grafts the shard's own span
// tree under it.
type reply struct {
	shard int
	body  *api.Buffer
	err   error
	span  *obs.Span
}

// errQuorum is the scatter failure of a quorum-policy read: fewer shards
// answered than the policy demands. It maps to 503.
type errQuorum struct{ got, want int }

func (e errQuorum) Error() string {
	return fmt.Sprintf("only %d of the %d required shards answered", e.got, e.want)
}

// scatter fans one request frame out to the shards and gathers replies
// under the configured policy.
//
// All-shards policy (Quorum 0): every shard is asked, even ones the prober
// marked down — a query must not fail on stale health state — and the
// first failure cancels the remaining sub-queries and fails the scatter
// fast.
//
// Quorum policy: shards marked down are skipped (their slot is a recorded
// failure), the rest are asked, and the scatter succeeds once at least
// quorumNeed answers arrived — even if others failed mid-query.
func (r *Router) scatter(ctx context.Context, path string, frame []byte) (oks []reply, asked int, err error) {
	need := r.quorumNeed()
	all := r.cfg.Quorum <= 0
	targets := make([]int, 0, len(r.topo.Shards))
	failed := 0
	for i := range r.topo.Shards {
		if all || r.up[i].Load() {
			targets = append(targets, i)
		} else {
			failed++
			r.m.shardErrs[i].Add(1)
		}
	}
	if len(targets) < need {
		return nil, len(targets), errQuorum{got: 0, want: need}
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	scatterSpan := obs.SpanFromContext(ctx)
	replies := make(chan reply, len(targets))
	for _, i := range targets {
		go func(i int) {
			ssp := scatterSpan.StartChild("shard")
			ssp.SetLabel("shard", r.topo.Shards[i].ID)
			ssp.SetAttr("shard", int64(i))
			raw, err := r.forward(obs.ContextWithSpan(sctx, ssp), i, path, api.Frame, frame)
			ssp.End()
			replies <- reply{shard: i, body: raw, err: err, span: ssp}
		}(i)
	}
	var firstErr error
	for range targets {
		rep := <-replies
		if rep.err != nil {
			r.m.shardErrs[rep.shard].Add(1)
			werr := fmt.Errorf("shard %s: %w", r.topo.Shards[rep.shard].ID, rep.err)
			if all {
				// Fail fast: stop the survivors, drain nothing more.
				cancel()
				return nil, len(targets), werr
			}
			if firstErr == nil {
				firstErr = werr
			}
			failed++
			continue
		}
		oks = append(oks, rep)
	}
	if len(oks) < need {
		// Classify before blaming the shards: a dead client context means
		// the scatter was abandoned, not that the quorum is lost — report
		// it as the cancellation it is. A client-caused 4xx (every shard
		// rejecting a request the router could not pre-validate) stays a
		// client error too.
		if cerr := ctx.Err(); cerr != nil {
			return nil, len(targets), cerr
		}
		var se errShardStatus
		if errors.As(firstErr, &se) && se.status >= 400 && se.status < 500 {
			return nil, len(targets), firstErr
		}
		return nil, len(targets), fmt.Errorf("%w (last error: %v)", errQuorum{got: len(oks), want: need}, firstErr)
	}
	return oks, len(targets), nil
}

// admitAndRead is the shared front half of every routed POST handler:
// admission, then the body read under cap and deadline (api.ReadBody). The
// caller releases the body once it is decoded.
func (r *Router) admitAndRead(w http.ResponseWriter, req *http.Request) (body *api.Buffer, release func(), ok bool) {
	release, status, err := r.lim.Admit(req.Context())
	if err != nil {
		api.WriteError(w, status, err)
		return nil, nil, false
	}
	body, status, err = api.ReadBody(w, req, r.cfg.MaxBodyBytes, r.cfg.BodyReadTimeout)
	if err != nil {
		r.m.badRequests.Add(1)
		api.WriteError(w, status, err)
		release()
		return nil, nil, false
	}
	return body, release, true
}

// finish maps a scatter error to its response status, maintaining the
// outcome counters. It reports whether the request succeeded.
func (r *Router) finish(w http.ResponseWriter, err error) bool {
	var q errQuorum
	var se errShardStatus
	switch {
	case err == nil:
		return true
	case errors.Is(err, context.Canceled):
		r.m.canceled.Add(1)
		api.WriteError(w, api.StatusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		r.m.errors.Add(1)
		api.WriteError(w, http.StatusGatewayTimeout, err)
	case errors.As(err, &se) && se.status == http.StatusTooManyRequests:
		// A shard's admission control shed the sub-request: the fleet is
		// overloaded, not the client wrong. Relayed as the 429 it is.
		r.m.rejected.Add(1)
		api.WriteError(w, se.status, err)
	case errors.As(err, &se) && se.status >= 400 && se.status < 500:
		// The shards rejected the request itself (e.g. a prefix shorter
		// than their PAA segment count, which the router cannot
		// pre-validate): a client error, relayed with the shard's status.
		r.m.badRequests.Add(1)
		api.WriteError(w, se.status, err)
	case errors.As(err, &q):
		r.m.errors.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, err)
	default:
		r.m.errors.Add(1)
		api.WriteError(w, http.StatusBadGateway, err)
	}
	return false
}

// requireSeriesLen returns the indexed series length, learning it from the
// shards' /info on first need. A router that has never reached any shard
// cannot validate queries and reports 503.
func (r *Router) requireSeriesLen(ctx context.Context) (int, error) {
	if n := r.seriesLen.Load(); n > 0 {
		return int(n), nil
	}
	if _, err := r.aggregateInfo(ctx); err != nil {
		return 0, fmt.Errorf("no shard reachable to learn the index shape: %w", err)
	}
	if n := r.seriesLen.Load(); n > 0 {
		return int(n), nil
	}
	return 0, errors.New("no shard reachable to learn the index shape")
}

// aggregateInfo fans GET /info out to every shard and folds the answers:
// counts are summed once per ID namespace (read replicas share one), the
// series length is learned and cached, and the append sequence is seeded
// from the aggregate record count.
func (r *Router) aggregateInfo(ctx context.Context) (*InfoResponse, error) {
	type infoReply struct {
		shard int
		info  api.InfoResponse
		err   error
	}
	replies := make(chan infoReply, len(r.topo.Shards))
	for i := range r.topo.Shards {
		go func(i int) {
			raw, err := r.getShard(ctx, i, "/info", r.cfg.ShardTimeout)
			var info api.InfoResponse
			if err == nil {
				err = api.DecodeJSON(raw, &info)
			}
			replies <- infoReply{shard: i, info: info, err: err}
		}(i)
	}
	out := &InfoResponse{NumShards: len(r.topo.Shards)}
	seenBase := make(map[int]struct{})
	var firstErr error
	for range r.topo.Shards {
		rep := <-replies
		if rep.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %s: %w", r.topo.Shards[rep.shard].ID, rep.err)
			}
			continue
		}
		out.ShardsAnswered++
		out.SeriesLen = rep.info.SeriesLen
		base := *r.topo.Shards[rep.shard].IDBase
		if _, dup := seenBase[base]; dup {
			continue // a read replica of a namespace already counted
		}
		seenBase[base] = struct{}{}
		out.NumRecords += rep.info.NumRecords
		out.NumGroups += rep.info.NumGroups
		out.NumPartitions += rep.info.NumPartitions
		out.SkeletonBytes += rep.info.SkeletonBytes
	}
	if out.ShardsAnswered == 0 {
		return nil, firstErr
	}
	r.seriesLen.CompareAndSwap(0, int64(out.SeriesLen))
	// Seed the append routing sequence past the existing records once.
	r.appendSeq.CompareAndSwap(0, int64(out.NumRecords))
	return out, nil
}

// gatherSearch decodes the shards' answering frames for /search-shaped
// endpoints and merges them into the global top-k. A shard that answered
// partially (its local budget stopped the query) marks the merged answer
// partial too — the global top-k can only be as complete as its inputs.
// When the request asked for explain, each shard's planner explanation is
// keyed by its shard ID and its span tree is grafted under the scatter
// span that fetched it.
func (r *Router) gatherSearch(oks []reply, k int, explain bool) (*SearchResponse, error) {
	answers := make([]answer, 0, len(oks))
	stats := make([]climber.Stats, 0, len(oks))
	budgetPartial := false
	steps := 0
	var explains map[string]*api.ExplainData
	for _, rep := range oks {
		var sr api.SearchResponse
		err := api.DecodeFrame(rep.body.B, &sr)
		rep.body.Release()
		if err != nil {
			return nil, fmt.Errorf("shard %s: malformed response: %w", r.topo.Shards[rep.shard].ID, err)
		}
		answers = append(answers, answer{shard: rep.shard, results: sr.Results})
		stats = append(stats, sr.Stats)
		steps += sr.StepsExecuted
		if sr.Partial {
			budgetPartial = true
		}
		if explain {
			rep.span.AddChildData(sr.Trace)
			if ed := sr.Explain[""]; ed != nil {
				if explains == nil {
					explains = make(map[string]*api.ExplainData, len(oks))
				}
				explains[r.topo.Shards[rep.shard].ID] = ed
			}
		}
	}
	merged, dups := r.topo.mergeTopK(answers, k)
	r.m.dups.Add(int64(dups))
	if budgetPartial {
		r.m.budgetExh.Add(1)
	}
	sum := sumStats(stats)
	r.noteEffort(sum)
	return &SearchResponse{
		Results:        merged,
		Stats:          sum,
		ShardsAnswered: len(oks),
		Partial:        budgetPartial,
		StepsExecuted:  steps,
		Explain:        explains,
	}, nil
}

// noteEffort feeds the router's query-effort counters from one merged
// answer's summed shard stats, so /metrics shows the scan volume the
// routed traffic is costing the fleet.
func (r *Router) noteEffort(sum climber.Stats) {
	r.m.partScanned.Add(int64(sum.PartitionsScanned))
	r.m.cacheHits.Add(int64(sum.PartitionCacheHits))
	r.m.cacheMisses.Add(int64(sum.PartitionCacheMisses))
	r.m.deltaRecs.Add(int64(sum.DeltaScanned))
}

func (r *Router) handleSearch(w http.ResponseWriter, req *http.Request) {
	r.handleQuery(w, req, false)
}

func (r *Router) handlePrefix(w http.ResponseWriter, req *http.Request) {
	r.handleQuery(w, req, true)
}

// handleQuery is the scatter-merge-respond path of /search and
// /search/prefix: the client's JSON is decoded once, here, and crosses the
// hop as one frame built from the decoded request — the shards never see
// the text. A prefix query is validated as loosely as the router can — it
// does not know the shards' PAA segment count, so the lower length bound
// is 1 and a too-short prefix comes back as the shard's 400. The explain
// flag rides in the frame, so each shard answers with its own span tree
// and planner explanation for the router to nest.
func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request, prefix bool) {
	body, release, ok := r.admitAndRead(w, req)
	if !ok {
		return
	}
	defer release()
	seriesLen, err := r.requireSeriesLen(req.Context())
	if err != nil {
		r.m.errors.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	var sreq *api.SearchRequest
	path := "/search"
	if prefix {
		path = "/search/prefix"
		sreq, err = api.DecodePrefixRequest(body.B, 1, seriesLen, r.cfg.MaxK)
	} else {
		sreq, err = api.DecodeSearchRequest(body.B, seriesLen, r.cfg.MaxK)
	}
	body.Release()
	if err != nil {
		r.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}

	ctx, tr := r.observe.TraceFor(req.Context(), strings.TrimPrefix(path, "/"), sreq.Explain)
	ssp := tr.Root().StartChild("scatter")
	oks, asked, err := r.scatter(obs.ContextWithSpan(ctx, ssp), path, api.AppendFrame(nil, sreq))
	ssp.End()
	if err != nil {
		api.FinishTrace(req.Context(), tr, nil)
		r.finish(w, err)
		return
	}
	msp := tr.Root().StartChild("merge")
	resp, err := r.gatherSearch(oks, sreq.K, sreq.Explain)
	msp.End()
	if resp != nil {
		resp.Trace = api.FinishTrace(req.Context(), tr, resp.Stats)
		if !sreq.Explain {
			resp.Trace = nil
		}
	} else {
		api.FinishTrace(req.Context(), tr, nil)
	}
	if !r.finish(w, err) {
		return
	}
	resp.ShardsAsked = asked
	if resp.ShardsAnswered < len(r.topo.Shards) {
		resp.Partial = true
	}
	if resp.Partial {
		r.m.partials.Add(1)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	body, release, ok := r.admitAndRead(w, req)
	if !ok {
		return
	}
	defer release()
	seriesLen, err := r.requireSeriesLen(req.Context())
	if err != nil {
		r.m.errors.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	breq, err := api.DecodeBatchRequest(body.B, seriesLen, r.cfg.MaxK, r.cfg.MaxBatch)
	body.Release()
	if err != nil {
		r.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}

	ctx, tr := r.observe.TraceFor(req.Context(), "batch", breq.Explain)
	ssp := tr.Root().StartChild("scatter")
	oks, asked, err := r.scatter(obs.ContextWithSpan(ctx, ssp), "/search/batch", api.AppendFrame(nil, breq))
	ssp.End()
	if err != nil {
		api.FinishTrace(req.Context(), tr, nil)
		r.finish(w, err)
		return
	}
	msp := tr.Root().StartChild("merge")
	// Decode every shard's batch and merge query-by-query.
	perShard := make([]*api.BatchResponse, len(oks))
	budgetPartial := false
	steps := 0
	for i, rep := range oks {
		var br api.BatchResponse
		err := api.DecodeFrame(rep.body.B, &br)
		rep.body.Release()
		if err != nil || len(br.Results) != len(breq.Queries) {
			msp.End()
			api.FinishTrace(req.Context(), tr, nil)
			r.finish(w, fmt.Errorf("shard %s: malformed batch response", r.topo.Shards[rep.shard].ID))
			return
		}
		perShard[i] = &br
		steps += br.StepsExecuted
		if br.Partial {
			budgetPartial = true
		}
		if breq.Explain {
			rep.span.AddChildData(br.Trace)
		}
	}
	if budgetPartial {
		r.m.budgetExh.Add(1)
	}
	out := &BatchResponse{
		Results:        make([][]api.Result, len(breq.Queries)),
		ShardsAsked:    asked,
		ShardsAnswered: len(oks),
		Partial:        budgetPartial || len(oks) < len(r.topo.Shards),
		StepsExecuted:  steps,
	}
	for q := range breq.Queries {
		answers := make([]answer, 0, len(oks))
		for i, rep := range oks {
			answers = append(answers, answer{shard: rep.shard, results: perShard[i].Results[q]})
		}
		merged, dups := r.topo.mergeTopK(answers, breq.K)
		r.m.dups.Add(int64(dups))
		out.Results[q] = merged
	}
	msp.End()
	trace := api.FinishTrace(req.Context(), tr, batchSummary{Queries: len(breq.Queries), StepsExecuted: steps})
	if breq.Explain {
		out.Trace = trace
	}
	if out.Partial {
		r.m.partials.Add(1)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// batchSummary is the slow-query-log stats shape for a routed batch: a
// compact roll-up; per-shard detail lives under the trace's scatter span.
type batchSummary struct {
	Queries       int `json:"queries"`
	StepsExecuted int `json:"steps_executed"`
}

// handleAppend places each incoming series on a shard by rendezvous
// hashing over the record's global append sequence number, forwards the
// per-shard sub-batches concurrently, and maps the shards' local ID acks
// into global IDs, in input order.
//
// Durability is per shard: a sub-batch acked by its shard is durable even
// if another shard's sub-batch fails and the whole request reports 502. A
// retry after a partial failure may therefore duplicate the series that
// did land (under fresh IDs); exactly-once routed appends need a dedupe
// key and are a documented follow-up.
func (r *Router) handleAppend(w http.ResponseWriter, req *http.Request) {
	body, release, ok := r.admitAndRead(w, req)
	if !ok {
		return
	}
	defer release()
	seriesLen, err := r.requireSeriesLen(req.Context())
	if err != nil {
		r.m.errors.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	areq, err := api.DecodeAppendRequest(body.B, seriesLen, r.cfg.MaxAppend)
	body.Release()
	if err != nil {
		r.m.badRequests.Add(1)
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}

	// Route every series: rendezvous order, first healthy shard wins. A
	// topology where nothing is up falls back to the rendezvous owner so
	// the failure surfaces as that shard's connection error.
	type subBatch struct {
		series [][]float64
		pos    []int // positions in the request, to restore input order
	}
	subs := make(map[int]*subBatch)
	for pos, s := range areq.Series {
		key := uint64(r.appendSeq.Add(1) - 1)
		rank := r.topo.Rank(key)
		target := rank[0]
		for _, cand := range rank {
			if r.up[cand].Load() {
				target = cand
				break
			}
		}
		sb := subs[target]
		if sb == nil {
			sb = &subBatch{}
			subs[target] = sb
		}
		sb.series = append(sb.series, s)
		sb.pos = append(sb.pos, pos)
	}

	type appendReply struct {
		shard int
		ids   []int
		err   error
	}
	replies := make(chan appendReply, len(subs))
	for shard, sb := range subs {
		go func(shard int, sb *subBatch) {
			frame := api.AppendFrame(nil, &api.AppendRequest{Series: sb.series})
			raw, err := r.forward(req.Context(), shard, "/append", api.Frame, frame)
			var ar api.AppendResponse
			if err == nil {
				err = api.DecodeFrame(raw.B, &ar)
				raw.Release()
			}
			if err == nil && len(ar.IDs) != len(sb.series) {
				err = fmt.Errorf("acked %d of %d series", len(ar.IDs), len(sb.series))
			}
			replies <- appendReply{shard: shard, ids: ar.IDs, err: err}
		}(shard, sb)
	}
	ids := make([]int, len(areq.Series))
	var firstErr error
	for range subs {
		rep := <-replies
		if rep.err != nil {
			r.m.shardErrs[rep.shard].Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %s: %w", r.topo.Shards[rep.shard].ID, rep.err)
			}
			continue
		}
		for i, local := range rep.ids {
			ids[subs[rep.shard].pos[i]] = r.topo.GlobalID(rep.shard, local)
		}
	}
	if !r.finish(w, firstErr) {
		return
	}
	r.m.appendSer.Add(int64(len(areq.Series)))
	api.WriteJSON(w, http.StatusOK, api.AppendResponse{IDs: ids})
}

// fanoutPost is the shared shape of the administrative endpoints (/flush,
// /reindex, /backup): POST body to every shard concurrently; all must
// succeed. It returns the first shard error, nil when every shard answered.
func (r *Router) fanoutPost(req *http.Request, path string, body []byte) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.topo.Shards))
	for i := range r.topo.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.forward(req.Context(), i, path, api.JSON, body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			r.m.shardErrs[i].Add(1)
			return fmt.Errorf("shard %s: %w", r.topo.Shards[i].ID, err)
		}
	}
	return nil
}

// handleFlush fans the flush out to every shard; all must succeed.
func (r *Router) handleFlush(w http.ResponseWriter, req *http.Request) {
	release, status, err := r.lim.Admit(req.Context())
	if err != nil {
		api.WriteError(w, status, err)
		return
	}
	defer release()
	r.m.flushes.Add(1)
	if !r.finish(w, r.fanoutPost(req, "/flush", []byte("{}"))) {
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "flushed"})
}

// handleReindex fans an online reindex out to every shard; all must
// succeed. A shard already reindexing answers 409, which relays to the
// client as a 4xx via finish's shard-status mapping. No admission slot is
// held: a reindex runs for minutes and must not starve the query budget.
func (r *Router) handleReindex(w http.ResponseWriter, req *http.Request) {
	r.m.reindexes.Add(1)
	if !r.finish(w, r.fanoutPost(req, "/reindex", []byte("{}"))) {
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "reindexed"})
}

// handleBackup forwards the backup request verbatim to every shard: each
// writes a snapshot named by the request under its own configured backup
// root. All must succeed; a shard without a backup root answers 403, which
// relays as a 4xx.
func (r *Router) handleBackup(w http.ResponseWriter, req *http.Request) {
	r.m.backups.Add(1)
	body, status, err := api.ReadBody(w, req, r.cfg.MaxBodyBytes, r.cfg.BodyReadTimeout)
	if err != nil {
		r.m.badRequests.Add(1)
		api.WriteError(w, status, err)
		return
	}
	// body is not released: fanoutPost hands it to the transport (see forward).
	if !r.finish(w, r.fanoutPost(req, "/backup", body.B)) {
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "backed_up"})
}

func (r *Router) handleInfo(w http.ResponseWriter, req *http.Request) {
	info, err := r.aggregateInfo(req.Context())
	if err != nil {
		r.m.errors.Add(1)
		api.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no shard reachable: %w", err))
		return
	}
	api.WriteJSON(w, http.StatusOK, info)
}

// handleStats reports the router's own counters plus every reachable
// shard's /stats body verbatim under its shard ID; unreachable shards map
// to an error object instead.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	resp := StatsResponse{
		Router: r.m.snapshot(time.Since(r.started)),
		Shards: make(map[string]json.RawMessage, len(r.topo.Shards)),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range r.topo.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := r.getShard(req.Context(), i, "/stats", 2*time.Second)
			if err != nil || !json.Valid(raw) {
				raw, _ = json.Marshal(api.ErrorResponse{Error: fmt.Sprintf("unreachable: %v", err)})
			}
			mu.Lock()
			resp.Shards[r.topo.Shards[i].ID] = json.RawMessage(raw)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz aggregates the shard health picture: 200 with "ok" when
// every shard is up, 200 with "degraded" while the read policy can still
// be served, 503 otherwise.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	resp := HealthzResponse{Shards: make(map[string]string, len(r.topo.Shards))}
	healthy := 0
	for i := range r.topo.Shards {
		state := "down"
		if r.up[i].Load() {
			state = "up"
			healthy++
		}
		resp.Shards[r.topo.Shards[i].ID] = state
	}
	switch {
	case healthy == len(r.topo.Shards):
		resp.Status = "ok"
		api.WriteJSON(w, http.StatusOK, resp)
	case healthy >= r.quorumNeed():
		resp.Status = "degraded"
		api.WriteJSON(w, http.StatusOK, resp)
	default:
		resp.Status = "unavailable"
		api.WriteJSON(w, http.StatusServiceUnavailable, resp)
	}
}

func (m *rmetrics) snapshot(uptime time.Duration) RouterStats {
	var shardErrs int64
	for i := range m.shardErrs {
		shardErrs += m.shardErrs[i].Load()
	}
	return RouterStats{
		Searches:          m.searches.Load(),
		Batches:           m.batches.Load(),
		PrefixSearches:    m.prefixes.Load(),
		Appends:           m.appends.Load(),
		AppendSeries:      m.appendSer.Load(),
		Flushes:           m.flushes.Load(),
		Reindexes:         m.reindexes.Load(),
		Backups:           m.backups.Load(),
		BadRequests:       m.badRequests.Load(),
		Rejected:          m.rejected.Load(),
		Canceled:          m.canceled.Load(),
		Errors:            m.errors.Load(),
		PartialAnswers:    m.partials.Load(),
		BudgetExhausted:   m.budgetExh.Load(),
		DuplicatesDropped: m.dups.Load(),
		ShardErrors:       shardErrs,
		InFlight:          m.inflight.Load(),
		Queued:            m.queued.Load(),
		UptimeSeconds:     uptime.Seconds(),
	}
}

// handleMetrics renders the router's Prometheus exposition: request and
// outcome counters, scatter health gauges per shard, and the read/write
// latency histograms.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder
	m := &r.m
	metric := func(name, help, kind string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	counter := func(name, help string, v int64) { metric(name, help, "counter", v) }
	gauge := func(name, help string, v int64) { metric(name, help, "gauge", v) }
	fmt.Fprintf(&b, "# HELP climber_build_info Build identity of this router; constant 1.\n# TYPE climber_build_info gauge\n")
	fmt.Fprintf(&b, "climber_build_info{version=%q,role=\"router\",shards=\"%d\"} 1\n", climber.Version, len(r.topo.Shards))
	counter("climber_router_search_requests_total", "Answered /search requests.", m.searches.Load())
	counter("climber_router_batch_requests_total", "Answered /search/batch requests.", m.batches.Load())
	counter("climber_router_prefix_requests_total", "Answered /search/prefix requests.", m.prefixes.Load())
	counter("climber_router_append_requests_total", "Answered /append requests.", m.appends.Load())
	counter("climber_router_append_series_total", "Series inside successful appends.", m.appendSer.Load())
	counter("climber_router_flush_requests_total", "Answered /flush requests.", m.flushes.Load())
	counter("climber_router_reindex_requests_total", "Answered /reindex requests.", m.reindexes.Load())
	counter("climber_router_backup_requests_total", "Answered /backup requests.", m.backups.Load())
	counter("climber_router_bad_requests_total", "Requests rejected with 400.", m.badRequests.Load())
	counter("climber_router_rejected_total", "Requests rejected with 429 by admission control.", m.rejected.Load())
	counter("climber_router_canceled_total", "Requests aborted by client disconnect.", m.canceled.Load())
	counter("climber_router_errors_total", "Requests failed by shard loss or quorum.", m.errors.Load())
	counter("climber_router_partial_answers_total", "Partial answers: shard-subset merges or budget-truncated shard answers.", m.partials.Load())
	counter("climber_router_budget_exhausted_total", "Answers partial because at least one shard's query budget ran out.", m.budgetExh.Load())
	counter("climber_router_duplicates_dropped_total", "Duplicate global IDs dropped by the top-k merge.", m.dups.Load())
	gauge("climber_router_inflight_requests", "Requests currently holding an admission slot.", m.inflight.Load())
	gauge("climber_router_queued_requests", "Requests currently waiting for an admission slot.", m.queued.Load())
	counter("climber_router_traced_queries_total", "Routed queries that ran with tracing attached (explain, sampled, or propagated).", m.traced.Load())
	counter("climber_router_slow_log_entries_total", "Routed requests recorded in the slow-query log (threshold or sampled).", r.observe.Slow.Total())
	counter("climber_router_partitions_scanned_total", "Partitions the shards scanned for routed answers.", m.partScanned.Load())
	counter("climber_router_partition_cache_hits_total", "Shard partition-cache hits inside routed answers.", m.cacheHits.Load())
	counter("climber_router_partition_cache_misses_total", "Shard partition-cache misses inside routed answers.", m.cacheMisses.Load())
	counter("climber_router_delta_scanned_total", "Delta records the shards scanned for routed answers.", m.deltaRecs.Load())

	fmt.Fprintf(&b, "# HELP climber_router_shard_up Shard health per the last probe (1 up, 0 down).\n# TYPE climber_router_shard_up gauge\n")
	for i := range r.topo.Shards {
		v := 0
		if r.up[i].Load() {
			v = 1
		}
		fmt.Fprintf(&b, "climber_router_shard_up{shard=%q} %d\n", r.topo.Shards[i].ID, v)
	}
	fmt.Fprintf(&b, "# HELP climber_router_shard_errors_total Failed sub-requests per shard.\n# TYPE climber_router_shard_errors_total counter\n")
	for i := range r.topo.Shards {
		fmt.Fprintf(&b, "climber_router_shard_errors_total{shard=%q} %d\n", r.topo.Shards[i].ID, m.shardErrs[i].Load())
	}
	r.renderShardCacheGauges(req.Context(), &b)

	m.latency.Render(&b, "climber_router_query_latency_seconds",
		"End-to-end routed query latency, every outcome included (200s, 400s, 429s).")
	m.appendLat.Render(&b, "climber_router_append_latency_seconds",
		"End-to-end routed append latency (admission to global ack).")
	for i, st := range rstageNames {
		m.stageLat[st].RenderLabeled(&b, "climber_router_stage_latency_seconds",
			fmt.Sprintf("stage=%q", st),
			"Per-router-stage latency of traced routed queries.", i == 0)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// renderShardCacheGauges polls every reachable shard's /stats and emits
// per-shard partition-cache residency gauges plus fleet totals — the
// router-level view of how much memory the shards' zero-copy read paths
// hold resident (and how much of it is reclaimable mapped pages).
// Unreachable shards are skipped; their absence is visible through
// climber_router_shard_up.
func (r *Router) renderShardCacheGauges(ctx context.Context, b *strings.Builder) {
	type cacheBytes struct {
		Cache struct {
			ResidentBytes int64
			MappedBytes   int64
		} `json:"cache"`
	}
	byShard := make([]cacheBytes, len(r.topo.Shards))
	ok := make([]bool, len(r.topo.Shards))
	var wg sync.WaitGroup
	for i := range r.topo.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := r.getShard(ctx, i, "/stats", 2*time.Second)
			if err != nil {
				return
			}
			ok[i] = json.Unmarshal(raw, &byShard[i]) == nil
		}(i)
	}
	wg.Wait()
	var resident, mapped int64
	fmt.Fprintf(b, "# HELP climber_router_shard_cache_resident_bytes Per-shard partition-cache resident bytes.\n# TYPE climber_router_shard_cache_resident_bytes gauge\n")
	for i := range r.topo.Shards {
		if !ok[i] {
			continue
		}
		fmt.Fprintf(b, "climber_router_shard_cache_resident_bytes{shard=%q} %d\n", r.topo.Shards[i].ID, byShard[i].Cache.ResidentBytes)
		resident += byShard[i].Cache.ResidentBytes
		mapped += byShard[i].Cache.MappedBytes
	}
	fmt.Fprintf(b, "# HELP climber_router_shard_cache_mapped_bytes Per-shard partition-cache memory-mapped bytes.\n# TYPE climber_router_shard_cache_mapped_bytes gauge\n")
	for i := range r.topo.Shards {
		if ok[i] {
			fmt.Fprintf(b, "climber_router_shard_cache_mapped_bytes{shard=%q} %d\n", r.topo.Shards[i].ID, byShard[i].Cache.MappedBytes)
		}
	}
	fmt.Fprintf(b, "# HELP climber_router_cache_resident_bytes Partition-cache resident bytes summed over reachable shards.\n# TYPE climber_router_cache_resident_bytes gauge\nclimber_router_cache_resident_bytes %d\n", resident)
	fmt.Fprintf(b, "# HELP climber_router_cache_mapped_bytes Partition-cache mapped bytes summed over reachable shards.\n# TYPE climber_router_cache_mapped_bytes gauge\nclimber_router_cache_mapped_bytes %d\n", mapped)
}
