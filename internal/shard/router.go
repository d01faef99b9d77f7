package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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

// Router scatter-gathers CLIMBER queries over the shards of a Topology. It
// is the api.Backend behind the same api.Service front a single-node server
// mounts, so the dialect it speaks is not its own to get wrong. Create it
// with NewRouter, mount its Service's Handler, and Close it on shutdown to
// stop the health prober.
type Router struct {
	topo *Topology
	cfg  Config
	// maxReply bounds one shard reply (api.MaxReplyBytes over the router's
	// own MaxK, MaxBatch and MaxBodyBytes): a shard that streams past it is
	// a failed shard, not a reason to run out of memory.
	maxReply int64
	// front is the api.Service this router is the Backend of; c the counter
	// table of rows.go both move.
	front *api.Service
	c     *api.Counters
	// shardErrs counts failed sub-requests, indexed like topo.Shards.
	shardErrs []atomic.Int64

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
	healthDone chan struct{}
	closeOnce  sync.Once

	// probeCtx is the health prober's root context; Close cancels it so
	// the loop ends and in-flight /healthz probes abort instead of running
	// out their timeout while Close waits on healthDone.
	probeCtx    context.Context
	probeCancel context.CancelFunc
}

// NewRouter builds a router over a validated topology and starts its
// background health prober. Every shard starts optimistically marked up;
// the first probe round corrects that within HealthInterval.
func NewRouter(t *Topology, cfg Config) *Router {
	r := &Router{
		topo:       t,
		cfg:        cfg.withDefaults(),
		up:         make([]atomic.Bool, len(t.Shards)),
		healthDone: make(chan struct{}),
	}
	// The prober outlives any request, so its root cannot come from a
	// caller: it is a background root owned by the Router, and Close
	// cancels it.
	r.probeCtx, r.probeCancel = context.WithCancel(context.Background())
	r.maxReply = api.MaxReplyBytes(r.cfg.MaxK, r.cfg.MaxBatch, r.cfg.MaxBodyBytes)
	r.shardErrs = make([]atomic.Int64, len(t.Shards))
	r.c = api.NewCounters(r.rows())
	r.front = api.NewService(r, r.cfg.ServeConfig)
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
		<-r.healthDone
		r.cfg.Client.CloseIdleConnections()
	})
}

// Service is the front the router stands behind: its Handler is the same
// endpoint set a single climber-serve exposes, so clients need not know they
// talk to a sharded deployment.
func (r *Router) Service() *api.Service { return r.front }

// healthLoop probes every shard's /healthz each HealthInterval and flips
// the per-shard up flags the scatter and append paths consult.
func (r *Router) healthLoop() {
	defer close(r.healthDone)
	r.probeAll() // correct the optimistic start immediately
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.probeCtx.Done():
			return
		case <-ticker.C:
			r.probeAll()
		}
	}
}

// eachShard runs fn for every shard of the topology concurrently and
// returns once all have finished. fn keeps what it learned in a slot of its
// own; its error comes back in the slot indexed like topo.Shards. Every
// fan-out but the query scatter, which stops early, is this one.
func (r *Router) eachShard(fn func(shard int) error) []error {
	errs := make([]error, len(r.topo.Shards))
	var wg sync.WaitGroup
	for i := range r.topo.Shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// shardErr names the shard an error came from.
func (r *Router) shardErr(shard int, err error) error {
	return fmt.Errorf("shard %s: %w", r.topo.Shards[shard].ID, err)
}

// firstFailure counts every failed slot of an eachShard round against its
// shard and returns the first, nil when all succeeded.
func (r *Router) firstFailure(errs []error) error {
	var first error
	for i, err := range errs {
		if err != nil {
			r.shardErrs[i].Add(1)
			if first == nil {
				first = r.shardErr(i, err)
			}
		}
	}
	return first
}

func (r *Router) probeAll() {
	timeout := min(r.cfg.HealthInterval, 2*time.Second)
	r.eachShard(func(i int) error {
		_, err := r.getShard(r.probeCtx, i, "/healthz", timeout)
		r.up[i].Store(err == nil)
		return nil
	})
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
	return min(r.cfg.Quorum, len(r.topo.Shards))
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
	resp, err := r.cfg.Client.Do(req)
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
	for i := range r.topo.Shards {
		if all || r.up[i].Load() {
			targets = append(targets, i)
		} else {
			r.shardErrs[i].Add(1)
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
			r.shardErrs[rep.shard].Add(1)
			werr := r.shardErr(rep.shard, rep.err)
			if all {
				// Fail fast: stop the survivors, drain nothing more.
				cancel()
				return nil, len(targets), werr
			}
			if firstErr == nil {
				firstErr = werr
			}
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

// Classify maps the scatter's own error classes to statuses: a shard's 4xx
// is the client's error relayed with the shard's status (its 429 is the
// fleet shedding load, not the client being wrong), a lost quorum is 503,
// and any other shard failure 502.
func (r *Router) Classify(err error) (status int, counter string) {
	var q errQuorum
	var se errShardStatus
	switch {
	case errors.As(err, &se) && se.status == http.StatusTooManyRequests:
		return se.status, "rejected"
	case errors.As(err, &se) && se.status >= 400 && se.status < 500:
		// E.g. a prefix shorter than the shards' PAA segment count, which
		// the router cannot pre-validate; a shard already reindexing (409);
		// a shard without a backup root (403).
		return se.status, "bad_requests"
	case errors.As(err, &q):
		return http.StatusServiceUnavailable, "errors"
	}
	return http.StatusBadGateway, "errors"
}

// Shape returns the indexed series length, learning it from the shards'
// /info on first need. A router that has never reached any shard cannot
// validate queries and the front answers 503. It does not know the shards'
// PAA segment count, so the lower prefix bound is 1 and a too-short prefix
// comes back as the shard's 400.
func (r *Router) Shape(ctx context.Context) (api.Shape, error) {
	if r.seriesLen.Load() == 0 {
		if _, err := r.aggregateInfo(ctx, "no shard reachable to learn the index shape"); err != nil {
			return api.Shape{}, err
		}
	}
	return api.Shape{SeriesLen: int(r.seriesLen.Load()), MinPrefix: 1}, nil
}

// Info is the router's GET /info.
func (r *Router) Info(ctx context.Context) (any, error) {
	return r.aggregateInfo(ctx, "no shard reachable")
}

// aggregateInfo fans GET /info out to every shard and folds the answers:
// counts are summed once per ID namespace (read replicas share one), the
// generation is the lowest any shard reports — the fleet has finished
// reindex N when every shard has — the series length is learned and cached,
// and the append sequence is seeded from the aggregate record count. Shards
// that disagree on the series length are refused: every query would be
// validated against an arbitrary one of them. unreachable words the error of
// a fleet in which no shard answered: a query endpoint adds what it needed
// the shards for.
func (r *Router) aggregateInfo(ctx context.Context, unreachable string) (*InfoResponse, error) {
	infos := make([]api.InfoResponse, len(r.topo.Shards))
	errs := r.eachShard(func(i int) error {
		raw, err := r.getShard(ctx, i, "/info", r.cfg.ShardTimeout)
		if err != nil {
			return err
		}
		return api.DecodeJSON(raw, &infos[i])
	})
	out := &InfoResponse{NumShards: len(r.topo.Shards)}
	seenBase := make(map[int]struct{})
	first := -1 // the first shard that answered
	for i, info := range infos {
		if errs[i] != nil {
			continue
		}
		out.ShardsAnswered++
		if first < 0 {
			first = i
			out.SeriesLen, out.Generation = info.SeriesLen, info.Generation
		}
		if info.SeriesLen != out.SeriesLen {
			r.seriesLen.Store(0)
			return nil, fmt.Errorf("shards disagree on the series length: %s indexes %d, %s indexes %d",
				r.topo.Shards[first].ID, out.SeriesLen, r.topo.Shards[i].ID, info.SeriesLen)
		}
		out.Generation = min(out.Generation, info.Generation)
		base := *r.topo.Shards[i].IDBase
		if _, dup := seenBase[base]; dup {
			continue // a read replica of a namespace already counted
		}
		seenBase[base] = struct{}{}
		out.NumRecords += info.NumRecords
		out.NumGroups += info.NumGroups
		out.NumPartitions += info.NumPartitions
		out.SkeletonBytes += info.SkeletonBytes
	}
	if first < 0 {
		return nil, fmt.Errorf("%s: %w", unreachable, r.shardErr(0, errs[0]))
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
func (r *Router) gatherSearch(oks []reply, k int, explain bool) (*api.SearchResponse, error) {
	answers := make([]answer, 0, len(oks))
	stats := make([]climber.Stats, 0, len(oks))
	out := &api.SearchResponse{ShardsAnswered: len(oks)}
	for _, rep := range oks {
		var sr api.SearchResponse
		err := api.DecodeFrame(rep.body.B, &sr)
		rep.body.Release()
		if err != nil {
			return nil, r.shardErr(rep.shard, fmt.Errorf("malformed response: %w", err))
		}
		answers = append(answers, answer{shard: rep.shard, results: sr.Results})
		stats = append(stats, sr.Stats)
		out.StepsExecuted += sr.StepsExecuted
		out.Partial = out.Partial || sr.Partial
		if explain {
			rep.span.AddChildData(sr.Trace)
			if ed := sr.Explain[""]; ed != nil {
				if out.Explain == nil {
					out.Explain = make(map[string]*api.ExplainData, len(oks))
				}
				out.Explain[r.topo.Shards[rep.shard].ID] = ed
			}
		}
	}
	var dups int
	out.Results, dups = r.topo.mergeTopK(answers, k)
	r.c.Add("duplicates_dropped", int64(dups))
	out.Stats = sumStats(stats)
	// The effort counters show the scan volume the routed traffic is costing
	// the fleet.
	r.c.Add("partitions_scanned", int64(out.Stats.PartitionsScanned))
	r.c.Add("cache_hits", int64(out.Stats.PartitionCacheHits))
	r.c.Add("cache_misses", int64(out.Stats.PartitionCacheMisses))
	r.c.Add("delta_scanned", int64(out.Stats.DeltaScanned))
	return out, nil
}

// scatterMerge is the shape of every routed read: the decoded request
// crosses the hop as one frame built from it — the shards never see the
// client's text, and the explain flag rides in the frame, so each shard
// answers with its own span tree for the router to nest — under a "scatter"
// span, and merge folds the answers under a "merge" span. It reports how
// many shards were asked.
func (r *Router) scatterMerge(ctx context.Context, path string, req any, merge func(oks []reply) error) (asked int, err error) {
	root := obs.SpanFromContext(ctx)
	ssp := root.StartChild("scatter")
	oks, asked, err := r.scatter(obs.ContextWithSpan(ctx, ssp), path, api.AppendFrame(nil, req))
	ssp.End()
	if err != nil {
		return asked, err
	}
	msp := root.StartChild("merge")
	defer msp.End()
	return asked, merge(oks)
}

// notePartial settles an answer's partial marker: a budget stopped a shard
// (budgetPartial), or fewer shards answered than the topology holds.
func (r *Router) notePartial(budgetPartial bool, answered int) (partial bool) {
	if budgetPartial {
		r.c.Add("budget_exhausted", 1)
	}
	partial = budgetPartial || answered < len(r.topo.Shards)
	if partial {
		r.c.Add("partial_answers", 1)
	}
	return partial
}

// Search answers /search and /search/prefix by scatter and merge.
func (r *Router) Search(ctx context.Context, req *api.SearchRequest, prefix bool) (resp *api.SearchResponse, err error) {
	path := "/search"
	if prefix {
		path = "/search/prefix"
	}
	asked, err := r.scatterMerge(ctx, path, req, func(oks []reply) (err error) {
		resp, err = r.gatherSearch(oks, req.K, req.Explain)
		return err
	})
	if err != nil {
		return nil, err
	}
	resp.ShardsAsked = asked
	resp.Partial = r.notePartial(resp.Partial, resp.ShardsAnswered)
	return resp, nil
}

// Batch scatters the whole batch and merges it query by query. It asks for
// no extra admission slots: its concurrency is the shards'.
func (r *Router) Batch(ctx context.Context, req *api.BatchRequest, _ func(int) int) (*api.BatchResponse, error) {
	out := &api.BatchResponse{Results: make([][]api.Result, len(req.Queries))}
	budgetPartial := false
	asked, err := r.scatterMerge(ctx, "/search/batch", req, func(oks []reply) error {
		perShard := make([]api.BatchResponse, len(oks))
		for i, rep := range oks {
			err := api.DecodeFrame(rep.body.B, &perShard[i])
			rep.body.Release()
			if err != nil || len(perShard[i].Results) != len(req.Queries) {
				return r.shardErr(rep.shard, errors.New("malformed batch response"))
			}
			out.StepsExecuted += perShard[i].StepsExecuted
			budgetPartial = budgetPartial || perShard[i].Partial
			if req.Explain {
				rep.span.AddChildData(perShard[i].Trace)
			}
		}
		for q := range req.Queries {
			answers := make([]answer, 0, len(oks))
			for i, rep := range oks {
				answers = append(answers, answer{shard: rep.shard, results: perShard[i].Results[q]})
			}
			var dups int
			out.Results[q], dups = r.topo.mergeTopK(answers, req.K)
			r.c.Add("duplicates_dropped", int64(dups))
		}
		out.ShardsAnswered = len(oks)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.ShardsAsked = asked
	out.Partial = r.notePartial(budgetPartial, out.ShardsAnswered)
	return out, nil
}

// Append places each incoming series on a shard by rendezvous hashing over
// the record's global append sequence number, forwards the per-shard
// sub-batches concurrently, and maps the shards' local ID acks into global
// IDs, in input order.
//
// Durability is per shard: a sub-batch acked by its shard is durable even
// if another shard's sub-batch fails and the whole request reports 502. A
// retry after a partial failure may therefore duplicate the series that
// did land (under fresh IDs); exactly-once routed appends need a dedupe
// key and are a documented follow-up.
func (r *Router) Append(ctx context.Context, req *api.AppendRequest) (*api.AppendResponse, error) {
	// Route every series: rendezvous order, first healthy shard wins. A
	// topology where nothing is up falls back to the rendezvous owner so
	// the failure surfaces as that shard's connection error.
	type subBatch struct {
		series [][]float64
		pos    []int // positions in the request, to restore input order
	}
	subs := make([]subBatch, len(r.topo.Shards))
	for pos, s := range req.Series {
		key := uint64(r.appendSeq.Add(1) - 1)
		rank := r.topo.Rank(key)
		target := rank[0]
		for _, cand := range rank {
			if r.up[cand].Load() {
				target = cand
				break
			}
		}
		subs[target].series = append(subs[target].series, s)
		subs[target].pos = append(subs[target].pos, pos)
	}

	ids := make([]int, len(req.Series))
	err := r.firstFailure(r.eachShard(func(shard int) error {
		sb := subs[shard]
		if len(sb.series) == 0 {
			return nil
		}
		frame := api.AppendFrame(nil, &api.AppendRequest{Series: sb.series})
		raw, err := r.forward(ctx, shard, "/append", api.Frame, frame)
		if err != nil {
			return err
		}
		var ar api.AppendResponse
		err = api.DecodeFrame(raw.B, &ar)
		raw.Release()
		if err != nil {
			return err
		}
		if len(ar.IDs) != len(sb.series) {
			return fmt.Errorf("acked %d of %d series", len(ar.IDs), len(sb.series))
		}
		for i, local := range ar.IDs {
			ids[sb.pos[i]] = r.topo.GlobalID(shard, local)
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return &api.AppendResponse{IDs: ids}, nil
}

// Admin fans /flush, /reindex and /backup out to every shard, a backup's
// body verbatim (each shard writes a snapshot of that name under its own
// backup root); all must succeed. It returns the first shard error: a shard
// already reindexing answers 409 and one without a backup root 403, which
// Classify relays.
func (r *Router) Admin(ctx context.Context, op string, body []byte) (map[string]any, error) {
	return nil, r.firstFailure(r.eachShard(func(shard int) error {
		_, err := r.forward(ctx, shard, "/"+op, api.JSON, body)
		return err
	}))
}

// shardStats fetches every shard's GET /stats body; unreachable shards
// leave an error in their slot.
func (r *Router) shardStats(ctx context.Context) ([][]byte, []error) {
	raws := make([][]byte, len(r.topo.Shards))
	return raws, r.eachShard(func(i int) (err error) {
		raws[i], err = r.getShard(ctx, i, "/stats", 2*time.Second)
		if err == nil && !json.Valid(raws[i]) {
			err = errors.New("malformed /stats body")
		}
		return err
	})
}

// Stats reports every reachable shard's /stats body verbatim under its
// shard ID; unreachable shards map to an error object instead.
func (r *Router) Stats(ctx context.Context) api.Object {
	raws, errs := r.shardStats(ctx)
	shards := make(map[string]json.RawMessage, len(raws))
	for i, raw := range raws {
		if errs[i] != nil {
			raw, _ = json.Marshal(api.ErrorResponse{Error: fmt.Sprintf("unreachable: %v", errs[i])})
		}
		shards[r.topo.Shards[i].ID] = json.RawMessage(raw)
	}
	return api.Object{{Key: "shards", Value: shards}}
}

// Health aggregates the shard health picture: "ok" when every shard is up,
// "degraded" while the read policy can still be served, and "unavailable"
// with a 503 otherwise.
func (r *Router) Health() (int, any) {
	resp := HealthzResponse{Status: "ok", Shards: make(map[string]string, len(r.topo.Shards))}
	for i := range r.topo.Shards {
		state := "down"
		if r.up[i].Load() {
			state = "up"
		}
		resp.Shards[r.topo.Shards[i].ID] = state
	}
	switch healthy := r.Healthy(); {
	case healthy == len(r.topo.Shards):
	case healthy >= r.quorumNeed():
		resp.Status = "degraded"
	default:
		resp.Status = "unavailable"
		return http.StatusServiceUnavailable, resp
	}
	return http.StatusOK, resp
}
