package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/obs"
)

// answer is the union of the response bodies the load generator reads:
// /search and /search/prefix (results, stats, trace), /search/batch
// (batch results, trace) and /append (ids). The router's bodies are
// supersets of the single node's, so one shape decodes both.
type answer struct {
	Results json.RawMessage `json:"results"`
	Stats   climber.Stats   `json:"stats"`
	Partial bool            `json:"partial"`
	IDs     []int           `json:"ids"`
	Trace   *obs.SpanData   `json:"trace"`
}

// sample is one completed request.
type sample struct {
	kind    opKind
	latency time.Duration // closed: send -> body read; paced: due -> body read
	late    time.Duration // paced only: dispatch - due
	failed  bool
	at      time.Time // when the reply was fully read
}

// tracedSample keeps what the span analysis needs from one traced request.
type tracedSample struct {
	kind   opKind
	client time.Duration // the bench's own span around the HTTP call
	trace  *obs.SpanData
}

// phaseResult is everything one phase observed.
type phaseResult struct {
	began   time.Time
	elapsed time.Duration
	samples []sample
	traced  []tracedSample
	errs    []string // first few failure descriptions

	// Sums over successful search/prefix answers' stats (the R source).
	searchAnswers int64
	results       int64
	stats         climber.Stats // summed field by field
	partial       int64

	// acked appends: pool index of the first series and the IDs returned.
	acks []appendAck
}

type appendAck struct {
	first int
	ids   []int
}

func (r *phaseResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// answered is how many queries the sample answered: a batch of 8 counts
// 8, an append or a failed request none.
func (s sample) answered() int {
	switch {
	case s.failed:
		return 0
	case s.kind == opSearch, s.kind == opPrefix:
		return 1
	case s.kind == opBatch:
		return batchSize
	}
	return 0
}

// queries counts answered queries.
func (r *phaseResult) queries() int {
	n := 0
	for _, s := range r.samples {
		n += s.answered()
	}
	return n
}

func (r *phaseResult) latencies(kind opKind) []time.Duration {
	var out []time.Duration
	for _, s := range r.samples {
		if s.kind == kind && !s.failed {
			out = append(out, s.latency)
		}
	}
	return out
}

// The gated throughput comes from the quietest seconds of the closed
// phase. This box is a few cores of a shared host: a neighbour's burst
// slows a second or two of a run by a third, and how many such seconds a
// 15 s run catches differs from run to run by more than any change a later
// PR will be judged on. Interference only ever slows the program down, so
// the seconds in which most queries were answered are the ones measured
// with the least of it.
const (
	windowLen  = time.Second
	quietShare = 0.2
)

// quietQPS cuts the phase into windows of windowLen by the time each reply
// was read and returns the queries answered per second in the busiest
// quietShare of them (at least one), with the number of queries that is
// over. The tail shorter than a window is dropped; a phase shorter than
// one window counts whole.
func (r *phaseResult) quietQPS() (qps float64, queries int) {
	n := int(r.elapsed / windowLen)
	if n == 0 {
		return ratio(float64(r.queries()), r.elapsed.Seconds()), r.queries()
	}
	perWin := make([]int, n)
	for _, s := range r.samples {
		if i := int(s.at.Sub(r.began) / windowLen); i >= 0 && i < n {
			perWin[i] += s.answered()
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(perWin)))
	keep := max(1, int(math.Round(quietShare*float64(n))))
	for _, q := range perWin[:keep] {
		queries += q
	}
	return float64(queries) / (float64(keep) * windowLen.Seconds()), queries
}

func (r *phaseResult) merge(o *phaseResult) {
	r.samples = append(r.samples, o.samples...)
	r.traced = append(r.traced, o.traced...)
	r.acks = append(r.acks, o.acks...)
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
	r.searchAnswers += o.searchAnswers
	r.results += o.results
	r.partial += o.partial
	addStats(&r.stats, o.stats)
}

func addStats(dst *climber.Stats, s climber.Stats) {
	dst.GroupsConsidered += s.GroupsConsidered
	dst.PartitionsScanned += s.PartitionsScanned
	dst.RecordsScanned += s.RecordsScanned
	dst.BytesLoaded += s.BytesLoaded
	dst.DeltaScanned += s.DeltaScanned
	dst.PartitionCacheHits += s.PartitionCacheHits
	dst.PartitionCacheMisses += s.PartitionCacheMisses
}

// loadgen drives one deployment from this process.
type loadgen struct {
	w       workload
	in      *inputs
	seed    uint64
	base    string // http://host:port of the entry point
	clients int
	hc      *http.Client
	// maxID bounds valid result IDs: base records plus every series sent
	// to /append so far (sent >= acked).
	baseN      int
	appendSent atomic.Int64
	cursors    []int // per-client append cursors, carried across phases
}

func newLoadgen(w workload, in *inputs, seed uint64, base string, clients int) *loadgen {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &loadgen{w: w, in: in, seed: seed, base: base, clients: clients,
		hc: &http.Client{Transport: tr}, baseN: in.base.Len(), cursors: make([]int, clients)}
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// do sends one operation and reads the whole body; the returned duration
// is send -> body fully read.
func (g *loadgen) do(op operation) (status int, body []byte, d time.Duration, err error) {
	start := time.Now()
	resp, err := g.hc.Post(g.base+op.path, "application/json", bytes.NewReader(op.body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(start), err
}

// checkResults is the shape check of one k-NN answer: exactly topK
// results, distances ascending, every ID a record that can exist.
func checkResults(rs []api.Result, maxID int) error {
	if len(rs) != topK {
		return fmt.Errorf("%d results, want %d", len(rs), topK)
	}
	for i, r := range rs {
		if r.ID < 0 || r.ID >= maxID {
			return fmt.Errorf("result %d: unknown id %d (records < %d)", i, r.ID, maxID)
		}
		if i > 0 && r.Dist < rs[i-1].Dist {
			return fmt.Errorf("result %d: distance %g after %g", i, r.Dist, rs[i-1].Dist)
		}
	}
	return nil
}

// check validates one response and folds its stats into res. It returns
// the decoded single-query results (nil for batch/append).
func (g *loadgen) check(op operation, status int, body []byte, res *phaseResult) ([]api.Result, *answer, error) {
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: status %d: %.120s", op.path, status, body)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", op.path, err)
	}
	maxID := g.baseN + int(g.appendSent.Load())
	switch op.kind {
	case opAppend:
		if len(a.IDs) != batchSize {
			return nil, nil, fmt.Errorf("/append: %d ids, want %d", len(a.IDs), batchSize)
		}
		res.acks = append(res.acks, appendAck{first: op.appendFirst, ids: a.IDs})
		return nil, &a, nil
	case opBatch:
		var rss [][]api.Result
		if err := json.Unmarshal(a.Results, &rss); err != nil {
			return nil, nil, fmt.Errorf("/search/batch: %v", err)
		}
		if len(rss) != batchSize {
			return nil, nil, fmt.Errorf("/search/batch: %d answers, want %d", len(rss), batchSize)
		}
		for _, rs := range rss {
			if err := checkResults(rs, maxID); err != nil {
				return nil, nil, fmt.Errorf("/search/batch: %v", err)
			}
		}
		return nil, &a, nil
	default:
		var rs []api.Result
		if err := json.Unmarshal(a.Results, &rs); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", op.path, err)
		}
		if err := checkResults(rs, maxID); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", op.path, err)
		}
		res.searchAnswers++
		res.results += int64(len(rs))
		addStats(&res.stats, a.Stats)
		if a.Partial {
			res.partial++
		}
		return rs, &a, nil
	}
}

// finish checks one completed request and records it into res: rtt is
// send -> body read, late how long after its due time it was sent (0 in a
// closed loop). It returns the answer's single-query results (nil for
// batch, append and failures).
func (g *loadgen) finish(op operation, status int, body []byte, err error, rtt, late time.Duration, res *phaseResult) []api.Result {
	s := sample{kind: op.kind, latency: late + rtt, late: late, at: time.Now()}
	var rs []api.Result
	var a *answer
	if err == nil {
		rs, a, err = g.check(op, status, body, res)
	}
	if err != nil {
		s.failed = true
		if len(res.errs) < 5 {
			res.errs = append(res.errs, err.Error())
		}
	} else if a.Trace != nil {
		res.traced = append(res.traced, tracedSample{kind: op.kind, client: rtt, trace: a.Trace})
	}
	res.samples = append(res.samples, s)
	return rs
}

// fanOut runs fn once per client, each on its own goroutine with its own
// phaseResult, and merges the results.
func (g *loadgen) fanOut(fn func(client int, res *phaseResult)) *phaseResult {
	parts := make([]*phaseResult, g.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		parts[c] = &phaseResult{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, parts[c])
		}(c)
	}
	wg.Wait()
	total := &phaseResult{began: start, elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// send issues the stream's next operation and records it; a non-zero due
// is the paced phase's schedule, against which lateness is measured.
func (g *loadgen) send(ops *opStream, due time.Time, res *phaseResult) {
	op := ops.next()
	if op.kind == opAppend {
		g.appendSent.Add(batchSize)
	}
	var late time.Duration
	if !due.IsZero() {
		late = time.Since(due)
	}
	status, body, rtt, err := g.do(op)
	g.finish(op, status, body, err, rtt, late, res)
}

// closed runs the closed loop: every client sends its next request when
// the previous reply is fully read, until d has passed.
func (g *loadgen) closed(phase string, d time.Duration, explain bool) *phaseResult {
	deadline := time.Now().Add(d)
	return g.fanOut(func(c int, res *phaseResult) {
		ops := newOpStream(g.w, g.in, g.seed, phase, c, g.clients, &g.cursors[c], explain)
		for time.Now().Before(deadline) {
			g.send(ops, time.Time{}, res)
		}
	})
}

// spinWindow is how long before a due time the paced sender stops
// sleeping and busy-waits, so the generator's own wake-up latency (about a
// millisecond under time.Sleep) stays out of the measured time.
const spinWindow = 200 * time.Microsecond

// paced runs the open loop: request i is due at start + i/rate whatever
// the server is doing, is sent by the first free of the C connections,
// and is timed from its due time, so a stall charges every request it
// delays.
func (g *loadgen) paced(phase string, d time.Duration, rate float64) *phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(d / interval)
	var next atomic.Int64
	start := time.Now()
	return g.fanOut(func(c int, res *phaseResult) {
		ops := newOpStream(g.w, g.in, g.seed, phase, c, g.clients, &g.cursors[c], false)
		for i := next.Add(1) - 1; i < total; i = next.Add(1) - 1 {
			due := start.Add(time.Duration(i) * interval)
			if time.Since(due) > d {
				// The backlog is a whole phase long and growing: the
				// server cannot hold this rate. Stop sending, and count
				// what was never sent as failed.
				res.samples = append(res.samples, sample{kind: opSearch, failed: true})
				if len(res.errs) == 0 {
					res.errs = append(res.errs, fmt.Sprintf("paced: request %d of %d still unsent %v after it was due", i, total, d))
				}
				continue
			}
			if wait := time.Until(due) - spinWindow; wait > 0 {
				time.Sleep(wait)
			}
			for time.Now().Before(due) {
			}
			g.send(ops, due, res)
		}
	})
}

// one sends a single operation outside any timed phase (warm-up, recall,
// verification); a nil return means it failed and res says why.
func (g *loadgen) one(op operation, res *phaseResult) []api.Result {
	status, body, rtt, err := g.do(op)
	return g.finish(op, status, body, err, rtt, 0, res)
}

// getJSON fetches a GET endpoint into v.
func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.120s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// post sends an empty POST (/flush) and requires a 200.
func post(hc *http.Client, url string) error {
	resp, err := hc.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // the status decides; the body is only for the message
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.120s", url, resp.StatusCode, body)
	}
	return nil
}
