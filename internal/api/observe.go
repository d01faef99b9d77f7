package api

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"climber/internal/obs"
)

// Observer is the per-request observation pipeline climber-serve and
// climber-router share: trace arming (explain, propagated traceparent,
// slow-log head sampling), the latency and per-stage histograms, and the
// slow-query log. Each service owns the counters and histograms; the
// Observer only feeds them.
type Observer struct {
	// Slow decides head sampling and receives every finished request.
	Slow *obs.SlowLog
	// StageLat maps a root-span child name to its latency histogram; traced
	// requests feed it, stages without an entry are skipped.
	StageLat map[string]*Histogram
	// Traced counts requests that ran with a trace attached.
	Traced *atomic.Int64
}

// queryObs carries one request's observability state between the
// Instrument wrapper and its handler: the wrapper decides sampling and
// parses the propagated traceparent header before the handler runs, the
// handler fills in what the query produced, and the wrapper turns the
// result into histogram observations and a slow-log entry.
type queryObs struct {
	// sampled arms tracing without an explain flag: set by an upstream
	// traceparent sampled bit or by the slow log's head-sampling.
	sampled bool
	// traceID is the propagated trace id ("" = generate fresh).
	traceID string
	// stats, trace, stages are filled by the handler after the query.
	stats  any
	trace  *obs.SpanData
	stages map[string]int64
}

// qobsKey is the context key carrying the request's *queryObs.
type qobsKey struct{}

// qobsFrom returns the request's observability state, or nil outside an
// instrumented handler.
func qobsFrom(ctx context.Context) *queryObs {
	qo, _ := ctx.Value(qobsKey{}).(*queryObs)
	return qo
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

// Instrument wraps one query-path handler with the unified observation
// pipeline: the latency histogram sees every outcome — 400s and 429s
// included, so bad-request storms show in the percentiles — the endpoint
// counter increments exactly once per request, traced queries feed the
// per-stage histograms, and every finished request is offered to the
// slow-query log.
func (o *Observer) Instrument(endpoint string, count *atomic.Int64, lat *Histogram, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qo := &queryObs{}
		if id, sampled, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader)); ok {
			qo.traceID, qo.sampled = id, sampled
		}
		if !qo.sampled {
			qo.sampled = o.Slow.Sample()
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r.WithContext(context.WithValue(r.Context(), qobsKey{}, qo)))
		d := time.Since(start)
		lat.Observe(d)
		count.Add(1)
		for stage, ns := range qo.stages {
			if hist := o.StageLat[stage]; hist != nil {
				hist.Observe(time.Duration(ns))
			}
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		o.Slow.Note(endpoint, d, qo.sampled, qo.traceID, status, qo.stats, qo.trace)
	})
}

// TraceFor starts a trace for the request when it asked for explain or
// the sampling decision armed one, adopting a propagated trace id so every
// hop's logs agree on identity (the router forwards the id and sampled bit
// in the traceparent header of each sub-request). Returns the (possibly
// traced) context and the trace — nil when tracing is off, which every
// downstream span call tolerates.
func (o *Observer) TraceFor(ctx context.Context, name string, explain bool) (context.Context, *obs.Trace) {
	qo := qobsFrom(ctx)
	if qo == nil || (!explain && !qo.sampled) {
		return ctx, nil
	}
	tr := obs.NewTrace(name, qo.traceID)
	qo.traceID = tr.ID()
	o.Traced.Add(1)
	return obs.ContextWithSpan(ctx, tr.Root()), tr
}

// FinishTrace ends the trace, stores the query's wire stats and span
// tree into the request's observation state, and returns the span tree
// for the explain response (nil when untraced).
func FinishTrace(ctx context.Context, tr *obs.Trace, stats any) *obs.SpanData {
	qo := qobsFrom(ctx)
	if qo != nil {
		qo.stats = stats
	}
	if tr == nil {
		return nil
	}
	tr.Root().End()
	data := tr.Root().Data()
	if qo != nil {
		qo.trace = data
		qo.stages = tr.Root().StageNanos()
	}
	return data
}
