package api

import (
	"log/slog"
	"runtime"
	"time"
)

// ServeConfig holds the settings the single-node server and the shard
// router share — admission, request limits, and the slow-query log — with
// one set of defaults; server.Config and shard.Config embed it. The zero
// value is usable: every field falls back to the documented default.
type ServeConfig struct {
	// MaxInFlight bounds concurrently executing requests; further requests
	// queue. On the server a batch request holds one slot per internal
	// query worker (at least one, opportunistically more when slots are
	// idle), so the bound covers batch fan-out too. Default: 4 x GOMAXPROCS.
	MaxInFlight int
	// QueueTimeout is how long an over-limit request may wait for a slot
	// before it is answered 429. Default: 2s.
	QueueTimeout time.Duration
	// MaxK caps the per-request answer size. Default: 10000.
	MaxK int
	// MaxBatch caps the query count of one batch request. Default: 256.
	MaxBatch int
	// MaxAppend caps the series count of one append request. Default: 1024.
	MaxAppend int
	// MaxBodyBytes caps a request body. Default: 32 MB.
	MaxBodyBytes int64
	// BodyReadTimeout bounds how long reading one request body may take.
	// The body is read while holding an admission slot (parsing a body is
	// itself work an overloaded server must bound), so without a deadline
	// a slow-trickling client could pin slots indefinitely. Default: 15s.
	BodyReadTimeout time.Duration
	// SlowLogSize bounds the slow-query ring buffer (GET /debug/slow);
	// when full, the oldest entry is evicted. Default: 128.
	SlowLogSize int
	// SlowThreshold is the duration at or above which a finished request
	// is recorded in the slow-query log and emitted as a structured log
	// line. Default: 500ms; negative disables threshold capture.
	SlowThreshold time.Duration
	// SlowSample in [0, 1] is the probability an arbitrary query is
	// head-sampled: traced end to end (across the router AND the shards —
	// the sampled bit propagates in the traceparent header) and recorded in
	// the slow-query log even when fast, so the log also shows what normal
	// looks like and the per-stage histograms fill without explain traffic.
	// Default: 0.
	SlowSample float64
	// Logger receives the slow-query lines. Default: slog.Default().
	Logger *slog.Logger
}

// WithDefaults returns c with every unset field at its documented default
// and SlowSample clamped into [0, 1].
func (c ServeConfig) WithDefaults() ServeConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxK <= 0 {
		c.MaxK = 10000
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxAppend <= 0 {
		c.MaxAppend = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.BodyReadTimeout <= 0 {
		c.BodyReadTimeout = 15 * time.Second
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 500 * time.Millisecond
	}
	if c.SlowThreshold < 0 {
		c.SlowThreshold = 0 // disabled
	}
	if c.SlowSample < 0 {
		c.SlowSample = 0
	}
	if c.SlowSample > 1 {
		c.SlowSample = 1
	}
	return c
}
