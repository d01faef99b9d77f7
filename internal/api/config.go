package api

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"climber/internal/obs"
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

// Flags are the command-line settings climber-serve and climber-router
// share: the ServeConfig fields plus where and how to listen.
type Flags struct {
	ServeConfig
	// Addr is the service listen address; DebugAddr, when set, a second
	// listener for net/http/pprof and /debug/slow.
	Addr, DebugAddr string
	// DrainTimeout bounds graceful shutdown.
	DrainTimeout time.Duration
}

// RegisterFlags declares the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "addr", ":8080", "listen address")
	fs.IntVar(&f.MaxInFlight, "max-inflight", 0, "admission limit on concurrently executing queries (0 = 4 x GOMAXPROCS)")
	fs.DurationVar(&f.QueueTimeout, "queue-timeout", 2*time.Second, "how long an over-limit request may wait for a slot before 429")
	fs.IntVar(&f.MaxK, "max-k", 10000, "largest accepted per-query answer size k")
	fs.IntVar(&f.MaxBatch, "max-batch", 256, "largest accepted batch query count")
	fs.IntVar(&f.MaxAppend, "max-append", 1024, "largest accepted append series count")
	fs.DurationVar(&f.BodyReadTimeout, "body-timeout", 15*time.Second, "deadline for reading one request body")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown deadline for in-flight requests")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "optional second listener for net/http/pprof and /debug/slow (e.g. localhost:6060)")
	fs.DurationVar(&f.SlowThreshold, "slow-threshold", 500*time.Millisecond, "requests at least this slow enter the slow-query log (negative disables)")
	fs.Float64Var(&f.SlowSample, "slow-sample", 0, "probability in [0,1] that an arbitrary query is traced and slow-logged")
	fs.IntVar(&f.SlowLogSize, "slow-log-size", 128, "slow-query ring buffer capacity")
	return f
}

// Run serves svc on f.Addr — and pprof plus the slow-query log on
// f.DebugAddr, kept off the service port and its admission control — until
// the listener fails or ctx ends, which SIGINT and SIGTERM make it do; it
// then drains in-flight requests for up to f.DrainTimeout. banner is logged
// once listening starts.
func (f *Flags) Run(ctx context.Context, svc *Service, banner string) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Addr:              f.Addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if f.DebugAddr != "" {
		debug := &http.Server{Addr: f.DebugAddr, Handler: obs.DebugMux(svc.SlowLog())}
		defer debug.Close()
		go func() {
			log.Printf("debug listener (pprof, /debug/slow) on %s", f.DebugAddr)
			if err := debug.ListenAndServe(); ctx.Err() == nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	drained := make(chan struct{})
	unhook := context.AfterFunc(ctx, func() {
		defer close(drained)
		log.Print("received a shutdown signal, draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), f.DrainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	})
	log.Print(banner)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		unhook() // nothing to drain
		return err
	}
	<-drained
	return nil
}
