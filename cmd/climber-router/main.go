// Command climber-router fronts a sharded CLIMBER deployment: N
// climber-serve processes, each owning one shard of the keyspace (built
// with climber-build -shards), behind one scatter-gather HTTP endpoint
// that speaks the exact single-node dialect.
//
// Usage:
//
//	climber-router -topology shards.json -addr :8080
//	climber-router -topology shards.json -quorum 2   # serve degraded reads
//
// The topology file is a static shard map:
//
//	{"shards": [
//	  {"id": "shard-0", "url": "http://localhost:9001"},
//	  {"id": "shard-1", "url": "http://localhost:9002"}
//	]}
//
// Endpoints (see internal/shard for the merged response shapes):
//
//	POST /search        scatter to every shard, merge global top-k
//	POST /search/batch  ditto, query by query
//	POST /search/prefix ditto for prefix queries
//	POST /append        rendezvous-route each series to its shard
//	POST /flush         force compaction on every shard
//	GET  /info          aggregate database shape + shard count
//	GET  /stats         router counters + every shard's /stats
//	GET  /healthz       aggregate shard health
//	GET  /metrics       Prometheus text exposition (climber_router_*)
//	GET  /debug/slow    slow-query log (ring buffer of traced slow/sampled queries)
//
// Observability: a search request carrying "explain": true comes back with
// the router's span tree — scatter and merge stages, one span per shard —
// and, nested under each shard span, that shard's own span tree and
// planner explanation (keyed by shard ID). The trace identity propagates
// to the shards in a traceparent-style header, so the router and every
// shard log the same query under one trace id. -debug-addr starts a
// second listener carrying net/http/pprof and /debug/slow.
//
// With -quorum 0 (the default) a query fails fast with 502 the moment any
// shard errors — no silently incomplete answers. With -quorum N a query
// succeeds, marked partial, as long as N shards answered, and /healthz
// stays 200 ("degraded") while that policy is servable. Appends walk the
// rendezvous order to the first healthy shard, so a dead shard sheds its
// write load onto the survivors without reshuffling everyone else's keys.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"climber/internal/api"
	"climber/internal/obs"
	"climber/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-router: ")

	var (
		topoPath     = flag.String("topology", "", "shards.json topology file (required)")
		addr         = flag.String("addr", ":8080", "listen address")
		quorum       = flag.Int("quorum", 0, "min shards that must answer a read (0 = all shards, fail fast)")
		maxInflight  = flag.Int("max-inflight", 0, "admission limit on concurrently routed requests (0 = 4 x GOMAXPROCS)")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "how long an over-limit request may wait for a slot before 429")
		maxK         = flag.Int("max-k", 10000, "largest accepted per-query answer size k")
		maxBatch     = flag.Int("max-batch", 256, "largest accepted batch query count")
		maxAppend    = flag.Int("max-append", 1024, "largest accepted append series count")
		bodyTimeout  = flag.Duration("body-timeout", 15*time.Second, "deadline for reading one request body")
		healthEvery  = flag.Duration("health-interval", 2*time.Second, "shard health probe period")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-shard sub-request deadline (0 = client deadline only)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown deadline for in-flight requests")
		debugAddr    = flag.String("debug-addr", "", "optional second listener for net/http/pprof and /debug/slow (e.g. localhost:6060)")
		slowThresh   = flag.Duration("slow-threshold", 500*time.Millisecond, "routed requests at least this slow enter the slow-query log (negative disables)")
		slowSample   = flag.Float64("slow-sample", 0, "probability in [0,1] that an arbitrary routed query is traced across the shards and slow-logged")
		slowLogSize  = flag.Int("slow-log-size", 128, "slow-query ring buffer capacity")
	)
	flag.Parse()
	if *topoPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	topo, err := shard.LoadTopology(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("topology %s: %d shards, %d ID namespaces", *topoPath, len(topo.Shards), topo.Stride())
	for _, s := range topo.Shards {
		log.Printf("  %-12s %s (id_base %d)", s.ID, s.URL, *s.IDBase)
	}

	r := shard.NewRouter(topo, shard.Config{
		ServeConfig: api.ServeConfig{
			MaxInFlight:     *maxInflight,
			QueueTimeout:    *queueTimeout,
			MaxK:            *maxK,
			MaxBatch:        *maxBatch,
			MaxAppend:       *maxAppend,
			BodyReadTimeout: *bodyTimeout,
			SlowLogSize:     *slowLogSize,
			SlowThreshold:   *slowThresh,
			SlowSample:      *slowSample,
		},
		Quorum:         *quorum,
		HealthInterval: *healthEvery,
		ShardTimeout:   *shardTimeout,
	})
	defer r.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           r.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if *debugAddr != "" {
		// Diagnostics stay off the routed service port and its admission
		// control.
		go func() {
			log.Printf("debug listener (pprof, /debug/slow) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux(r.SlowLog())); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("routing on %s (quorum policy: %s)", *addr, quorumName(*quorum))
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("received %v, draining in-flight requests", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
}

func quorumName(q int) string {
	if q <= 0 {
		return "all shards"
	}
	return "quorum " + strconv.Itoa(q)
}
