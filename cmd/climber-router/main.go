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
// Endpoints (the same front as climber-serve; see internal/api for the
// request/response shapes):
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
	"flag"
	"log"
	"os"
	"strconv"
	"time"

	"climber/internal/api"
	"climber/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-router: ")

	var (
		shared       = api.RegisterFlags(flag.CommandLine)
		topoPath     = flag.String("topology", "", "shards.json topology file (required)")
		quorum       = flag.Int("quorum", 0, "min shards that must answer a read (0 = all shards, fail fast)")
		healthEvery  = flag.Duration("health-interval", 2*time.Second, "shard health probe period")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-shard sub-request deadline (0 = client deadline only)")
	)
	// The shared flags, said of routed traffic.
	flag.Lookup("max-inflight").Usage = "admission limit on concurrently routed requests (0 = 4 x GOMAXPROCS)"
	flag.Lookup("slow-threshold").Usage = "routed requests at least this slow enter the slow-query log (negative disables)"
	flag.Lookup("slow-sample").Usage = "probability in [0,1] that an arbitrary routed query is traced across the shards and slow-logged"
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
		ServeConfig:    shared.ServeConfig,
		Quorum:         *quorum,
		HealthInterval: *healthEvery,
		ShardTimeout:   *shardTimeout,
	})
	policy := "all shards"
	if *quorum > 0 {
		policy = "quorum " + strconv.Itoa(*quorum)
	}
	err = shared.Run(context.Background(), r.Service(), "routing on "+shared.Addr+" (quorum policy: "+policy+")")
	r.Close()
	if err != nil {
		log.Fatal(err)
	}
}
