// Command climber-serve exposes a database built by climber-build as a
// long-lived concurrent HTTP JSON query service.
//
// Usage:
//
//	climber-serve -dir ./db -addr :8080 -cache-bytes 268435456
//
// Endpoints (see internal/server for the request/response shapes):
//
//	POST /search        one kNN query
//	POST /search/batch  many queries in one request
//	POST /search/prefix one query shorter than the indexed length
//	POST /append        ingest new series (durable + immediately searchable)
//	POST /flush         force compaction of acked writes into partitions
//	POST /reindex       rebuild the index online (new sample, pivots, layout)
//	POST /backup        snapshot the database under -backup-dir
//	GET  /info          database shape
//	GET  /stats         server + cache + ingestion counters (JSON)
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text exposition
//	GET  /debug/slow    slow-query log (ring buffer of traced slow/sampled queries)
//
// Observability: any search request may carry "explain": true to get the
// planner's ranked step list and the query's span tree inline in the
// response. Requests slower than -slow-threshold (and a -slow-sample
// fraction of all requests) are recorded in /debug/slow and logged.
// -debug-addr starts a second listener carrying net/http/pprof and the
// same /debug/slow, kept off the service port's admission control.
//
// The service bounds in-flight queries and writes with an admission
// semaphore (-max-inflight): excess requests queue up to -queue-timeout and
// are then answered 429. A client that disconnects mid-query cancels the
// query's partition scans. Appends are fsynced into the database's
// write-ahead log before they are acked and a background compactor folds
// them into partition files (-compact-records / -compact-age tune the
// thresholds). SIGINT/SIGTERM drain in-flight requests, then Close runs a
// final compaction before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/obs"
	"climber/internal/series"
	"climber/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-serve: ")

	var (
		dir          = flag.String("dir", "", "database directory (required)")
		addr         = flag.String("addr", ":8080", "listen address")
		cacheBytes   = flag.Int64("cache-bytes", 256<<20, "partition cache budget in bytes (0 disables the cache)")
		mmap         = flag.Bool("mmap", false, "memory-map cached partition files instead of decoding them onto the heap (requires -cache-bytes)")
		maxInflight  = flag.Int("max-inflight", 0, "admission limit on concurrently executing queries (0 = 4 x GOMAXPROCS)")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "how long an over-limit request may wait for a slot before 429")
		maxK         = flag.Int("max-k", 10000, "largest accepted per-query answer size k")
		maxBatch     = flag.Int("max-batch", 256, "largest accepted batch query count")
		maxAppend    = flag.Int("max-append", 1024, "largest accepted append series count")
		compactRecs  = flag.Int("compact-records", 4096, "delta records that trigger a background compaction")
		compactAge   = flag.Duration("compact-age", 5*time.Second, "oldest uncompacted record age that forces a compaction")
		bodyTimeout  = flag.Duration("body-timeout", 15*time.Second, "deadline for reading one request body")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown deadline for in-flight requests")
		debugAddr    = flag.String("debug-addr", "", "optional second listener for net/http/pprof and /debug/slow (e.g. localhost:6060)")
		slowThresh   = flag.Duration("slow-threshold", 500*time.Millisecond, "requests at least this slow enter the slow-query log (negative disables)")
		slowSample   = flag.Float64("slow-sample", 0, "probability in [0,1] that an arbitrary query is traced and slow-logged")
		slowLogSize  = flag.Int("slow-log-size", 128, "slow-query ring buffer capacity")
		backupRoot   = flag.String("backup-dir", "", "directory for POST /backup snapshots (empty disables the endpoint)")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	db, err := climber.Open(*dir,
		climber.WithPartitionCacheBytes(*cacheBytes),
		climber.WithMmap(*mmap),
		climber.WithCompactionRecords(*compactRecs),
		climber.WithCompactionAge(*compactAge))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	info := db.Info()
	log.Printf("opened %s: %d records, series length %d, %d groups, %d partitions",
		*dir, info.NumRecords, info.SeriesLen, info.NumGroups, info.NumPartitions)
	log.Printf("scan kernel: %s", series.KernelName())
	if ing := db.IngestStats(); ing.ReplayedSeries > 0 {
		log.Printf("replayed %d acked series from the write-ahead log", ing.ReplayedSeries)
	}

	srv := server.New(db, server.Config{
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
		BackupRoot: *backupRoot,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if *debugAddr != "" {
		// The diagnostics listener is separate so pprof and the slow-query
		// log can stay off the service port (and off its admission control).
		go func() {
			log.Printf("debug listener (pprof, /debug/slow) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux(srv.SlowLog())); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", *addr)
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
	if err := db.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}
