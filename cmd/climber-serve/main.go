// Command climber-serve exposes a database built by climber-build as a
// long-lived concurrent HTTP JSON query service.
//
// Usage:
//
//	climber-serve -dir ./db -addr :8080
//
// Endpoints (see internal/api for the request/response shapes):
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
	"flag"
	"log"
	"os"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/series"
	"climber/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-serve: ")

	var (
		shared      = api.RegisterFlags(flag.CommandLine)
		dir         = flag.String("dir", "", "database directory (required)")
		compactRecs = flag.Int("compact-records", 4096, "delta records that trigger a background compaction")
		compactAge  = flag.Duration("compact-age", 5*time.Second, "oldest uncompacted record age that forces a compaction")
		backupRoot  = flag.String("backup-dir", "", "directory for POST /backup snapshots (empty disables the endpoint)")
	)
	// Command lines written when mapping was a choice, or the mappings had
	// a budget, keep starting.
	flag.Bool("mmap", false, "accepted and ignored: partitions are always memory-mapped where the platform supports it")
	flag.Int64("cache-bytes", 256<<20, "accepted and ignored: each partition file is mapped once and stays mapped")
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	db, err := climber.Open(*dir,
		climber.WithCompactionRecords(*compactRecs),
		climber.WithCompactionAge(*compactAge))
	if err != nil {
		log.Fatal(err)
	}
	info := db.Info()
	log.Printf("opened %s: %d records, series length %d, %d groups, %d partitions",
		*dir, info.NumRecords, info.SeriesLen, info.NumGroups, info.NumPartitions)
	log.Printf("scan kernel: %s", series.KernelName())
	if ing := db.IngestStats(); ing.ReplayedSeries > 0 {
		log.Printf("replayed %d acked series from the write-ahead log", ing.ReplayedSeries)
	}

	svc := server.New(db, server.Config{ServeConfig: shared.ServeConfig, BackupRoot: *backupRoot})
	err = shared.Run(context.Background(), svc, "serving on "+shared.Addr)
	if cerr := db.Close(); cerr != nil {
		log.Printf("close: %v", cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
}
