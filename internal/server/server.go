// Package server exposes an opened climber.DB as a concurrent HTTP
// query service — the serving layer the paper's production framing assumes
// (pivot-based search as a service-side component, judged under sustained
// concurrent workloads).
//
// Endpoints:
//
//	POST /search        one kNN query   {"query": [...], "k": 10, ...}
//	POST /search/batch  many queries    {"queries": [[...], ...], "k": 10, ...}
//	POST /search/prefix one query shorter than the indexed length
//	POST /append        ingest series   {"series": [[...], ...]}
//	POST /flush         force compaction of acked writes into partitions
//	POST /reindex       rebuild the index online; queries keep serving
//	POST /backup        hard-link a consistent snapshot {"dir": "name"}
//	GET  /info          database shape (series length, groups, partitions)
//	GET  /stats         server + cache + ingestion counters, JSON
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus text exposition
//
// This package is the local-database Backend of that service and nothing
// else: the routes, admission, body limits, decoding in either spelling,
// statuses, histograms, slow-query log and counter rendering are the one
// api.Service front it shares with the shard router (internal/shard), which
// puts the same front before a scatter-gather over several of these servers.
// What is written here is what only a database can answer — queries, appends,
// compaction, reindex, backup, the index shape — plus the table of counters
// this service shows (meters.go).
//
// Admission control (in the front) bounds the number of in-flight queries AND writes: a
// request beyond MaxInFlight waits for a slot up to QueueTimeout and is
// answered 429 when none frees up. The request context is threaded through
// the whole core search path, so a client that disconnects mid-query stops
// the partition scans it triggered instead of burning disk and CPU to
// compute an answer nobody will read. An append whose response was never
// read is still durable — once its WAL fsync starts, the write lands.
//
// Anytime queries: a search request carrying time_budget_ms and/or
// max_partitions runs under the core engine's budget contract — the query
// stops at a plan-step boundary when the budget is spent and answers 200
// with its best partial result, marked by the partial and steps_executed
// response fields (and counted by climber_budget_exhausted_total). A time
// budget additionally arms a hard per-request deadline at a small multiple
// of the budget, so a budgeted request can never hold its admission slot
// unboundedly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"climber"
	"climber/internal/api"
)

// Config tunes the service. The zero value is usable: every field falls
// back to the documented default.
type Config struct {
	// ServeConfig holds the admission, request-limit and slow-log settings
	// shared with the shard router.
	api.ServeConfig
	// BackupRoot is the directory under which POST /backup creates its
	// snapshots. Empty disables the endpoint (403): backups write to the
	// server's filesystem, so the operator must opt in to a location.
	BackupRoot string
}

// backend answers the api.Service front on behalf of one DB.
type backend struct {
	db         *climber.DB
	backupRoot string
	shape      api.Shape
	c          *api.Counters
	buildInfo  string // rendered label set of the climber_build_info gauge
}

// New puts the serving front before db. The db must stay open for the
// service's lifetime; the caller closes it after shutting the HTTP server
// down.
func New(db *climber.DB, cfg Config) *api.Service {
	return api.NewService(newBackend(db, cfg), cfg.ServeConfig)
}

func newBackend(db *climber.DB, cfg Config) *backend {
	sk := db.Index().Skeleton().Cfg
	seriesLen := db.Info().SeriesLen
	return &backend{
		db:         db,
		backupRoot: cfg.BackupRoot,
		shape:      api.Shape{SeriesLen: seriesLen, MinPrefix: sk.Segments},
		c:          api.NewCounters(reads, writes, outcomes),
		buildInfo: fmt.Sprintf("version=%q,series_len=\"%d\",segments=\"%d\",prefix_len=\"%d\"",
			climber.Version, seriesLen, sk.Segments, sk.PrefixLen),
	}
}

func (b *backend) Shape(context.Context) (api.Shape, error) { return b.shape, nil }

// budgetContext derives the per-request deadline a time budget implies: the
// soft budget stops the engine at a step boundary with a partial answer,
// and this hard backstop — a small multiple, leaving room for one step's
// overshoot plus encode — guarantees even a wedged query cannot hold its
// admission slot much past its promise. budgetMS <= 0 leaves ctx untouched.
func budgetContext(ctx context.Context, budgetMS int) (context.Context, context.CancelFunc) {
	if budgetMS <= 0 {
		return ctx, func() {}
	}
	hard := 4*time.Duration(budgetMS)*time.Millisecond + time.Second
	return context.WithTimeout(ctx, hard)
}

// Search runs one query through DB.Query. The request context is threaded
// through the whole core search path, so a client that disconnects mid-query
// stops the partition scans it triggered.
func (b *backend) Search(ctx context.Context, req *api.SearchRequest, prefix bool) (*api.SearchResponse, error) {
	ctx, cancel := budgetContext(ctx, req.TimeBudgetMS)
	defer cancel()
	q := api.EngineRequest(req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS)
	q.Query, q.Prefix, q.Explain = req.Query, prefix, req.Explain
	ans, err := b.db.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	resp := &api.SearchResponse{
		Results: ans.Results, Stats: ans.Stats,
		Partial: ans.Stats.Partial, StepsExecuted: ans.Stats.StepsExecuted,
	}
	if ans.Stats.Partial {
		b.c.Add("budget_exhausted", 1)
	}
	if req.Explain {
		resp.Explain = map[string]*api.ExplainData{"": ans.Explain}
	}
	return resp, nil
}

func (b *backend) Batch(ctx context.Context, req *api.BatchRequest, grant func(extra int) int) (*api.BatchResponse, error) {
	ctx, cancel := budgetContext(ctx, req.TimeBudgetMS)
	defer cancel()
	batch, err := b.db.QueryBatch(ctx, req.Queries,
		api.EngineRequest(req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS), 1+grant(len(req.Queries)-1))
	if err != nil {
		return nil, err
	}
	resp := &api.BatchResponse{Results: make([][]api.Result, len(batch))}
	for i, ans := range batch {
		resp.Results[i] = ans.Results
		resp.StepsExecuted += ans.Stats.StepsExecuted
		if ans.Stats.Partial {
			resp.Truncated++
		}
	}
	resp.Partial = resp.Truncated > 0
	// The counter is per query (matching /search), not per batch request:
	// a 50-query batch with 40 truncated answers counts 40.
	b.c.Add("budget_exhausted", int64(resp.Truncated))
	return resp, nil
}

// Append is durable once it returns: an append whose response was never
// read still landed — once its WAL fsync starts, the write completes.
func (b *backend) Append(ctx context.Context, req *api.AppendRequest) (*api.AppendResponse, error) {
	ids, err := b.db.AppendContext(ctx, req.Series)
	if err != nil {
		return nil, err
	}
	return &api.AppendResponse{IDs: ids}, nil
}

// errBackupsDisabled answers a /backup on a server without a backup root.
var errBackupsDisabled = errors.New("backups disabled: server started without a backup root")

// badRequest marks an error as the client's: a 400.
type badRequest struct{ error }

// Admin runs the administrative posts synchronously. When a flush's 200
// arrives every previously acked append is in its partition file (operators
// use it before snapshotting the database directory); when a reindex's
// arrives the new generation is durable and serving.
func (b *backend) Admin(ctx context.Context, op string, body []byte) (map[string]any, error) {
	switch op {
	case "flush":
		return nil, b.db.FlushContext(ctx)
	case "reindex":
		if err := b.db.Reindex(ctx); err != nil {
			return nil, err
		}
		return map[string]any{"generation": b.db.Info().Generation}, nil
	case "backup":
		return b.backup(ctx, body)
	}
	return nil, fmt.Errorf("unknown admin operation %q", op)
}

// backup snapshots the database into a fresh directory under the configured
// BackupRoot. The client names only the final path element; any separator or
// traversal in the name is a 400, and an unset BackupRoot is a 403 so a
// default deployment cannot be asked to write arbitrary trees.
func (b *backend) backup(ctx context.Context, body []byte) (map[string]any, error) {
	if b.backupRoot == "" {
		return nil, errBackupsDisabled
	}
	var req struct {
		Dir string `json:"dir"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest{fmt.Errorf("invalid backup request: %w", err)}
	}
	if req.Dir == "" || req.Dir != filepath.Base(req.Dir) || req.Dir == ".." || req.Dir == "." {
		return nil, badRequest{fmt.Errorf("backup dir must be a bare directory name, got %q", req.Dir)}
	}
	dest := filepath.Join(b.backupRoot, req.Dir)
	if err := b.db.Backup(ctx, dest); err != nil {
		return nil, err
	}
	return map[string]any{"dir": dest}, nil
}

func (b *backend) Classify(err error) (status int, counter string) {
	var bad badRequest
	switch {
	case errors.Is(err, climber.ErrClosed):
		return 503, "errors"
	case errors.Is(err, climber.ErrReindexInProgress):
		return 409, "" // a second reindex, or a backup during one
	case errors.Is(err, errBackupsDisabled):
		return 403, ""
	case errors.As(err, &bad):
		return 400, "bad_requests"
	}
	return 500, "errors"
}

func (b *backend) Info(context.Context) (any, error) {
	info := b.db.Info()
	return api.InfoResponse{
		SeriesLen:     info.SeriesLen,
		NumRecords:    info.NumRecords,
		NumGroups:     info.NumGroups,
		NumPartitions: info.NumPartitions,
		SkeletonBytes: info.SkeletonBytes,
		Generation:    info.Generation,
	}, nil
}

func (b *backend) Stats(context.Context) api.Object {
	return api.Object{{Key: "cache", Value: b.db.CacheStats()}, {Key: "ingest", Value: b.db.IngestStats()}}
}

func (b *backend) Health() (int, any) { return 200, map[string]string{"status": "ok"} }

// StatsResponse is the body of GET /stats as a Go client reads it: the
// database's cache and ingestion sections whole, and of the "server" section
// — rendered from the counter rows of meters.go, which are its
// specification — the one key the benchmark reads by name. Pinned by
// bench/; decode the section into a map for any other key.
type StatsResponse struct {
	Server struct {
		Rejected int64 `json:"rejected"`
	} `json:"server"`
	Cache  climber.CacheStats  `json:"cache"`
	Ingest climber.IngestStats `json:"ingest"`
}
