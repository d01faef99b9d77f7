package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/dataset"
)

// buildTestDB builds one small database per test.
func buildTestDB(t *testing.T, n int, opts ...climber.Option) (*climber.DB, [][]float64) {
	t.Helper()
	ds := dataset.RandomWalk(64, n, 77)
	data := make([][]float64, n)
	for i := range data {
		x := make([]float64, 64)
		copy(x, ds.Get(i))
		data[i] = x
	}
	all := append([]climber.Option{
		climber.WithSegments(8), climber.WithPivots(24), climber.WithPrefixLen(4),
		climber.WithCapacity(200), climber.WithSampleRate(0.2), climber.WithBlockSize(250),
		climber.WithSeed(3),
	}, opts...)
	db, err := climber.Build(t.TempDir(), data, all...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, data
}

// statsBody is GET /stats as the tests read it: the server section's
// counters by key.
type statsBody struct {
	Server map[string]float64  `json:"server"`
	Cache  climber.CacheStats  `json:"cache"`
	Ingest climber.IngestStats `json:"ingest"`
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestSearchMatchesDB checks the acceptance criterion that /search answers
// are byte-identical to DB.Search on the same database.
func TestSearchMatchesDB(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()
	for _, qid := range []int{0, 311, 1100} {
		for _, variant := range []string{"", "knn", "adaptive-2x", "adaptive-4x", "od-smallest"} {
			rec := postJSON(t, h, "/search", api.SearchRequest{Query: data[qid], K: 17, Variant: variant})
			if rec.Code != http.StatusOK {
				t.Fatalf("query %d variant %q: status %d: %s", qid, variant, rec.Code, rec.Body)
			}
			var resp api.SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			v, err := api.ParseVariant(variant)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Search(data[qid], 17, climber.WithVariant(v))
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != len(want) {
				t.Fatalf("query %d variant %q: %d results, want %d", qid, variant, len(resp.Results), len(want))
			}
			for i, r := range resp.Results {
				if r.ID != want[i].ID || r.Dist != want[i].Dist {
					t.Fatalf("query %d variant %q result %d: got %+v want %+v", qid, variant, i, r, want[i])
				}
			}
			if resp.Stats.PartitionsScanned == 0 || resp.Stats.RecordsScanned == 0 {
				t.Fatalf("query %d: empty stats %+v", qid, resp.Stats)
			}
		}
	}
}

func TestBatchMatchesDB(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()
	queries := [][]float64{data[5], data[600], data[900]}
	rec := postJSON(t, h, "/search/batch", api.BatchRequest{Queries: queries, K: 9})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	batch, err := db.QueryBatch(context.Background(), queries, climber.NewRequest(nil, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(batch) {
		t.Fatalf("%d result sets, want %d", len(resp.Results), len(batch))
	}
	for i := range batch {
		want := batch[i].Results
		if len(resp.Results[i]) != len(want) {
			t.Fatalf("batch %d: %d results, want %d", i, len(resp.Results[i]), len(want))
		}
		for j, r := range resp.Results[i] {
			if r != want[j] {
				t.Fatalf("batch %d result %d: got %+v want %+v", i, j, r, want[j])
			}
		}
	}
}

// TestPrefixMatchesDB checks that /search/prefix answers match
// DB.Query with Request.Prefix on the same database, and that out-of-range prefix
// lengths are clean 400s.
func TestPrefixMatchesDB(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()
	for _, qid := range []int{3, 700} {
		q := data[qid][:32]
		rec := postJSON(t, h, "/search/prefix", api.SearchRequest{Query: q, K: 11})
		if rec.Code != http.StatusOK {
			t.Fatalf("prefix query %d: status %d: %s", qid, rec.Code, rec.Body)
		}
		var resp api.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		preq := climber.NewRequest(q, 11)
		preq.Prefix = true
		ans, err := db.Query(context.Background(), preq)
		if err != nil {
			t.Fatal(err)
		}
		want := ans.Results
		if len(resp.Results) != len(want) {
			t.Fatalf("prefix query %d: %d results, want %d", qid, len(resp.Results), len(want))
		}
		for i, r := range resp.Results {
			if r.ID != want[i].ID || r.Dist != want[i].Dist {
				t.Fatalf("prefix query %d result %d: got %+v want %+v", qid, i, r, want[i])
			}
		}
	}
	// Shorter than the PAA segment count (8 in buildTestDB) or longer than
	// the indexed length: rejected at decode, not deep in the core.
	for _, n := range []int{4, 65} {
		q := make([]float64, n)
		if rec := postJSON(t, h, "/search/prefix", api.SearchRequest{Query: q, K: 3}); rec.Code != http.StatusBadRequest {
			t.Errorf("prefix length %d: status %d, want 400", n, rec.Code)
		}
	}
}

func TestBadRequests(t *testing.T) {
	db, data := buildTestDB(t, 600)
	h := New(db, Config{ServeConfig: api.ServeConfig{MaxK: 100, MaxBatch: 4}}).Handler()
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", `{"query": [1,2`},
		{"empty body", ``},
		{"wrong length", `{"query": [1,2,3], "k": 5}`},
		{"negative k", fmt.Sprintf(`{"query": %s, "k": -1}`, mustJSON(data[0]))},
		{"k over limit", fmt.Sprintf(`{"query": %s, "k": 101}`, mustJSON(data[0]))},
		{"bad variant", fmt.Sprintf(`{"query": %s, "variant": "bogus"}`, mustJSON(data[0]))},
		{"negative max_partitions", fmt.Sprintf(`{"query": %s, "max_partitions": -2}`, mustJSON(data[0]))},
		{"trailing garbage", fmt.Sprintf(`{"query": %s} extra`, mustJSON(data[0]))},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, rec.Code)
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: malformed error body %q", c.name, rec.Body)
		}
	}
	// Over-limit batch.
	rec := postJSON(t, h, "/search/batch", api.BatchRequest{Queries: [][]float64{data[0], data[1], data[2], data[3], data[4]}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", rec.Code)
	}
	// Wrong method.
	if rec := getPath(t, h, "/search"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /search: status %d, want 405", rec.Code)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestInfoStatsHealthzMetrics(t *testing.T) {
	db, data := buildTestDB(t, 600, climber.WithPartitionCacheBytes(64<<20))
	h := New(db, Config{}).Handler()
	if rec := postJSON(t, h, "/search", api.SearchRequest{Query: data[0], K: 5}); rec.Code != http.StatusOK {
		t.Fatalf("warmup query: %d", rec.Code)
	}

	rec := getPath(t, h, "/info")
	if rec.Code != http.StatusOK {
		t.Fatalf("/info: %d", rec.Code)
	}
	var info api.InfoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.SeriesLen != 64 || info.NumRecords != 600 || info.NumPartitions == 0 {
		t.Fatalf("bad /info: %+v", info)
	}

	rec = getPath(t, h, "/stats")
	var stats statsBody
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server["searches"] != 1 {
		t.Fatalf("/stats reports %v searches, want 1", stats.Server["searches"])
	}
	if stats.Cache.PartitionsLoaded == 0 {
		t.Fatalf("/stats cache counters empty: %+v", stats.Cache)
	}

	if rec = getPath(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}

	rec = getPath(t, h, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{
		"climber_search_requests_total 1",
		"climber_query_latency_seconds_count 1",
		"climber_query_latency_seconds_bucket{le=\"+Inf\"} 1",
		"climber_partitions_loaded_total",
		"climber_partition_cache_hits_total",
		"climber_rejected_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestConcurrentClientsUnderLimit fires 32 concurrent clients at a server
// whose admission limit is exactly 32: every request must be admitted and
// answered correctly — no request lost below the limit.
func TestConcurrentClientsUnderLimit(t *testing.T) {
	db, data := buildTestDB(t, 1500, climber.WithPartitionCacheBytes(64<<20))
	srv := New(db, Config{ServeConfig: api.ServeConfig{MaxInFlight: 32, QueueTimeout: 30 * time.Second}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 32
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qid := (c * 41) % len(data)
			body, _ := json.Marshal(api.SearchRequest{Query: data[qid], K: 10})
			resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[c] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			var sr api.SearchResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				errs[c] = err
				return
			}
			want, err := db.Search(data[qid], 10)
			if err != nil {
				errs[c] = err
				return
			}
			for i := range want {
				if sr.Results[i].ID != want[i].ID || sr.Results[i].Dist != want[i].Dist {
					errs[c] = fmt.Errorf("result %d mismatch", i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
}

// gated is the backend with the two seams the cancellation tests need:
// admitted runs once a query holds its admission slot, before the search
// starts, and done receives the search error verbatim, before the front maps
// it to a status. Admission itself is tested against the front, with a stub
// backend, in internal/api.
type gated struct {
	*backend
	admitted func(ctx context.Context)
	done     chan error
}

func (g *gated) Search(ctx context.Context, req *api.SearchRequest, prefix bool) (*api.SearchResponse, error) {
	g.admitted(ctx)
	resp, err := g.backend.Search(ctx, req, prefix)
	g.done <- err
	return resp, err
}

func (g *gated) Batch(ctx context.Context, req *api.BatchRequest, grant func(int) int) (*api.BatchResponse, error) {
	g.admitted(ctx)
	resp, err := g.backend.Batch(ctx, req, grant)
	g.done <- err
	return resp, err
}

// newGated serves db behind a gated backend whose queries block until their
// client is gone.
func newGated(t *testing.T, db *climber.DB) (g *gated, started chan struct{}, ts *httptest.Server) {
	started = make(chan struct{})
	g = &gated{backend: newBackend(db, Config{}), done: make(chan error, 1)}
	g.admitted = func(ctx context.Context) {
		close(started)
		<-ctx.Done() // hold the query until the disconnect propagates
	}
	ts = httptest.NewServer(api.NewService(g, api.ServeConfig{}).Handler())
	t.Cleanup(ts.Close)
	return g, started, ts
}

// TestClientDisconnectCancelsQuery checks the acceptance criterion that a
// client disconnect cancels the in-flight scan: the query goroutine must
// return context.Canceled, observed via the search-done hook.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	db, data := buildTestDB(t, 600)
	g, started, ts := newGated(t, db)

	body, _ := json.Marshal(api.SearchRequest{Query: data[0], K: 5})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("query never started")
	}
	cancel() // the client hangs up mid-query

	select {
	case err := <-g.done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query goroutine never returned after the disconnect")
	}
	if err := <-clientDone; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
	var canceled int64
	for i := 0; i < 100; i++ { // the 499 is recorded just after the hook fires
		if canceled = g.c.Load("canceled"); canceled == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if canceled != 1 {
		t.Fatalf("canceled counter %d, want 1", canceled)
	}
}

// TestBatchCancellation cancels a batch request mid-flight and checks the
// whole batch aborts with context.Canceled.
func TestBatchCancellation(t *testing.T) {
	db, data := buildTestDB(t, 600)
	g, started, ts := newGated(t, db)

	body, _ := json.Marshal(api.BatchRequest{Queries: [][]float64{data[0], data[1]}, K: 5})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search/batch", bytes.NewReader(body))
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancel()
	select {
	case err := <-g.done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("batch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch never returned after cancel")
	}
}

// TestBatchRespectsAdmissionBudget checks that a batch widens its worker
// pool only into idle admission slots: with MaxInFlight=2, a 64-query batch
// must never hold more than 2 slots, and must release them all afterwards.
func TestBatchRespectsAdmissionBudget(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	b := newBackend(db, Config{})
	h := api.NewService(b, api.ServeConfig{MaxInFlight: 2}).Handler()

	stop := make(chan struct{})
	var maxSeen atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if n := b.c.Load("in_flight"); n > maxSeen.Load() {
					maxSeen.Store(n)
				}
			}
		}
	}()
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = data[(i*17)%len(data)]
	}
	rec := postJSON(t, h, "/search/batch", api.BatchRequest{Queries: queries, K: 5})
	close(stop)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if got := maxSeen.Load(); got > 2 {
		t.Fatalf("batch held %d admission slots, limit is 2", got)
	}
	if n := b.c.Load("in_flight"); n != 0 {
		t.Fatalf("slots leaked after batch: inflight=%d", n)
	}
}

// TestInflightGaugeReturnsToZero checks slot accounting: after a burst of
// queries completes, no admission slot leaks.
func TestInflightGaugeReturnsToZero(t *testing.T) {
	db, data := buildTestDB(t, 600)
	b := newBackend(db, Config{})
	h := api.NewService(b, api.ServeConfig{MaxInFlight: 4}).Handler()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, h, "/search", api.SearchRequest{Query: data[i%len(data)], K: 3})
			if rec.Code != http.StatusOK {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d queries failed", n)
	}
	if got := b.c.Load("in_flight"); got != 0 {
		t.Fatalf("inflight gauge %d after drain, want 0", got)
	}
}

// TestAppendEndpoint covers the live-ingestion walkthrough: POST /append
// acks durable writes that /search sees immediately, /stats and /metrics
// report the pipeline, and /flush compacts on demand.
func TestAppendEndpoint(t *testing.T) {
	db, _ := buildTestDB(t, 1200,
		climber.WithCompactionRecords(1<<20), climber.WithCompactionAge(time.Hour))
	h := New(db, Config{}).Handler()

	fresh := dataset.RandomWalk(64, 10, 4242)
	series := make([][]float64, fresh.Len())
	for i := range series {
		x := make([]float64, 64)
		copy(x, fresh.Get(i))
		series[i] = x
	}
	rec := postJSON(t, h, "/append", api.AppendRequest{Series: series})
	if rec.Code != http.StatusOK {
		t.Fatalf("append status %d: %s", rec.Code, rec.Body)
	}
	var ar api.AppendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.IDs) != 10 || ar.IDs[0] != 1200 {
		t.Fatalf("append ids = %v, want 1200..1209", ar.IDs)
	}

	// Immediately visible to /search, before any compaction.
	found := 0
	for i, q := range series {
		rec := postJSON(t, h, "/search", api.SearchRequest{Query: q, K: 3})
		if rec.Code != http.StatusOK {
			t.Fatalf("search status %d: %s", rec.Code, rec.Body)
		}
		var sr api.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Results) > 0 && sr.Results[0].ID == ar.IDs[i] && sr.Results[0].Dist < 1e-4 {
			found++
		}
	}
	if found < 9 {
		t.Fatalf("found %d/10 appended series via /search, want >= 9", found)
	}

	// /info counts them; /stats reports the pipeline.
	var info api.InfoResponse
	if err := json.Unmarshal(getPath(t, h, "/info").Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.NumRecords != 1210 {
		t.Fatalf("/info num_records = %d, want 1210", info.NumRecords)
	}
	var stats statsBody
	if err := json.Unmarshal(getPath(t, h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server["appends"] != 1 || stats.Server["append_series"] != 10 {
		t.Fatalf("server append counters: %+v", stats.Server)
	}
	if stats.Ingest.DeltaRecords != 10 || stats.Ingest.WALBytes <= 12 {
		t.Fatalf("ingest stats: %+v", stats.Ingest)
	}

	// /flush drains the delta; records stay findable.
	if rec := postJSON(t, h, "/flush", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("flush status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(getPath(t, h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingest.DeltaRecords != 0 || stats.Ingest.Compactions != 1 {
		t.Fatalf("ingest stats after flush: %+v", stats.Ingest)
	}
	// The one compaction was timed and its rewritten bytes counted, and the
	// partition buffers counted on the pool: a merge maps its sources and
	// takes one buffer for each file it writes, the build one per partition.
	var timed int64
	for _, n := range stats.Ingest.CompactDurations {
		timed += n
	}
	if timed != 1 || stats.Ingest.CompactSeconds <= 0 || stats.Ingest.CompactBytesWritten <= 0 {
		t.Fatalf("compaction duration/bytes after flush: %+v", stats.Ingest)
	}
	if stats.Cache.LoadBuffersReused+stats.Cache.LoadBuffersFresh < 2 {
		t.Fatalf("partition-buffer counters after a compaction: %+v", stats.Cache)
	}
	rec = postJSON(t, h, "/search", api.SearchRequest{Query: series[3], K: 3})
	var sr api.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 || sr.Results[0].ID != ar.IDs[3] {
		t.Fatalf("appended series lost after flush: %+v", sr.Results)
	}

	// Prometheus exposition carries the ingestion metrics.
	body := getPath(t, h, "/metrics").Body.String()
	for _, m := range []string{
		"climber_append_requests_total 1",
		"climber_append_series_total 10",
		"climber_compactions_total 1",
		"climber_compaction_duration_seconds_count 1",
		"climber_compaction_duration_seconds_bucket{le=\"+Inf\"} 1",
		fmt.Sprintf("climber_compaction_bytes_written_total %d", stats.Ingest.CompactBytesWritten),
		"climber_partition_load_buffers_total{source=\"reused\"}",
		"climber_partition_load_buffers_total{source=\"fresh\"}",
		"climber_partition_buffer_idle_bytes",
		"climber_delta_records 0",
		"climber_wal_bytes 12",
	} {
		if !strings.Contains(body, m) {
			t.Errorf("/metrics missing %q", m)
		}
	}
}

// TestAppendValidationErrors: malformed append bodies are clean 400s.
func TestAppendValidationErrors(t *testing.T) {
	db, _ := buildTestDB(t, 1000)
	h := New(db, Config{ServeConfig: api.ServeConfig{MaxAppend: 4}}).Handler()
	cases := []any{
		api.AppendRequest{}, // empty
		api.AppendRequest{Series: [][]float64{{1, 2, 3}}}, // wrong length
		api.AppendRequest{Series: make([][]float64, 5)},   // over MaxAppend
	}
	for i, body := range cases {
		if rec := postJSON(t, h, "/append", body); rec.Code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, rec.Code)
		}
	}

	// A reading finite in float64 but not in float32 (the storage
	// precision) would be stored as +Inf and turn later distances into
	// NaN: a 400 naming the precision, and nothing stored.
	big := make([]float64, 64)
	big[7] = 1e39
	rec := postJSON(t, h, "/append", api.AppendRequest{Series: [][]float64{big}})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "float32") {
		t.Errorf("append of 1e39: status %d body %s, want 400 naming float32", rec.Code, rec.Body)
	}
	if n := db.Info().NumRecords; n != 1000 {
		t.Errorf("rejected append stored records: %d, want 1000", n)
	}
	if rec := postJSON(t, h, "/search", api.SearchRequest{Query: big, K: 3}); rec.Code != http.StatusBadRequest {
		t.Errorf("search for 1e39: status %d, want 400", rec.Code)
	}
}

// TestAdminPosts drives the three administrative posts through the front: a
// backup is refused without a backup root (403) and for a name that is not a
// bare directory (400), lands under the root otherwise, a reindex reports the
// generation it made, and an operation the backend does not know is an error
// rather than a backup.
func TestAdminPosts(t *testing.T) {
	db, _ := buildTestDB(t, 600)
	if rec := postJSON(t, New(db, Config{}).Handler(), "/backup", map[string]string{"dir": "snap"}); rec.Code != http.StatusForbidden {
		t.Fatalf("backup without a root: status %d: %s", rec.Code, rec.Body)
	}
	root := t.TempDir()
	h := New(db, Config{BackupRoot: root}).Handler()
	if rec := postJSON(t, h, "/backup", map[string]string{"dir": "../snap"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("backup outside the root: status %d: %s", rec.Code, rec.Body)
	}
	want := fmt.Sprintf(`{"dir":%q,"status":"backed_up"}`, filepath.Join(root, "snap"))
	if rec := postJSON(t, h, "/backup", map[string]string{"dir": "snap"}); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != want {
		t.Fatalf("backup: status %d: %s, want %s", rec.Code, rec.Body, want)
	}
	if _, err := os.Stat(filepath.Join(root, "snap", "index.clms")); err != nil {
		t.Fatalf("backup wrote no index: %v", err)
	}
	if rec := postJSON(t, h, "/reindex", struct{}{}); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != `{"generation":1,"status":"reindexed"}` {
		t.Fatalf("reindex: status %d: %s", rec.Code, rec.Body)
	}
	if _, err := newBackend(db, Config{BackupRoot: root}).Admin(context.Background(), "snapshot", []byte(`{"dir":"other"}`)); err == nil {
		t.Fatal("an unknown admin operation succeeded")
	}
}
