package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/dataset"
	"climber/internal/series"
	"climber/internal/server"
)

// fixtureOpts builds every test DB — sharded or not — so that a query with
// k >= n is provably EXACT: PrefixLen equals NumPivots, which makes every
// rank-insensitive signature the full pivot set, collapsing the skeleton to
// a single real data-series group, and the capacity exceeds the record
// count, so that group packs into one partition. Any query plan then loads
// that partition and the within-partition widening pass (triggered because
// k exceeds the planned clusters' record count) scans every record. That
// turns the sharded-vs-unsharded comparison into a deterministic equality:
// each shard answers the exact ranking of its subset, and a correct merge
// must reproduce the unsharded DB's exact ranking bit for bit.
func fixtureOpts() []climber.Option {
	return []climber.Option{
		climber.WithSegments(8), climber.WithPivots(8), climber.WithPrefixLen(8),
		climber.WithCapacity(4096), climber.WithSampleRate(0.5), climber.WithBlockSize(128),
		climber.WithSeed(7),
	}
}

// fixture is a sharded deployment under test: the unsharded reference DB,
// per-shard DBs behind real HTTP servers, and the topology covering them.
type fixture struct {
	full    *climber.DB
	data    [][]float64
	shards  []*climber.DB
	servers []*httptest.Server
	topo    *Topology
}

// newFixture builds an n-record dataset, an unsharded reference DB, and
// nShards shard DBs split round-robin, each served over HTTP.
func newFixture(t *testing.T, n, nShards int) *fixture {
	t.Helper()
	ds := dataset.RandomWalk(64, n, 99)
	data := make([][]float64, n)
	for i := range data {
		x := make([]float64, 64)
		copy(x, ds.Get(i))
		data[i] = x
	}
	full, err := climber.BuildDataset(t.TempDir(), cloneDataset(ds), fixtureOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { full.Close() })

	f := &fixture{full: full, data: data, topo: &Topology{}}
	for s, sub := range SplitDataset(ds, nShards) {
		db, err := climber.BuildDataset(t.TempDir(), sub, fixtureOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
		f.shards = append(f.shards, db)
		f.servers = append(f.servers, ts)
		f.topo.Shards = append(f.topo.Shards, Info{ID: fmt.Sprintf("shard-%d", s), URL: ts.URL})
		t.Cleanup(func() { ts.Close(); db.Close() })
	}
	if err := f.topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

func cloneDataset(ds *series.Dataset) *series.Dataset {
	out := series.NewDatasetCap(ds.Length(), ds.Len())
	for i := 0; i < ds.Len(); i++ {
		out.Append(ds.Get(i))
	}
	return out
}

// startRouter mounts a router over the fixture's topology.
func (f *fixture) startRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	r := NewRouter(f.topo, cfg)
	ts := httptest.NewServer(r.Service().Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })
	return r, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// counters reads one section of a service's GET /stats — "router" for a
// router, "server" for a shard — as its counter rows by key.
func counters(t *testing.T, base, section string) map[string]float64 {
	t.Helper()
	var stats map[string]json.RawMessage
	if code := getJSON(t, base+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("%s/stats: %d", base, code)
	}
	var rows map[string]float64
	if err := json.Unmarshal(stats[section], &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestShardedMatchesUnsharded is the acceptance criterion: on a fixed
// dataset and query set, the router's merged answers equal the unsharded
// DB's, IDs and distances both — for /search, /search/batch, and
// /search/prefix.
func TestShardedMatchesUnsharded(t *testing.T) {
	const n = 240
	f := newFixture(t, n, 3)
	_, ts := f.startRouter(t, Config{})

	k := n + 8 // k >= n makes every answer the exact full ranking
	for _, qid := range []int{0, 57, 239} {
		q := f.data[qid]
		want, err := f.full.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: q, K: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", qid, resp.StatusCode, body)
		}
		var sr api.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Partial || sr.ShardsAnswered != 3 || sr.ShardsAsked != 3 {
			t.Fatalf("query %d: unexpected scatter shape %+v", qid, sr)
		}
		if len(sr.Results) != len(want) {
			t.Fatalf("query %d: %d merged results, unsharded returned %d", qid, len(sr.Results), len(want))
		}
		for i := range want {
			if sr.Results[i].ID != want[i].ID || sr.Results[i].Dist != want[i].Dist {
				t.Fatalf("query %d rank %d: sharded (%d, %g) vs unsharded (%d, %g)",
					qid, i, sr.Results[i].ID, sr.Results[i].Dist, want[i].ID, want[i].Dist)
			}
		}
		if sr.Stats.RecordsScanned < n {
			t.Fatalf("query %d: aggregated stats scanned %d records, want >= %d", qid, sr.Stats.RecordsScanned, n)
		}
	}

	// Batch: same equality, several queries at once.
	queries := [][]float64{f.data[11], f.data[120], f.data[200]}
	resp, body := postJSON(t, ts.URL+"/search/batch", api.BatchRequest{Queries: queries, K: k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	wantBatch, err := f.full.QueryBatch(context.Background(), queries, climber.NewRequest(nil, k), 0)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		want := wantBatch[qi].Results
		if len(br.Results[qi]) != len(want) {
			t.Fatalf("batch %d: %d results, want %d", qi, len(br.Results[qi]), len(want))
		}
		for i := range want {
			if br.Results[qi][i] != want[i] {
				t.Fatalf("batch %d rank %d mismatch", qi, i)
			}
		}
	}

	// Prefix: the query covers only the first 32 readings.
	q := f.data[42][:32]
	preq := climber.NewRequest(q, k)
	preq.Prefix = true
	ans, err := f.full.Query(context.Background(), preq)
	if err != nil {
		t.Fatal(err)
	}
	wantPre := ans.Results
	resp, body = postJSON(t, ts.URL+"/search/prefix", api.SearchRequest{Query: q, K: k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prefix: status %d: %s", resp.StatusCode, body)
	}
	var pr api.SearchResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Results) != len(wantPre) {
		t.Fatalf("prefix: %d results, want %d", len(pr.Results), len(wantPre))
	}
	for i := range wantPre {
		if pr.Results[i].ID != wantPre[i].ID || pr.Results[i].Dist != wantPre[i].Dist {
			t.Fatalf("prefix rank %d: sharded (%d, %g) vs unsharded (%d, %g)",
				i, pr.Results[i].ID, pr.Results[i].Dist, wantPre[i].ID, wantPre[i].Dist)
		}
	}
}

// TestRealisticKSelfQueries: under a production-shaped k, a record's own
// query must come back as its global ID at distance ~0 through the router.
func TestRealisticKSelfQueries(t *testing.T) {
	f := newFixture(t, 240, 4)
	_, ts := f.startRouter(t, Config{})
	for _, qid := range []int{3, 100, 237} {
		resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: f.data[qid], K: 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", qid, resp.StatusCode, body)
		}
		var sr api.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Results) == 0 || sr.Results[0].ID != qid || sr.Results[0].Dist > 1e-4 {
			t.Fatalf("query %d: top result %+v, want its own global ID at ~0", qid, sr.Results)
		}
	}
}

// TestShardDownAllPolicy: under the default all-shards policy, losing a
// shard fails queries fast with 502 — never a silently incomplete answer —
// and flips the router's /healthz to 503.
func TestShardDownAllPolicy(t *testing.T) {
	f := newFixture(t, 120, 2)
	r, ts := f.startRouter(t, Config{})
	// Warm: learn the series length while both shards live.
	if resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: f.data[0], K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d: %s", resp.StatusCode, body)
	}

	f.servers[1].Close() // shard goes down

	resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: f.data[0], K: 3})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("query with a dead shard: status %d (want 502): %s", resp.StatusCode, body)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "shard-1") {
		t.Fatalf("error should name the failed shard: %q", body)
	}

	// The prober notices within a few intervals; /healthz turns 503 because
	// the all-shards policy cannot be served any more.
	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("health prober never marked the dead shard down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var hz HealthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead shard under all-policy: %d, want 503", code)
	}
	if hz.Status != "unavailable" || hz.Shards["shard-1"] != "down" || hz.Shards["shard-0"] != "up" {
		t.Fatalf("healthz body: %+v", hz)
	}
}

// TestShardDownQuorum: with Quorum 1 of 2, losing a shard degrades reads —
// they succeed, marked partial, covering the surviving shard — instead of
// erroring the whole query; /healthz reports "degraded" with 200.
func TestShardDownQuorum(t *testing.T) {
	const n = 120
	f := newFixture(t, n, 2)
	r, ts := f.startRouter(t, Config{Quorum: 1})
	if resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: f.data[0], K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm query: %d: %s", resp.StatusCode, body)
	}

	f.servers[1].Close()

	k := n + 4
	resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: f.data[0], K: k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quorum query with a dead shard: status %d: %s", resp.StatusCode, body)
	}
	var sr api.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial || sr.ShardsAnswered != 1 {
		t.Fatalf("expected a partial single-shard answer, got %+v", sr)
	}
	// The partial answer is exactly the surviving shard's records: shard 0
	// holds the even-indexed records under round-robin split, globalised
	// back to their original IDs.
	want, err := f.shards[0].Search(f.data[0], k)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != len(want) {
		t.Fatalf("partial answer has %d results, shard 0 holds %d", len(sr.Results), len(want))
	}
	for i, res := range sr.Results {
		if res.ID%2 != 0 {
			t.Fatalf("partial answer contains ID %d, which the dead shard owned", res.ID)
		}
		if gotLocal := res.ID / 2; want[i].ID != gotLocal || want[i].Dist != res.Dist {
			t.Fatalf("rank %d: partial (%d, %g) vs shard-0 (%d, %g)", i, res.ID, res.Dist, want[i].ID, want[i].Dist)
		}
	}

	// Health: degraded but serving.
	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("health prober never marked the dead shard down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var hz HealthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz under quorum with one live shard: %d, want 200", code)
	}
	if hz.Status != "degraded" {
		t.Fatalf("healthz status %q, want degraded", hz.Status)
	}

	// Quorum 2 of 2 with one shard dead: 503, not a partial answer.
	_, ts2 := f.startRouter(t, Config{Quorum: 2})
	resp, body = postJSON(t, ts2.URL+"/search", api.SearchRequest{Query: f.data[0], K: 3})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quorum-2 query with a dead shard: status %d (want 503): %s", resp.StatusCode, body)
	}
}

// TestReplicaDedupe: two topology entries sharing an id_base declare read
// replicas of the same records. Both answer every query, so without dedupe
// the merged top-k would list every neighbour twice; the merge must
// collapse duplicates by global ID and count what it dropped.
func TestReplicaDedupe(t *testing.T) {
	const n = 120
	ds := dataset.RandomWalk(64, n, 17)
	db, err := climber.BuildDataset(t.TempDir(), ds, fixtureOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tsA := httptest.NewServer(server.New(db, server.Config{}).Handler())
	defer tsA.Close()
	// Replica B is the same process in this test; on the wire it is
	// indistinguishable from a second server over a copied directory.
	base := 0
	topo := &Topology{Shards: []Info{
		{ID: "replica-a", URL: tsA.URL, IDBase: &base},
		{ID: "replica-b", URL: tsA.URL, IDBase: &base},
	}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Stride() != 1 {
		t.Fatalf("stride %d, want 1 (one shared namespace)", topo.Stride())
	}
	r := NewRouter(topo, Config{HealthInterval: 50 * time.Millisecond})
	defer r.Close()
	ts := httptest.NewServer(r.Service().Handler())
	defer ts.Close()

	q := make([]float64, 64)
	copy(q, ds.Get(9))
	const k = 12
	resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: q, K: k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr api.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != k {
		t.Fatalf("%d results, want %d", len(sr.Results), k)
	}
	seen := make(map[int]struct{})
	for _, res := range sr.Results {
		if _, dup := seen[res.ID]; dup {
			t.Fatalf("duplicate global ID %d survived the merge: %+v", res.ID, sr.Results)
		}
		seen[res.ID] = struct{}{}
	}
	// The replicas returned identical answers, so the deduped merge equals
	// one replica's answer exactly.
	want, err := db.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if sr.Results[i].ID != want[i].ID || sr.Results[i].Dist != want[i].Dist {
			t.Fatalf("rank %d: deduped (%d, %g) vs direct (%d, %g)",
				i, sr.Results[i].ID, sr.Results[i].Dist, want[i].ID, want[i].Dist)
		}
	}
	if dropped := counters(t, ts.URL, "router")["duplicates_dropped"]; dropped < float64(k) {
		t.Fatalf("duplicates_dropped = %v, want >= %d", dropped, k)
	}
}

// TestAppendThroughRouter: appends route by rendezvous hashing, come back
// with globally unique IDs, are immediately searchable through the router,
// and fail over to healthy shards when one dies.
func TestAppendThroughRouter(t *testing.T) {
	const n = 120
	f := newFixture(t, n, 2)
	r, ts := f.startRouter(t, Config{Quorum: 1})

	fresh := dataset.RandomWalk(64, 16, 4242)
	series := make([][]float64, fresh.Len())
	for i := range series {
		x := make([]float64, 64)
		copy(x, fresh.Get(i))
		series[i] = x
	}
	resp, body := postJSON(t, ts.URL+"/append", api.AppendRequest{Series: series})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", resp.StatusCode, body)
	}
	var ar api.AppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.IDs) != len(series) {
		t.Fatalf("acked %d ids for %d series", len(ar.IDs), len(series))
	}
	seen := make(map[int]struct{})
	for _, id := range ar.IDs {
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate global ID %d in append ack %v", id, ar.IDs)
		}
		seen[id] = struct{}{}
	}

	// Each appended series answers its own query at ~0 under its global ID.
	for i, q := range series {
		resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr api.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Results) == 0 || sr.Results[0].ID != ar.IDs[i] || sr.Results[0].Dist > 1e-4 {
			t.Fatalf("appended series %d (global %d): top result %+v", i, ar.IDs[i], sr.Results)
		}
	}

	// /info sums the shards: build records plus the appended ones.
	var info InfoResponse
	if code := getJSON(t, ts.URL+"/info", &info); code != http.StatusOK {
		t.Fatalf("/info: %d", code)
	}
	if info.NumRecords != n+len(series) || info.NumShards != 2 {
		t.Fatalf("/info: %+v, want %d records over 2 shards", info, n+len(series))
	}

	// Kill shard 1 and wait for the prober: appends must fail over.
	f.servers[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("health prober never marked the dead shard down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, body = postJSON(t, ts.URL+"/append", api.AppendRequest{Series: series[:4]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append after failover: status %d: %s", resp.StatusCode, body)
	}
	var ar2 api.AppendResponse
	if err := json.Unmarshal(body, &ar2); err != nil {
		t.Fatal(err)
	}
	for _, id := range ar2.IDs {
		if id%f.topo.Stride() != 0 {
			t.Fatalf("failover append landed on a dead shard's namespace: id %d", id)
		}
	}
}

// TestRouterMetricsAndFlush smoke-checks the Prometheus exposition and the
// fanned-out flush.
func TestRouterMetricsAndFlush(t *testing.T) {
	f := newFixture(t, 120, 2)
	_, ts := f.startRouter(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: f.data[0], K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d: %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/flush", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: %d: %s", resp.StatusCode, body)
	}
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"climber_router_search_requests_total 1",
		"climber_router_flush_requests_total 1",
		`climber_router_shard_up{shard="shard-0"} 1`,
		`climber_router_shard_up{shard="shard-1"} 1`,
		"climber_router_query_latency_seconds_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouterBadRequests: malformed bodies are clean 400s at the router,
// never forwarded.
func TestRouterBadRequests(t *testing.T) {
	f := newFixture(t, 120, 2)
	_, ts := f.startRouter(t, Config{ServeConfig: api.ServeConfig{MaxK: 50}})
	for name, body := range map[string]string{
		"invalid json": `{"query": [1,2`,
		"wrong length": `{"query": [1,2,3], "k": 5}`,
		"k over limit": fmt.Sprintf(`{"query": [%s1], "k": 51}`, strings.Repeat("0,", 63)),
		"bad variant":  fmt.Sprintf(`{"query": [%s1], "variant": "bogus"}`, strings.Repeat("0,", 63)),
	} {
		resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A prefix shorter than the shards' PAA segment count passes the
	// router's loose validation but every shard rejects it with 400; the
	// router must relay the client error, not report a gateway failure.
	resp, body := postJSON(t, ts.URL+"/search/prefix", api.SearchRequest{Query: []float64{1, 2, 3, 4}, K: 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("too-short prefix via router: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestRouterRelaysShardOverloadAsRejected: a shard whose admission control
// sheds the sub-request (429) is an overloaded fleet, not a malformed client
// request — the router relays the 429 and counts it under rejected, never
// under bad_requests.
func TestRouterRelaysShardOverloadAsRejected(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/info":
			api.WriteJSON(w, http.StatusOK, api.InfoResponse{SeriesLen: 64})
		case "/healthz":
			api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		default:
			api.WriteJSON(w, http.StatusTooManyRequests, api.ErrorResponse{Error: "server overloaded"})
		}
	}))
	defer stub.Close()
	topo := &Topology{Shards: []Info{{ID: "busy", URL: stub.URL}}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, Config{HealthInterval: 50 * time.Millisecond})
	ts := httptest.NewServer(r.Service().Handler())
	defer func() { ts.Close(); r.Close() }()

	resp, body := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: make([]float64, 64), K: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if st := counters(t, ts.URL, "router"); st["rejected"] != 1 || st["bad_requests"] != 0 {
		t.Errorf("rejected=%v bad_requests=%v after one relayed 429, want 1 and 0", st["rejected"], st["bad_requests"])
	}
}

// TestRouterRefusesMismatchedSeriesLen: shards built with different series
// lengths are a broken topology, not something to pick a winner from. /info
// and every query endpoint answer 503, naming both shards and both lengths.
func TestRouterRefusesMismatchedSeriesLen(t *testing.T) {
	topo := &Topology{}
	for i, n := range []int{64, 128} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
		mux.HandleFunc("GET /info", func(w http.ResponseWriter, _ *http.Request) {
			api.WriteJSON(w, http.StatusOK, api.InfoResponse{SeriesLen: n, NumRecords: 10})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		topo.Shards = append(topo.Shards, Info{ID: fmt.Sprintf("shard-%d", i), URL: ts.URL})
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, Config{HealthInterval: 50 * time.Millisecond})
	ts := httptest.NewServer(r.Service().Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })

	var e api.ErrorResponse
	if code := getJSON(t, ts.URL+"/info", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("/info over mismatched shards: status %d, want 503", code)
	}
	for _, want := range []string{"shard-0", "64", "shard-1", "128"} {
		if !strings.Contains(e.Error, want) {
			t.Errorf("/info error %q does not name %q", e.Error, want)
		}
	}
	q := make([]float64, 64)
	for path, body := range map[string]any{
		"/search":        api.SearchRequest{Query: q},
		"/search/prefix": api.SearchRequest{Query: q[:16]},
		"/search/batch":  api.BatchRequest{Queries: [][]float64{q}},
		"/append":        api.AppendRequest{Series: [][]float64{q}},
	} {
		if resp, raw := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s over mismatched shards: status %d (%s), want 503", path, resp.StatusCode, raw)
		}
	}
}

// TestRouterWithNoShardReachable: a router that has never reached a shard
// answers 503 in the words clients have always seen — /info that no shard is
// reachable, a query endpoint that the index shape cannot be learned — each
// naming a shard and what went wrong reaching it.
func TestRouterWithNoShardReachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // its port now refuses connections
	topo := &Topology{Shards: []Info{{ID: "shard-0", URL: dead.URL}}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, Config{HealthInterval: time.Hour})
	ts := httptest.NewServer(r.Service().Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })

	var e api.ErrorResponse
	if code := getJSON(t, ts.URL+"/info", &e); code != http.StatusServiceUnavailable || !strings.HasPrefix(e.Error, "no shard reachable: shard shard-0: ") {
		t.Errorf("/info: status %d, error %q", code, e.Error)
	}
	resp, raw := postJSON(t, ts.URL+"/search", api.SearchRequest{Query: make([]float64, 64)})
	if want := `{"error":"no shard reachable to learn the index shape: shard shard-0: `; resp.StatusCode != http.StatusServiceUnavailable || !strings.HasPrefix(string(raw), want) {
		t.Errorf("/search: status %d, body %s", resp.StatusCode, raw)
	}
}

// TestRouterInfoGeneration: the router's /info reports the lowest generation
// any shard serves — the fleet has finished reindex N when every shard has.
func TestRouterInfoGeneration(t *testing.T) {
	f := newFixture(t, 240, 2)
	_, ts := f.startRouter(t, Config{})
	generation := func() int {
		var info InfoResponse
		if code := getJSON(t, ts.URL+"/info", &info); code != http.StatusOK {
			t.Fatalf("/info: %d", code)
		}
		return info.Generation
	}
	if resp, raw := postJSON(t, f.servers[0].URL+"/reindex", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reindex of shard-0: %d: %s", resp.StatusCode, raw)
	}
	if g := generation(); g != 0 {
		t.Errorf("generation %d with shard-1 still at 0, want 0", g)
	}
	if resp, raw := postJSON(t, ts.URL+"/reindex", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("routed reindex: %d: %s", resp.StatusCode, raw)
	}
	if g := generation(); g != 1 {
		t.Errorf("generation %d with the shards at 2 and 1, want 1", g)
	}
}
