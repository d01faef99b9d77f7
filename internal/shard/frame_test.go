package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/dataset"
	"climber/internal/server"
)

// hopRecord is one sub-request as a shard saw it arrive.
type hopRecord struct {
	path, contentType string
	body              []byte
}

// hopRecorder wraps a shard's handler and keeps every POST it is sent.
type hopRecorder struct {
	mu   sync.Mutex
	seen []hopRecord
	next http.Handler
}

func (h *hopRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		body, _ := io.ReadAll(r.Body)
		h.mu.Lock()
		h.seen = append(h.seen, hopRecord{r.URL.Path, r.Header.Get("Content-Type"), body})
		h.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	h.next.ServeHTTP(w, r)
}

// take returns and clears what was recorded.
func (h *hopRecorder) take() []hopRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.seen
	h.seen = nil
	return out
}

// TestHopIsBinary: whatever the client asks the router in JSON — search,
// prefix, batch, explain, append — reaches every shard it is sent to as one
// well-formed frame carrying the same request, never as text; the router's
// own answer stays JSON. The shards' framed_requests counter shows the same
// from their side, and a malformed frame sent to a shard directly is that
// shard's 400, counted in its bad_requests.
func TestHopIsBinary(t *testing.T) {
	ds := dataset.RandomWalk(64, 240, 99)
	topo := &Topology{}
	var recorders []*hopRecorder
	for s, sub := range SplitDataset(ds, 2) {
		db, err := climber.BuildDataset(t.TempDir(), sub, fixtureOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		rec := &hopRecorder{next: server.New(db, server.Config{}).Handler()}
		ts := httptest.NewServer(rec)
		recorders = append(recorders, rec)
		topo.Shards = append(topo.Shards, Info{ID: fmt.Sprintf("shard-%d", s), URL: ts.URL})
		t.Cleanup(func() { ts.Close(); db.Close() })
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, Config{HealthInterval: 50 * time.Millisecond})
	ts := httptest.NewServer(r.Service().Handler())
	t.Cleanup(func() { ts.Close(); r.Close() })

	q := append([]float64(nil), ds.Get(57)...)
	series := [][]float64{append([]float64(nil), ds.Get(1)...), append([]float64(nil), ds.Get(2)...), append([]float64(nil), ds.Get(3)...)}
	cases := []struct {
		name, path string
		body       any
		decode     func(frame []byte) (any, error) // what a shard must find in the frame
		want       any
	}{
		{"search", "/search", api.SearchRequest{Query: q, K: 20},
			func(b []byte) (any, error) { return api.Frame.DecodeSearch(b, 64, 10000) },
			&api.SearchRequest{Query: q, K: 20}},
		{"search, k omitted, budgets", "/search", map[string]any{"query": q, "variant": "knn", "max_partitions": 2, "time_budget_ms": 60000},
			func(b []byte) (any, error) { return api.Frame.DecodeSearch(b, 64, 10000) },
			&api.SearchRequest{Query: q, K: api.DefaultK, Variant: "knn", MaxPartitions: 2, TimeBudgetMS: 60000}},
		{"prefix", "/search/prefix", api.SearchRequest{Query: q[:32], K: 12, Variant: "knn"},
			func(b []byte) (any, error) { return api.Frame.DecodePrefix(b, 8, 64, 10000) },
			&api.SearchRequest{Query: q[:32], K: 12, Variant: "knn"}},
		{"explain", "/search", api.SearchRequest{Query: q, K: 5, Explain: true},
			func(b []byte) (any, error) { return api.Frame.DecodeSearch(b, 64, 10000) },
			&api.SearchRequest{Query: q, K: 5, Explain: true}},
		{"batch", "/search/batch", api.BatchRequest{Queries: series, K: 7},
			func(b []byte) (any, error) { return api.Frame.DecodeBatch(b, 64, 10000, 256) },
			&api.BatchRequest{Queries: series, K: 7}},
		{"explain batch", "/search/batch", api.BatchRequest{Queries: series[:2], K: 3, Explain: true},
			func(b []byte) (any, error) { return api.Frame.DecodeBatch(b, 64, 10000, 256) },
			&api.BatchRequest{Queries: series[:2], K: 3, Explain: true}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" || !json.Valid(body) {
			t.Errorf("%s: the router answered its client with Content-Type %q", c.name, ct)
		}
		for s, rec := range recorders {
			hops := rec.take()
			if len(hops) != 1 {
				t.Fatalf("%s: shard %d saw %d sub-requests, want 1", c.name, s, len(hops))
			}
			hop := hops[0]
			if hop.path != c.path || hop.contentType != api.FrameContentType {
				t.Errorf("%s: shard %d was sent %s as %q", c.name, s, hop.path, hop.contentType)
			}
			got, err := c.decode(hop.body)
			if err != nil {
				t.Fatalf("%s: shard %d was sent a frame that does not decode: %v", c.name, s, err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: shard %d was sent %+v, want %+v", c.name, s, got, c.want)
			}
		}
	}

	// Appends: every series arrives at exactly one shard, in frames.
	resp, body := postJSON(t, ts.URL+"/append", api.AppendRequest{Series: series})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", resp.StatusCode, body)
	}
	arrived := 0
	for s, rec := range recorders {
		for _, hop := range rec.take() {
			if hop.path != "/append" || hop.contentType != api.FrameContentType {
				t.Errorf("append: shard %d was sent %s as %q", s, hop.path, hop.contentType)
			}
			areq, err := api.Frame.DecodeAppend(hop.body, 64, 1024)
			if err != nil {
				t.Fatalf("append: shard %d was sent a frame that does not decode: %v", s, err)
			}
			arrived += len(areq.Series)
		}
	}
	if arrived != len(series) {
		t.Errorf("append: %d of %d series arrived at the shards", arrived, len(series))
	}

	// The shard side of the story: 6 framed queries each, plus the appends.
	var framed float64
	for _, sh := range topo.Shards {
		st := counters(t, sh.URL, "server")
		if st["framed_requests"] < 6 || st["bad_requests"] != 0 {
			t.Errorf("%s: framed_requests %v, bad_requests %v", sh.ID, st["framed_requests"], st["bad_requests"])
		}
		framed += st["framed_requests"]
	}
	if framed < 13 || framed > 14 { // 3 series land on one shard or on both
		t.Errorf("shards count %v framed requests, want 13 or 14", framed)
	}

	// A malformed frame is the shard's 400 and its bad_requests.
	bad := api.AppendFrame(nil, &api.SearchRequest{Query: q, K: 3})
	bad[4]++ // a version this build does not speak
	hresp, err := http.Post(topo.Shards[0].URL+"/search", api.FrameContentType, bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unsupported version") {
		t.Errorf("malformed frame: status %d: %s", hresp.StatusCode, msg)
	}
	if bad := counters(t, topo.Shards[0].URL, "server")["bad_requests"]; bad != 1 {
		t.Errorf("bad_requests = %v after one malformed frame", bad)
	}
}

// TestShardReplyIsBounded: a shard that answers 200 and then streams without
// end does not get to fill the router's memory. The reply read stops at the
// bound derived from the router's own limits, the client gets a 502 that
// names the shard, and the failure is counted against it.
func TestShardReplyIsBounded(t *testing.T) {
	stop := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/info":
			api.WriteJSON(w, http.StatusOK, api.InfoResponse{SeriesLen: 64})
		case "/healthz", "/stats":
			api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		default:
			w.Header().Set("Content-Type", api.FrameContentType)
			w.WriteHeader(http.StatusOK)
			chunk := bytes.Repeat([]byte{0xAB}, 32<<10)
			for {
				select {
				case <-stop:
					return
				case <-r.Context().Done():
					return
				default:
				}
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		}
	}))
	defer stub.Close()
	defer close(stop)
	topo := &Topology{Shards: []Info{{ID: "firehose", URL: stub.URL}}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{HealthInterval: 50 * time.Millisecond, ServeConfig: api.ServeConfig{MaxK: 100, MaxBatch: 4, MaxBodyBytes: 64 << 10}}
	r := NewRouter(topo, cfg)
	ts := httptest.NewServer(r.Service().Handler())
	defer func() { ts.Close(); r.Close() }()
	if want := api.MaxReplyBytes(100, 4, 64<<10); r.maxReply != want || want > 128<<10 {
		t.Fatalf("reply bound %d, want %d", r.maxReply, want)
	}

	query, _ := json.Marshal(api.SearchRequest{Query: make([]float64, 64), K: 3})
	client := &http.Client{Timeout: 20 * time.Second}
	resp, err := client.Post(ts.URL+"/search", "application/json", bytes.NewReader(query))
	if err != nil {
		t.Fatalf("the router is still reading the endless reply: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "shard firehose") || !strings.Contains(string(body), "limit") {
		t.Fatalf("status %d, want 502 naming the shard and the limit: %s", resp.StatusCode, body)
	}
	if st := counters(t, ts.URL, "router"); st["shard_errors"] != 1 || st["errors"] != 1 {
		t.Errorf("shard_errors=%v errors=%v after one unbounded reply, want 1 and 1", st["shard_errors"], st["errors"])
	}
}
