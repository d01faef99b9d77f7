package shard

import (
	"climber/internal/api"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"climber/internal/obs"
)

// childrenNamed returns d's direct children carrying name.
func childrenNamed(d *obs.SpanData, name string) []*obs.SpanData {
	var out []*obs.SpanData
	if d == nil {
		return out
	}
	for _, c := range d.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// requireSpansEnded fails the test unless the router at routerURL and every
// shard server of f ended each span their traced queries opened: each one's
// unended-spans counter reads 0.
func requireSpansEnded(t *testing.T, f *fixture, routerURL string) {
	t.Helper()
	want := map[string]string{routerURL: "climber_router_unended_spans_total"}
	for _, s := range f.servers {
		want[s.URL] = "climber_unended_spans_total"
	}
	for base, metric := range want {
		_, body := getBody(t, base+"/metrics")
		if !strings.Contains(string(body), "\n"+metric+" 0\n") {
			t.Fatalf("%s: traced queries left spans open, or %s is missing:\n%s", base, metric, body)
		}
	}
}

// TestRouterExplainNestedSpans is the observability acceptance check: an
// explain query through the router over two real shard servers returns
// one span tree in which the router's scatter stage carries one span per
// shard, each nesting that shard's own span tree (plan/scan stages
// included), the planner explanations come back keyed by shard ID, and
// the router's stage timings account for the traced wall time to within
// 10%.
func TestRouterExplainNestedSpans(t *testing.T) {
	f := newFixture(t, 400, 2)
	_, ts := f.startRouter(t, Config{})

	resp, raw := postJSON(t, ts.URL+"/search", map[string]any{"query": f.data[7], "k": 10, "explain": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var sr api.SearchResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}

	// Planner explanations, re-keyed from the shards' "" to their IDs.
	if len(sr.Explain) != 2 {
		t.Fatalf("explanations for %d shards, want 2: %v", len(sr.Explain), sr.Explain)
	}
	for _, id := range []string{"shard-0", "shard-1"} {
		ex := sr.Explain[id]
		if ex == nil {
			t.Fatalf("no explanation for %s", id)
		}
		if len(ex.Plan) == 0 {
			t.Fatalf("%s explanation has no ranked plan: %+v", id, ex)
		}
	}

	// The nested span tree: router root > scatter > per-shard spans, each
	// grafting the shard server's own trace.
	root := sr.Trace
	if root == nil || root.Name != "search" {
		t.Fatalf("missing or misnamed root span: %+v", root)
	}
	scatters := childrenNamed(root, "scatter")
	merges := childrenNamed(root, "merge")
	if len(scatters) != 1 || len(merges) != 1 {
		t.Fatalf("root has %d scatter and %d merge spans, want 1 and 1: %+v", len(scatters), len(merges), root.Children)
	}
	shardSpans := childrenNamed(scatters[0], "shard")
	if len(shardSpans) != 2 {
		t.Fatalf("scatter has %d shard spans, want 2: %+v", len(shardSpans), scatters[0].Children)
	}
	seen := map[string]bool{}
	for _, ss := range shardSpans {
		seen[ss.Labels["shard"]] = true
		grafted := childrenNamed(ss, "search")
		if len(grafted) != 1 {
			t.Fatalf("shard span %v nests %d shard traces, want 1", ss.Labels, len(grafted))
		}
		if len(childrenNamed(grafted[0], "plan")) != 1 || len(childrenNamed(grafted[0], "scan")) != 1 {
			t.Fatalf("nested shard trace missing plan/scan stages: %+v", grafted[0].Children)
		}
	}
	if !seen["shard-0"] || !seen["shard-1"] {
		t.Fatalf("shard spans not labeled with both shard IDs: %v", seen)
	}

	// Stage timings must account for the traced wall time: the root span
	// covers scatter + merge with only argument shuffling between them.
	var sum int64
	for _, c := range root.Children {
		sum += c.DurationNS
	}
	if root.DurationNS <= 0 {
		t.Fatalf("root span has no duration: %+v", root)
	}
	if gap := root.DurationNS - sum; gap < 0 || gap > root.DurationNS/10 {
		t.Fatalf("stage durations sum to %dns of a %dns root (gap %dns, >10%%)", sum, root.DurationNS, gap)
	}

	// A plain query through the same router returns neither.
	resp, raw = postJSON(t, ts.URL+"/search", map[string]any{"query": f.data[7], "k": 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var plain api.SearchResponse
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil || plain.Trace != nil {
		t.Fatal("explanation attached without the explain flag")
	}
	requireSpansEnded(t, f, ts.URL)
}

// TestRouterExplainBatch checks the batch path: the router's span tree
// nests each shard's batch trace (with its per-query spans) under the
// scatter stage.
func TestRouterExplainBatch(t *testing.T) {
	f := newFixture(t, 400, 2)
	_, ts := f.startRouter(t, Config{})

	queries := [][]float64{f.data[3], f.data[111], f.data[222]}
	resp, raw := postJSON(t, ts.URL+"/search/batch", map[string]any{"queries": queries, "k": 5, "explain": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Trace == nil || br.Trace.Name != "batch" {
		t.Fatalf("missing or misnamed batch root span: %+v", br.Trace)
	}
	scatters := childrenNamed(br.Trace, "scatter")
	if len(scatters) != 1 {
		t.Fatalf("batch root has %d scatter spans: %+v", len(scatters), br.Trace.Children)
	}
	for _, ss := range childrenNamed(scatters[0], "shard") {
		grafted := childrenNamed(ss, "batch")
		if len(grafted) != 1 {
			t.Fatalf("shard span %v nests %d batch traces, want 1", ss.Labels, len(grafted))
		}
		if got := len(childrenNamed(grafted[0], "query")); got != len(queries) {
			t.Fatalf("nested shard batch has %d query spans, want %d", got, len(queries))
		}
	}
	requireSpansEnded(t, f, ts.URL)
}
