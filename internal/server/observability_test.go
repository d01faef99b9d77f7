package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"climber/internal/api"
	"climber/internal/obs"
	"climber/internal/series"
)

// findChild returns d's first direct child named name, or nil.
func findChild(d *obs.SpanData, name string) *obs.SpanData {
	if d == nil {
		return nil
	}
	for _, c := range d.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// requireSpansEnded fails the test unless the server behind h ended each
// span its traced queries opened: its unended-spans counter reads 0.
func requireSpansEnded(t *testing.T, h http.Handler) {
	t.Helper()
	body := getPath(t, h, "/metrics").Body.String()
	if !strings.Contains(body, "\nclimber_unended_spans_total 0\n") {
		t.Fatalf("traced queries left spans open, or the counter is missing:\n%s", grepLines(body, "climber_unended_spans_total"))
	}
}

// TestExplainSearch checks the explain contract on /search: the response
// carries the planner's ranked plan under the "" key plus the query's
// span tree, and a request without the flag carries neither.
func TestExplainSearch(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()

	rec := postJSON(t, h, "/search", map[string]any{"query": data[42], "k": 10, "explain": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp api.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	ex := resp.Explain[""]
	if ex == nil {
		t.Fatalf("explain response missing the \"\" explanation: %v", resp.Explain)
	}
	if len(ex.Plan) == 0 || ex.Variant == "" {
		t.Fatalf("explanation has no ranked plan: %+v", ex)
	}
	executed := 0
	for _, st := range ex.Plan {
		if st.Executed {
			executed++
		}
	}
	if executed == 0 {
		t.Fatalf("no plan step marked executed: %+v", ex.Plan)
	}

	if resp.Trace == nil {
		t.Fatal("explain response missing the span tree")
	}
	if resp.Trace.Name != "search" {
		t.Fatalf("root span %q, want search", resp.Trace.Name)
	}
	plan := findChild(resp.Trace, "plan")
	scan := findChild(resp.Trace, "scan")
	if plan == nil || scan == nil {
		t.Fatalf("span tree missing plan/scan stages: %+v", resp.Trace.Children)
	}
	part := findChild(scan, "partition")
	if part == nil {
		t.Fatalf("scan stage has no partition span: %+v", scan.Children)
	}
	if _, ok := part.Attrs["partition"]; !ok {
		t.Fatalf("partition span lacks the partition attr: %+v", part.Attrs)
	}
	if _, ok := part.Attrs["bytes"]; !ok {
		t.Fatalf("partition span lacks the bytes attr: %+v", part.Attrs)
	}

	// Without the flag, neither the explanation nor the trace is attached.
	rec = postJSON(t, h, "/search", map[string]any{"query": data[42], "k": 10})
	var plain api.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil || plain.Trace != nil {
		t.Fatal("explanation attached without the explain flag")
	}
	requireSpansEnded(t, h)
}

// zeroTimings strips every timing from a span tree in place, leaving the
// deterministic structure: names, attributes, labels, child order.
func zeroTimings(d *obs.SpanData) {
	if d == nil {
		return
	}
	d.StartNS, d.DurationNS = 0, 0
	for _, c := range d.Children {
		zeroTimings(c)
	}
}

// TestExplainBatchByteStable checks that a batch explain span tree is
// byte-stable across runs even though the batch executes its queries on
// concurrent workers: after zeroing timings, repeated identical requests
// serialize to identical bytes (the deterministic child ordering in
// obs.Span.Data is what's under test).
func TestExplainBatchByteStable(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()
	queries := [][]float64{data[3], data[77], data[402], data[555], data[808], data[1100]}

	var first []byte
	for run := 0; run < 3; run++ {
		rec := postJSON(t, h, "/search/batch", map[string]any{"queries": queries, "k": 9, "explain": true})
		if rec.Code != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", run, rec.Code, rec.Body)
		}
		var resp api.BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Trace == nil {
			t.Fatal("batch explain response missing the span tree")
		}
		if got := len(resp.Trace.Children); got != len(queries) {
			t.Fatalf("batch trace has %d query spans, want %d", got, len(queries))
		}
		for i, q := range resp.Trace.Children {
			if q.Name != "query" || q.Attrs["query"] != int64(i) {
				t.Fatalf("query span %d out of order: name=%q attrs=%v", i, q.Name, q.Attrs)
			}
		}
		zeroTimings(resp.Trace)
		raw, err := json.Marshal(resp.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = raw
			continue
		}
		if string(raw) != string(first) {
			t.Fatalf("explain trace not byte-stable across runs:\nrun 0: %s\nrun %d: %s", first, run, raw)
		}
	}
	requireSpansEnded(t, h)
}

// TestSlowLogEndpoint checks that requests crossing the threshold land in
// /debug/slow with their trace id, and that the ring is capped.
func TestSlowLogEndpoint(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{ServeConfig: api.ServeConfig{SlowThreshold: time.Nanosecond, SlowLogSize: 4}}).Handler()

	for i := 0; i < 6; i++ {
		rec := postJSON(t, h, "/search", map[string]any{"query": data[i], "k": 5})
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	rec := getPath(t, h, "/debug/slow")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slow status %d", rec.Code)
	}
	var out struct {
		Total   int64              `json:"total"`
		Entries []obs.SlowLogEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 6 {
		t.Fatalf("slow log total %d, want 6", out.Total)
	}
	if len(out.Entries) != 4 {
		t.Fatalf("ring holds %d entries, want capacity 4", len(out.Entries))
	}
	for _, e := range out.Entries {
		if e.Endpoint != "/search" || e.Status != http.StatusOK {
			t.Fatalf("unexpected slow entry: %+v", e)
		}
	}
}

// TestMetricsObservability checks the PR's metrics additions: the
// build-info gauge with granularity labels, the per-stage latency
// histograms (fed only by traced queries), and that the request latency
// histogram observes non-200 outcomes too.
func TestMetricsObservability(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()

	// One traced query feeds the stage histograms; one malformed request
	// must still be observed by the latency histogram.
	postJSON(t, h, "/search", map[string]any{"query": data[0], "k": 5, "explain": true})
	if rec := postJSON(t, h, "/search", map[string]any{"k": 5}); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed search: status %d", rec.Code)
	}

	body := getPath(t, h, "/metrics").Body.String()
	for _, want := range []string{
		`climber_build_info{version="`,
		`series_len="64"`,
		`climber_scan_kernel_info{impl="` + series.KernelName() + `"} 1`,
		`climber_stage_latency_seconds_bucket{stage="plan"`,
		`climber_stage_latency_seconds_bucket{stage="scan"`,
		"climber_traced_queries_total 1",
		"climber_slow_log_entries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Both requests — the 200 and the 400 — must be in the histogram count.
	if !strings.Contains(body, "climber_query_latency_seconds_count 2") {
		t.Errorf("latency histogram did not observe every outcome:\n%s",
			grepLines(body, "climber_query_latency_seconds"))
	}
}

// grepLines returns the lines of s containing substr, for error messages.
func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
