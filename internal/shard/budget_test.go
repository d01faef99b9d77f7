package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/dataset"
	"climber/internal/server"
)

// budgetFixtureOpts builds shard DBs with tiny partitions so per-shard
// plans span several steps and a max_partitions budget actually truncates.
func budgetFixtureOpts() []climber.Option {
	return []climber.Option{
		climber.WithSegments(8), climber.WithPivots(24), climber.WithPrefixLen(4),
		climber.WithCapacity(50), climber.WithSampleRate(0.2), climber.WithBlockSize(128),
		climber.WithSeed(7),
	}
}

// TestRouterForwardsBudgets drives a real two-shard deployment: a search
// with max_partitions must reach the shards (each loading at most that
// many partitions), and when a shard's plan is truncated the routed answer
// must be marked partial with the budget counter incremented.
func TestRouterForwardsBudgets(t *testing.T) {
	ds := dataset.RandomWalk(64, 2400, 55)
	topo := &Topology{}
	var shards []*climber.DB
	for s, sub := range SplitDataset(ds, 2) {
		db, err := climber.BuildDataset(t.TempDir(), sub, budgetFixtureOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(db, server.Config{}).Handler())
		shards = append(shards, db)
		topo.Shards = append(topo.Shards, Info{ID: fmt.Sprintf("shard-%d", s), URL: ts.URL})
		t.Cleanup(func() { ts.Close(); db.Close() })
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, Config{HealthInterval: 50 * time.Millisecond})
	rs := httptest.NewServer(r.Service().Handler())
	t.Cleanup(func() { rs.Close(); r.Close() })

	q := make([]float64, 64)
	copy(q, ds.Get(3))

	sawPartial := false
	for _, qid := range []int{3, 500, 1000, 1500, 2000} {
		copy(q, ds.Get(qid))
		// Probe: the full routed answer must not be partial.
		resp, body := postJSON(t, rs.URL+"/search", api.SearchRequest{Query: q, K: 300, Variant: "od-smallest"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe: status %d: %s", resp.StatusCode, body)
		}
		var full api.SearchResponse
		if err := json.Unmarshal(body, &full); err != nil {
			t.Fatal(err)
		}
		if full.Partial {
			t.Fatalf("unbudgeted routed answer marked partial")
		}

		resp, body = postJSON(t, rs.URL+"/search", api.SearchRequest{
			Query: q, K: 300, Variant: "od-smallest", MaxPartitions: 1, TimeBudgetMS: 60_000,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budgeted: status %d: %s", resp.StatusCode, body)
		}
		var got api.SearchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		// Each of the two shards loads at most one partition.
		if got.Stats.PartitionsScanned > 2 {
			t.Fatalf("budget 1/shard but %d partitions loaded in total", got.Stats.PartitionsScanned)
		}
		if len(got.Results) == 0 {
			t.Fatal("budgeted routed query returned nothing")
		}
		// full.StepsExecuted sums both shards' plans; more than 2 steps
		// means at least one shard was truncated by the budget.
		if full.StepsExecuted > 2 {
			if !got.Partial || got.StepsExecuted >= full.StepsExecuted {
				t.Fatalf("truncated routed answer not marked: partial=%v steps=%d/%d",
					got.Partial, got.StepsExecuted, full.StepsExecuted)
			}
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no query produced a truncated shard plan; fixture cannot exercise the budget")
	}

	// The router's budget-exhausted counter must have moved.
	if counters(t, rs.URL, "router")["budget_exhausted"] == 0 {
		t.Fatal("router budget_exhausted counter still zero after partial answers")
	}
	_, body := getBody(t, rs.URL+"/metrics")
	if !strings.Contains(string(body), "climber_router_budget_exhausted_total") {
		t.Fatal("climber_router_budget_exhausted_total missing from router /metrics")
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}
