package server

import (
	"climber/internal/api"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"climber"
)

// WithTinyPartitions shrinks the partition capacity so plans span many
// partitions — the shape budget tests need steps to truncate.
func WithTinyPartitions() []climber.Option {
	return []climber.Option{climber.WithCapacity(50)}
}

// A search carrying max_partitions must be answered with the budget
// enforced: at most that many partitions loaded, the response marked
// partial with steps_executed when the plan wanted more, and the
// climber_budget_exhausted_total counter incremented.
func TestSearchBudgetPartialMarker(t *testing.T) {
	// Tiny capacity → many partitions, so od-smallest plans several steps.
	db, data := buildTestDB(t, 1200, WithTinyPartitions()...)
	srv := New(db, Config{})
	h := srv.Handler()

	sawPartial := false
	for _, qid := range []int{0, 200, 400, 600, 800, 1000} {
		// Unbudgeted probe: how many partitions does the full plan load?
		rec := postJSON(t, h, "/search", api.SearchRequest{Query: data[qid], K: 300, Variant: "od-smallest"})
		if rec.Code != http.StatusOK {
			t.Fatalf("probe: status %d: %s", rec.Code, rec.Body)
		}
		var full api.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
			t.Fatal(err)
		}
		if full.Partial {
			t.Fatalf("unbudgeted query marked partial: %+v", full.Stats)
		}

		rec = postJSON(t, h, "/search", api.SearchRequest{
			Query: data[qid], K: 300, Variant: "od-smallest", MaxPartitions: 1,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("budgeted: status %d: %s", rec.Code, rec.Body)
		}
		var resp api.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Stats.PartitionsScanned > 1 {
			t.Fatalf("max_partitions=1 but scanned %d partitions", resp.Stats.PartitionsScanned)
		}
		if len(resp.Results) == 0 {
			t.Fatal("budgeted query returned no results")
		}
		if full.Stats.PartitionsScanned > 1 {
			if !resp.Partial || resp.StepsExecuted != 1 {
				t.Fatalf("truncated answer not marked: partial=%v steps=%d (full plan loaded %d partitions)",
					resp.Partial, resp.StepsExecuted, full.Stats.PartitionsScanned)
			}
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no query produced a multi-partition plan; fixture cannot exercise the budget")
	}

	// The budget-exhausted counter must have moved, on /stats and /metrics.
	var stats statsBody
	if err := json.Unmarshal(getPath(t, h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server["budget_exhausted"] == 0 {
		t.Fatal("budget_exhausted counter still zero after partial answers")
	}
	body := getPath(t, h, "/metrics").Body.String()
	if !strings.Contains(body, "climber_budget_exhausted_total") {
		t.Fatal("climber_budget_exhausted_total missing from /metrics")
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "climber_budget_exhausted_total ") && strings.HasSuffix(line, " 0") {
			t.Fatalf("metrics report zero budget-exhausted queries: %q", line)
		}
	}
}

// time_budget_ms must be accepted on every search-shaped endpoint and a
// generous budget must change nothing about the answer.
func TestTimeBudgetAccepted(t *testing.T) {
	db, data := buildTestDB(t, 800)
	h := New(db, Config{}).Handler()

	rec := postJSON(t, h, "/search", api.SearchRequest{Query: data[1], K: 5, TimeBudgetMS: 60_000})
	if rec.Code != http.StatusOK {
		t.Fatalf("search with time budget: status %d: %s", rec.Code, rec.Body)
	}
	var resp api.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial {
		t.Fatalf("generous time budget produced a partial answer: %+v", resp.Stats)
	}

	rec = postJSON(t, h, "/search/prefix", api.SearchRequest{Query: data[1][:32], K: 5, TimeBudgetMS: 60_000})
	if rec.Code != http.StatusOK {
		t.Fatalf("prefix with time budget: status %d: %s", rec.Code, rec.Body)
	}
	rec = postJSON(t, h, "/search/batch", api.BatchRequest{Queries: [][]float64{data[1], data[2]}, K: 5, TimeBudgetMS: 60_000})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch with time budget: status %d: %s", rec.Code, rec.Body)
	}

	// Negative and absurdly large budgets are rejected at decode time (the
	// cap keeps derived-deadline arithmetic away from duration overflow).
	rec = postJSON(t, h, "/search", api.SearchRequest{Query: data[1], K: 5, TimeBudgetMS: -1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative time budget: status %d, want 400", rec.Code)
	}
	rec = postJSON(t, h, "/search", api.SearchRequest{Query: data[1], K: 5, TimeBudgetMS: 2_305_843_009_213})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("overflow-sized time budget: status %d, want 400", rec.Code)
	}
}

// A batch in which queries are budget-truncated reports the partial marker
// at the batch level.
func TestBatchBudgetPartialMarker(t *testing.T) {
	db, data := buildTestDB(t, 1200, WithTinyPartitions()...)
	h := New(db, Config{}).Handler()
	queries := [][]float64{data[0], data[200], data[400], data[600]}

	rec := postJSON(t, h, "/search/batch", api.BatchRequest{Queries: queries, K: 300, Variant: "od-smallest"})
	if rec.Code != http.StatusOK {
		t.Fatalf("probe: status %d: %s", rec.Code, rec.Body)
	}
	var probe api.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	if probe.StepsExecuted <= len(queries) {
		t.Fatalf("every probe plan was single-step (%d steps for %d queries); fixture cannot exercise the budget",
			probe.StepsExecuted, len(queries))
	}

	rec = postJSON(t, h, "/search/batch", api.BatchRequest{
		Queries: queries, K: 300, Variant: "od-smallest", MaxPartitions: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted batch: status %d: %s", rec.Code, rec.Body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("batch returned %d result sets, want %d", len(resp.Results), len(queries))
	}
	if !resp.Partial || resp.StepsExecuted == 0 {
		t.Fatalf("budget-truncated batch not marked: partial=%v steps=%d", resp.Partial, resp.StepsExecuted)
	}
}
