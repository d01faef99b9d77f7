package climber

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// TestQueryIsTheOnlyPath checks that every kept entry point is Query or
// QueryBatch under another signature: on one small index, for full, prefix,
// explain, progressive and batch-of-8 questions, the wrappers and the
// progressive Final snapshot return results and stats identical to the
// Response; and a short vector without Prefix, or a closed DB, is an error
// from every entry.
func TestQueryIsTheOnlyPath(t *testing.T) {
	data := smallData(1500)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	const k = 20
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from Query:\n got %+v\nwant %+v", what, got, want)
		}
	}

	for _, v := range []Variant{KNN, Adaptive4X, ODSmallest} {
		q := data[77]
		full, err := db.Query(ctx, NewRequest(q, k, WithVariant(v)))
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Results) != k || full.Explain != nil {
			t.Fatalf("variant %v: %d results, explain %v", v, len(full.Results), full.Explain)
		}
		res, err := db.Search(q, k, WithVariant(v))
		same("Search results", res, full.Results)
		res, st, err2 := db.SearchWithStatsContext(ctx, q, k, WithVariant(v))
		same("SearchWithStatsContext results", res, full.Results)
		same("SearchWithStatsContext stats", st, full.Stats)

		preq := NewRequest(q[:32], k, WithVariant(v))
		preq.Prefix = true
		prefix, err3 := db.Query(ctx, preq)
		res, st, err4 := db.SearchPrefixWithStatsContext(ctx, q[:32], k, WithVariant(v))
		same("SearchPrefixWithStatsContext results", res, prefix.Results)
		same("SearchPrefixWithStatsContext stats", st, prefix.Stats)

		explained, err5 := db.Query(ctx, NewRequest(q, k, WithVariant(v), WithExplain()))
		if explained.Explain == nil || len(explained.Explain.Plan) != explained.Stats.StepsPlanned {
			t.Errorf("variant %v: explain %+v for %d planned steps", v, explained.Explain, explained.Stats.StepsPlanned)
		}
		same("explain results", explained.Results, full.Results)
		same("explain stats", explained.Stats, full.Stats)

		var final SearchUpdate
		steps := 0
		preq = NewRequest(q, k, WithVariant(v))
		preq.Progress = func(u SearchUpdate) bool {
			final = u
			steps++
			return true
		}
		progressive, err6 := db.Query(ctx, preq)
		if !final.Final || steps < 2 {
			t.Errorf("variant %v: %d snapshots, last one final=%v", v, steps, final.Final)
		}
		same("Final snapshot results", final.Results, progressive.Results)
		same("Final snapshot stats", final.Stats, progressive.Stats)
		same("progressive results", progressive.Results, full.Results)
		if err := errors.Join(err, err2, err3, err4, err5, err6); err != nil {
			t.Fatal(err)
		}
	}

	queries := make([][]float64, 8)
	for i := range queries {
		queries[i] = data[100*i+3]
	}
	batch, err := db.QueryBatch(ctx, queries, NewRequest(nil, k), 3)
	if err != nil {
		t.Fatal(err)
	}
	bres, bstats, err := db.SearchBatchWithStatsContextWorkers(ctx, queries, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		one, err := db.Query(ctx, NewRequest(q, k))
		if err != nil {
			t.Fatal(err)
		}
		same("QueryBatch answer", batch[i], one)
		same("SearchBatchWithStatsContextWorkers results", bres[i], one.Results)
		same("SearchBatchWithStatsContextWorkers stats", bstats[i], one.Stats)
	}

	entries := map[string]func(q []float64) error{
		"Query": func(q []float64) error { _, err := db.Query(ctx, NewRequest(q, k)); return err },
		"QueryBatch": func(q []float64) error {
			_, err := db.QueryBatch(ctx, [][]float64{q}, NewRequest(nil, k), 1)
			return err
		},
		"Search": func(q []float64) error { _, err := db.Search(q, k); return err },
		"SearchWithStatsContext": func(q []float64) error {
			_, _, err := db.SearchWithStatsContext(ctx, q, k)
			return err
		},
		"SearchBatchWithStatsContextWorkers": func(q []float64) error {
			_, _, err := db.SearchBatchWithStatsContextWorkers(ctx, [][]float64{q}, k, 1)
			return err
		},
	}
	for name, call := range entries {
		if err := call(data[0][:32]); err == nil {
			t.Errorf("%s accepted a short vector without Prefix", name)
		}
	}
	entries["SearchPrefixWithStatsContext"] = func(q []float64) error {
		_, _, err := db.SearchPrefixWithStatsContext(ctx, q, k)
		return err
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for name, call := range entries {
		if err := call(data[0]); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed DB returned %v, want ErrClosed", name, err)
		}
	}
}

// TestDBMethodSet pins the exported method set of *DB to a checked-in list:
// one more way to ask the same question has to edit this list, and so pass
// a reviewer, before it can exist.
func TestDBMethodSet(t *testing.T) {
	want := []string{
		"Append", "AppendContext", "Backup", "CacheStats", "Close", "Dir",
		"Flush", "FlushContext", "Index", "Info", "IngestStats", "Reindex",
		// The query surface: two that do the work, one convenience.
		"Query", "QueryBatch", "Search",
		// Pinned by bench/layers.go; a [benchmark] PR removes them.
		"SearchBatchWithStatsContextWorkers", "SearchPrefixWithStatsContext", "SearchWithStatsContext",
	}
	sort.Strings(want)
	typ := reflect.TypeOf(&DB{})
	got := make([]string, typ.NumMethod())
	for i := range got {
		got[i] = typ.Method(i).Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported methods of *DB:\n got %v\nwant %v", got, want)
	}
}
