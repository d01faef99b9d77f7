package climber

import (
	"context"
	"errors"
	"testing"
)

func TestCloseIdempotentAndSentinels(t *testing.T) {
	data := smallData(600)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Search(data[0], 5); err != nil {
		t.Fatalf("search before close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second close must be a no-op, got %v", err)
	}
	if _, err := db.Search(data[0], 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("search after close returned %v, want ErrClosed", err)
	}
	if _, _, err := searchStats(db, data[0], 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("search-with-stats after close returned %v, want ErrClosed", err)
	}
	if _, err := searchPrefix(db, data[0][:32], 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("prefix search after close returned %v, want ErrClosed", err)
	}
	if _, err := searchBatch(db, [][]float64{data[0]}, 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close returned %v, want ErrClosed", err)
	}
	if _, err := db.Append(data[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close returned %v, want ErrClosed", err)
	}
}

// Close drops every partition mapping the DB holds.
func TestClosePurgesPartitionCache(t *testing.T) {
	dir := t.TempDir()
	data := smallData(600)
	buildAndClose(t, dir, data, smallOpts()...)
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Search(data[0], 10); err != nil {
		t.Fatal(err)
	}
	if db.cl.MappedBytes() == 0 {
		t.Fatal("expected mapped partitions before close")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.cl.MappedBytes(); got != 0 {
		t.Fatalf("close left %d bytes mapped", got)
	}
}

func TestReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	data := smallData(600)
	db, err := Build(dir, data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Search(data[7], 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, err := reopened.Search(data[7], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results after reopen, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs after reopen: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestSearchPrefixWithStatsReportsEffort(t *testing.T) {
	data := smallData(800)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, stats, err := db.SearchPrefixWithStatsContext(context.Background(), data[3][:32], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("prefix search returned no results")
	}
	if stats.PartitionsScanned == 0 || stats.RecordsScanned == 0 || stats.BytesLoaded == 0 {
		t.Fatalf("prefix stats empty: %+v", stats)
	}
	plain, err := searchPrefix(db, data[3][:32], 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i] != plain[i] {
			t.Fatalf("result %d differs between Query and SearchPrefixWithStatsContext", i)
		}
	}
}

func TestSearchContextPublicAPI(t *testing.T) {
	data := smallData(600)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, NewRequest(data[0], 5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Query returned %v", err)
	}
	if _, err := db.QueryBatch(ctx, [][]float64{data[0]}, NewRequest(nil, 5), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled QueryBatch returned %v", err)
	}
	resp, err := db.Query(context.Background(), NewRequest(data[0], 5))
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("Query: %v (%d results)", err, len(resp.Results))
	}
}
