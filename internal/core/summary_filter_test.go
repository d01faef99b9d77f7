package core

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/storage"
)

// summaryIndex builds a 3 000-record index of one generator's data and lands
// 60 more records of the same generator in partition tails, so scans cover
// bases and tails both. It returns the index and queries: indexed records
// and series the index never saw.
func summaryIndex(t *testing.T, name string) (*Index, [][]float64) {
	t.Helper()
	all, err := dataset.ByName(name, 3070, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := all.Slice(0, 3000)
	cfg := testConfig()
	ix, err := Build(cluster.New(t.TempDir(), 2), cluster.Blocks(base, cfg.BlockSize), cfg, "sum")
	if err != nil {
		t.Fatal(err)
	}
	first := ix.ReserveIDs(60)
	recs := make([]Routed, 60)
	for i := range recs {
		vals := make([]float64, all.Length())
		for j, v := range all.Get(3000 + i) {
			vals[j] = float64(float32(v))
		}
		recs[i] = Routed{ID: first + i, Route: ix.RouteNew(first+i, vals), Values: vals}
	}
	if _, err := ix.WriteRouted(recs); err != nil {
		t.Fatal(err)
	}
	tailed := 0
	for pid := range ix.Partitions().Paths {
		if _, tail := ix.Partitions().Layout(pid); tail > 0 {
			tailed++
		}
	}
	if tailed == 0 {
		t.Fatal("no partition tail to scan")
	}
	_, qs := dataset.Queries(base, 4, 11)
	for i := 3060; i < 3070; i += 3 {
		qs = append(qs, all.Get(i))
	}
	return ix, qs
}

// answer is what one query returned: results and statistics.
type answer struct {
	res   *SearchResult
	label string
}

// runSummaryQueries answers every query under every variant, K ∈ {1, 50,
// 200}, whole and as a prefix.
func runSummaryQueries(t *testing.T, ix *Index, qs [][]float64) []answer {
	t.Helper()
	var out []answer
	for qi, q := range qs {
		for _, v := range []Variant{VariantKNN, VariantAdaptive2X, VariantAdaptive4X, VariantODSmallest} {
			for _, k := range []int{1, 50, 200} {
				for _, prefix := range []bool{false, true} {
					query := q
					if prefix {
						query = q[:len(q)*3/4]
					}
					res, err := ix.Search(query, SearchOptions{K: k, Variant: v, Prefix: prefix})
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, answer{res, fmt.Sprintf("query %d %v K=%d prefix=%v", qi, v, k, prefix)})
				}
			}
		}
	}
	return out
}

// assertSameAnswers requires bit-identical results and identical
// statistics.
func assertSameAnswers(t *testing.T, what string, got, want []answer) {
	t.Helper()
	for i := range want {
		assertSameResults(t, what+": "+want[i].label, got[i].res.Results, want[i].res.Results)
		if !reflect.DeepEqual(got[i].res.Stats, want[i].res.Stats) {
			t.Fatalf("%s: %s: stats %+v, want %+v", what, want[i].label, got[i].res.Stats, want[i].res.Stats)
		}
	}
}

// TestSummaryFilterBitIdentical pins the summary filter as exact: with it
// (summaryFilter) and without it, every query answers the same results, bit
// for bit and in the same (distance, ID) tie order, with the same
// statistics — on random-walk, EEG, SIFT-like and DNA data, under all four
// variants, for K of 1, 50 and 200, whole and prefix queries, over partitions
// with live tails. The filter must also have skipped records on each
// dataset, or the comparison proves nothing.
func TestSummaryFilterBitIdentical(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			ix, qs := summaryIndex(t, name)
			defer func() { summaryFilter = true }()
			summaryFilter = false
			want := runSummaryQueries(t, ix, qs)
			summaryFilter = true
			pruned := ix.Cl.Stats.ScanPrunedRecords.Load()
			got := runSummaryQueries(t, ix, qs)
			assertSameAnswers(t, name, got, want)
			if ix.Cl.Stats.ScanPrunedRecords.Load() == pruned {
				t.Fatalf("%s: the filter skipped no record", name)
			}
		})
	}
}

// TestVersion2PartitionsAnswerUnfiltered rewrites every partition file of an
// index, tails included, in the summary-less version-2 format: the files
// open, answer exactly as the version-3 files did, and skip nothing. A fold
// then writes its base back in version 3.
func TestVersion2PartitionsAnswerUnfiltered(t *testing.T) {
	ix, qs := summaryIndex(t, "randomwalk")
	want := runSummaryQueries(t, ix, qs)

	parts := ix.Partitions()
	var tailed string
	for pid, path := range parts.Paths {
		files := []string{path}
		if _, tail := parts.Layout(pid); tail > 0 {
			files = append(files, cluster.TailPath(path))
			tailed = path
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := storage.WithoutSummaries(raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(f, v2, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	pruned := ix.Cl.Stats.ScanPrunedRecords.Load()
	got := runSummaryQueries(t, ix, qs)
	assertSameAnswers(t, "version 2", got, want)
	if n := ix.Cl.Stats.ScanPrunedRecords.Load() - pruned; n != 0 {
		t.Fatalf("version-2 files skipped %d records: they have no summaries", n)
	}

	if _, err := ix.FoldTails(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tailed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.WithoutSummaries(raw); err != nil {
		t.Fatalf("a folded base is not version 3: %v", err)
	}
}
