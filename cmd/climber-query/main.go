// Command climber-query runs approximate kNN queries against a database
// built by climber-build, optionally comparing against the exact answer to
// report recall.
//
// Usage:
//
//	climber-query -dir ./db -data rw.clmb -id 17 -k 100 -variant adaptive-4x -exact
//	climber-query -dir ./db -data rw.clmb -id 17 -k 100 -max-partitions 2
//	climber-query -dir ./db -data rw.clmb -id 17 -k 100 -time-budget 2ms -progressive
//
// The query series is drawn from the dataset file by record ID, matching
// the paper's workload ("query objects are randomly selected from the
// entire dataset"). -max-partitions and -time-budget turn the query into
// an anytime query: it stops when the budget is spent and reports its best
// partial answer; -progressive streams the improving snapshots as the
// engine executes plan steps.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/dataset"
	"climber/internal/dss"
	"climber/internal/obs"
	"climber/internal/series"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-query: ")

	var (
		dir         = flag.String("dir", "", "database directory (required)")
		data        = flag.String("data", "", "dataset file the index was built from (required)")
		id          = flag.Int("id", 0, "record ID to use as the query")
		k           = flag.Int("k", 100, "answer size K")
		variant     = flag.String("variant", "adaptive-4x", "query algorithm: knn, adaptive-2x, adaptive-4x, od-smallest")
		exact       = flag.Bool("exact", false, "also compute the exact answer and report recall")
		show        = flag.Int("show", 10, "number of results to print")
		sample      = flag.Int("sample", 0, "evaluate a workload of this many random queries instead of one -id query")
		seed        = flag.Uint64("seed", 7, "workload sampling seed (with -sample)")
		explain     = flag.Bool("explain", false, "print the index-navigation trace")
		maxParts    = flag.Int("max-partitions", 0, "bound the query to at most this many partition loads (0 = unbounded); truncated answers are reported partial")
		timeBudget  = flag.Duration("time-budget", 0, "anytime-query time budget (e.g. 5ms); the engine answers with its best partial result at the deadline")
		progressive = flag.Bool("progressive", false, "stream progressive answer snapshots while the query runs")
	)
	flag.Parse()
	if *dir == "" || *data == "" {
		flag.Usage()
		os.Exit(2)
	}

	v, err := api.ParseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	db, err := climber.Open(*dir, climber.WithReadOnly())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ds, err := dataset.LoadFile(*data)
	if err != nil {
		log.Fatal(err)
	}
	budgetOpts := func() []climber.SearchOption {
		var opts []climber.SearchOption
		if *maxParts > 0 {
			opts = append(opts, climber.WithMaxPartitions(*maxParts))
		}
		if *timeBudget > 0 {
			opts = append(opts, climber.WithTimeBudget(*timeBudget))
		}
		return opts
	}

	if *sample > 0 {
		// The workload evaluator compares every variant; -variant applies
		// to single-query mode only.
		evaluateWorkload(db, ds, *sample, *k, *seed, budgetOpts())
		printCacheStats(db)
		return
	}
	if *id < 0 || *id >= ds.Len() {
		log.Fatalf("query id %d out of range [0, %d)", *id, ds.Len())
	}
	q := ds.Get(*id)

	// Every mode is the same Request through the same entry point, so what
	// -explain or -progressive prints can never describe a different plan or
	// budget than the query the user actually measures.
	req := climber.NewRequest(q, *k, append(budgetOpts(), climber.WithVariant(v))...)
	req.Explain = *explain
	ctx := context.Background()
	var tr *obs.Trace
	if *explain {
		tr = obs.NewTrace("search", "")
		ctx = obs.ContextWithSpan(ctx, tr.Root())
	}
	start := time.Now()
	if *progressive {
		req.Progress = func(u climber.SearchUpdate) bool {
			kth := 0.0
			if len(u.Results) > 0 {
				kth = u.Results[len(u.Results)-1].Dist
			}
			marker := ""
			if u.Final {
				marker = " (final)"
			}
			fmt.Printf("  step %d/%d: %d results, k-th dist %.6f, %v elapsed%s\n",
				u.Step, u.StepsPlanned, len(u.Results), kth, time.Since(start).Round(time.Microsecond), marker)
			return true
		}
	}
	resp, err := db.Query(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	res, stats := resp.Results, resp.Stats
	if ex := resp.Explain; ex != nil {
		tr.Root().End()
		fmt.Printf("explain (variant %s):\n", ex.Variant)
		fmt.Printf("  P4->  = %v\n", ex.RankSensitive)
		fmt.Printf("  P4-/> = %v\n", ex.RankInsensitive)
		fmt.Printf("  best OD = %d, candidate groups = %v, selected G%d\n",
			ex.BestOD, ex.CandidateGroups, ex.SelectedGroup)
		fmt.Printf("  trie path = %v (node size %d), partitions = %v\n",
			ex.MatchedPath, ex.TargetNodeSize, ex.Partitions)
		fmt.Printf("  plan (%d steps ranked, %d executed):\n", stats.StepsPlanned, stats.StepsExecuted)
		for i, st := range ex.Plan {
			state := "executed"
			if !st.Executed {
				state = "skipped (budget)"
			}
			target := fmt.Sprintf("%d clusters", st.Clusters)
			if st.Clusters == 0 {
				target = "whole partition"
			}
			fmt.Printf("    #%-3d partition %-6d od=%-3d depth=%-3d est=%-8d %-16s %s\n",
				i+1, st.Partition, st.OD, st.PathLen, st.Est, target, state)
		}
		fmt.Printf("  trace:\n")
		printSpan(tr.Root().Data(), "    ")
	}
	elapsed := time.Since(start)

	fmt.Printf("query id=%d k=%d variant=%s: %v\n", *id, *k, *variant, elapsed.Round(time.Microsecond))
	fmt.Printf("  groups=%d partitions=%d records=%d bytes=%d\n",
		stats.GroupsConsidered, stats.PartitionsScanned, stats.RecordsScanned, stats.BytesLoaded)
	if stats.Partial {
		fmt.Printf("  PARTIAL answer: budget %q exhausted after %d/%d plan steps\n",
			stats.BudgetExhausted, stats.StepsExecuted, stats.StepsPlanned)
	}
	n := *show
	if n > len(res) {
		n = len(res)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("  #%-3d id=%-8d dist=%.6f\n", i+1, res[i].ID, res[i].Dist)
	}

	if *exact {
		exStart := time.Now()
		exactRes := dss.SearchDataset(ds, q, *k)
		exElapsed := time.Since(exStart)
		fmt.Printf("exact scan: %v, recall = %.3f\n",
			exElapsed.Round(time.Microsecond), series.Recall(res, exactRes))
	}
	printCacheStats(db)
}

// printSpan renders a span tree as an indented outline, one line per
// span: name, duration, then the span's attributes and labels in key
// order.
func printSpan(d *obs.SpanData, indent string) {
	if d == nil {
		return
	}
	line := fmt.Sprintf("%s%-10s %v", indent, d.Name, time.Duration(d.DurationNS).Round(time.Microsecond))
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%d", k, d.Attrs[k])
	}
	lkeys := make([]string, 0, len(d.Labels))
	for k := range d.Labels {
		lkeys = append(lkeys, k)
	}
	sort.Strings(lkeys)
	for _, k := range lkeys {
		line += fmt.Sprintf(" %s=%s", k, d.Labels[k])
	}
	fmt.Println(line)
	for _, c := range d.Children {
		printSpan(c, indent+"  ")
	}
}

// printCacheStats summarises the partition files the run mapped: each is
// mapped at its first open, and every later open of it is a hit.
func printCacheStats(db *climber.DB) {
	cs := db.CacheStats()
	fmt.Printf("partition files: maps=%d heap-loads=%d hits=%d misses=%d bytes-saved=%d mapped-bytes=%d\n",
		cs.PartitionsLoaded-cs.MapFallbacks, cs.MapFallbacks, cs.Hits, cs.Misses, cs.BytesSaved, cs.MappedBytes)
}

// evaluateWorkload runs the paper's evaluation protocol against a built
// database: sample queries uniformly from the dataset, compare every
// variant's answers to the exact scan, report averages. The whole workload
// is pre-run once so that every variant is timed over partition files
// already mapped — otherwise the first variant would pay every first map
// and the timing comparison would be biased.
func evaluateWorkload(db *climber.DB, ds *series.Dataset, n, k int, seed uint64, budgetOpts []climber.SearchOption) {
	_, qs := dataset.Queries(ds, n, seed)
	fmt.Printf("workload: %d queries, K=%d\n", len(qs), k)
	for _, q := range qs {
		if _, err := db.Search(q, k, climber.WithVariant(climber.ODSmallest)); err != nil {
			log.Fatal(err)
		}
	}
	exact := make([][]series.Result, len(qs))
	exStart := time.Now()
	for i, q := range qs {
		exact[i] = dss.SearchDataset(ds, q, k)
	}
	fmt.Printf("ground truth (exact scans): %v total\n", time.Since(exStart).Round(time.Millisecond))

	variants := []struct {
		name string
		v    climber.Variant
	}{
		{"knn", climber.KNN},
		{"adaptive-2x", climber.Adaptive2X},
		{"adaptive-4x", climber.Adaptive4X},
		{"od-smallest", climber.ODSmallest},
	}
	fmt.Printf("%-12s %-8s %-12s %-12s %-10s %-8s\n", "variant", "recall", "avg-time", "records", "partitions", "partial")
	for _, vc := range variants {
		var recall float64
		var records, parts, partials int
		var total time.Duration
		for i, q := range qs {
			start := time.Now()
			resp, err := db.Query(context.Background(), climber.NewRequest(q, k, append(append([]climber.SearchOption(nil), budgetOpts...), climber.WithVariant(vc.v))...))
			if err != nil {
				log.Fatal(err)
			}
			total += time.Since(start)
			recall += series.Recall(resp.Results, exact[i])
			records += resp.Stats.RecordsScanned
			parts += resp.Stats.PartitionsScanned
			if resp.Stats.Partial {
				partials++
			}
		}
		nq := float64(len(qs))
		fmt.Printf("%-12s %-8.3f %-12v %-12.0f %-10.1f %d/%d\n",
			vc.name, recall/nq, (total / time.Duration(len(qs))).Round(time.Microsecond),
			float64(records)/nq, float64(parts)/nq, partials, len(qs))
	}
}
