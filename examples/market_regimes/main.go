// Market regimes: maintain a growing archive of normalised price windows
// and, at the end of each trading day, batch-query the current windows of a
// whole portfolio against history — the finance workload the paper's
// introduction motivates (data series "in sciences, IoT, finance, and web
// applications").
//
// The example exercises two production features of this implementation that
// go beyond one-shot benchmarks: Append (ingesting each new day into the
// existing index without a rebuild) and QueryBatch (the concurrent
// batch-query path).
//
//	go run ./examples/market_regimes
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"climber"
	"climber/internal/series"
)

const windowLen = 128 // readings per price window

// priceWindow synthesises one z-normalised price window with regime
// characteristics: trending windows drift steadily, mean-reverting windows
// oscillate, and volatile windows carry heavy noise.
func priceWindow(rng *rand.Rand, regime int) []float64 {
	x := make([]float64, windowLen)
	price := 100.0
	trend := 0.0
	switch regime {
	case 0: // trending
		trend = 0.3 + rng.Float64()*0.4
		if rng.IntN(2) == 0 {
			trend = -trend
		}
	case 1: // mean-reverting
	case 2: // volatile
	}
	for i := range x {
		switch regime {
		case 0:
			price += trend + rng.NormFloat64()*0.3
		case 1:
			price += (100-price)*0.2 + rng.NormFloat64()*0.5
		case 2:
			price += rng.NormFloat64() * 2.5
		}
		x[i] = price
	}
	series.ZNormalize(x)
	return x
}

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewPCG(2026, 6))
	regimeName := []string{"trending", "mean-reverting", "volatile"}

	// Historical archive: 6,000 windows with known regimes.
	const histSize = 6000
	history := make([][]float64, histSize)
	regimes := make([]int, histSize)
	for i := range history {
		regimes[i] = rng.IntN(3)
		history[i] = priceWindow(rng, regimes[i])
	}

	dir, err := os.MkdirTemp("", "climber-market-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := climber.Build(dir, history,
		climber.WithPivots(120),
		climber.WithCapacity(400),
		climber.WithSeed(9),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("archive: %d windows -> %d partitions\n", histSize, db.Info().NumPartitions)

	// Five trading days: each day appends 200 fresh windows, then
	// batch-queries a 10-instrument portfolio against everything seen.
	const portfolio = 10
	for day := 1; day <= 5; day++ {
		fresh := make([][]float64, 200)
		freshRegimes := make([]int, 200)
		for i := range fresh {
			freshRegimes[i] = rng.IntN(3)
			fresh[i] = priceWindow(rng, freshRegimes[i])
		}
		ids, err := db.Append(fresh)
		if err != nil {
			log.Fatal(err)
		}
		regimes = append(regimes, freshRegimes...)
		_ = ids

		queries := make([][]float64, portfolio)
		queryRegimes := make([]int, portfolio)
		for i := range queries {
			queryRegimes[i] = rng.IntN(3)
			queries[i] = priceWindow(rng, queryRegimes[i])
		}
		batch, err := db.QueryBatch(context.Background(), queries, climber.NewRequest(nil, 20), 0)
		if err != nil {
			log.Fatal(err)
		}
		// For each instrument: does retrieved history share the regime?
		agree, total := 0, 0
		for i, resp := range batch {
			for _, r := range resp.Results {
				if regimes[r.ID] == queryRegimes[i] {
					agree++
				}
				total++
			}
		}
		fmt.Printf("day %d: archive=%d windows, portfolio regime agreement %d/%d (%.0f%%)\n",
			day, db.Info().NumRecords, agree, total, 100*float64(agree)/float64(total))
	}

	// Show one retrieval in detail.
	q := priceWindow(rng, 0)
	resp, err := db.Query(context.Background(), climber.NewRequest(q, 5))
	if err != nil {
		log.Fatal(err)
	}
	res, stats := resp.Results, resp.Stats
	fmt.Printf("\nsample %s query: scanned %d records in %d partitions\n",
		regimeName[0], stats.RecordsScanned, stats.PartitionsScanned)
	for i, r := range res {
		fmt.Printf("  #%d window %-6d (%s) distance %.3f\n",
			i+1, r.ID, regimeName[regimes[r.ID]], r.Dist)
	}
}
