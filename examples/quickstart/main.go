// Quickstart: build a CLIMBER database over a synthetic data-series
// collection and run an approximate kNN query through the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"climber"
)

func main() {
	log.SetFlags(0)

	// A toy collection: 5,000 random-walk series of 128 readings each —
	// think one day of per-minute sensor readings per series.
	const (
		numSeries = 5000
		seriesLen = 128
	)
	rng := rand.New(rand.NewPCG(7, 7))
	data := make([][]float64, numSeries)
	for i := range data {
		x := make([]float64, seriesLen)
		v := 0.0
		for j := range x {
			v += rng.NormFloat64()
			x[j] = v
		}
		data[i] = x
	}

	dir, err := os.MkdirTemp("", "climber-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Build with defaults scaled to the toy collection: 100 pivots and
	// ~10 partitions. Larger deployments keep the paper defaults
	// (200 pivots, prefix 10).
	db, err := climber.Build(dir, data,
		climber.WithPivots(100),
		climber.WithCapacity(500),
		climber.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	info := db.Info()
	fmt.Printf("built: %d series -> %d groups, %d partitions, %d-byte skeleton\n",
		info.NumRecords, info.NumGroups, info.NumPartitions, info.SkeletonBytes)

	// Query with series #42 itself: its nearest neighbour is... itself,
	// followed by genuinely similar walks.
	resp, err := db.Query(context.Background(), climber.NewRequest(data[42], 10))
	if err != nil {
		log.Fatal(err)
	}
	res, stats := resp.Results, resp.Stats
	fmt.Printf("query touched %d of %d partitions (%d records compared)\n",
		stats.PartitionsScanned, info.NumPartitions, stats.RecordsScanned)
	for i, r := range res {
		fmt.Printf("  #%-2d series %-5d distance %.4f\n", i+1, r.ID, r.Dist)
	}

	// The same query under the cheaper non-adaptive algorithm.
	res, err = db.Search(data[42], 10, climber.WithVariant(climber.KNN))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CLIMBER-kNN top hit: series %d at distance %.4f\n", res[0].ID, res[0].Dist)
}
