// DNA subsequence search: find genome fragments similar to a probe
// sequence — the paper evaluates CLIMBER on series converted from the UCSC
// human-genome assembly exactly this way (DNA strings cut into
// subsequences, numerically encoded; Section VII-A).
//
// The example builds a CLIMBER database over converted DNA fragments and
// contrasts the four query variants (kNN, Adaptive-2X, Adaptive-4X,
// OD-Smallest) on the same probes: recall climbs with the amount of data
// each variant is willing to touch — the trade-off at the heart of the
// paper.
//
//	go run ./examples/dna_search
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"climber"
	"climber/internal/dataset"
	"climber/internal/dss"
	"climber/internal/series"
)

func main() {
	log.SetFlags(0)

	const fragments = 10000
	genome := dataset.DNAWalk(fragments, 77)
	fmt.Printf("genome archive: %d fragments, %d points each (order-2 Markov ACGT -> numeric walk)\n",
		genome.Len(), genome.Length())

	dir, err := os.MkdirTemp("", "climber-dna-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := climber.BuildDataset(dir, genome,
		climber.WithPivots(200),
		climber.WithCapacity(1000),
		climber.WithSeed(11),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	info := db.Info()
	fmt.Printf("index: %d groups, %d partitions, %.1f KB skeleton\n\n",
		info.NumGroups, info.NumPartitions, float64(info.SkeletonBytes)/1024)

	const k = 50
	_, probes := dataset.Queries(genome, 10, 5)

	variants := []struct {
		name string
		v    climber.Variant
	}{
		{"CLIMBER-kNN", climber.KNN},
		{"Adaptive-2X", climber.Adaptive2X},
		{"Adaptive-4X", climber.Adaptive4X},
		{"OD-Smallest", climber.ODSmallest},
	}
	fmt.Printf("%-14s %-8s %-12s %-10s\n", "variant", "recall", "records", "partitions")
	for _, vc := range variants {
		sumRecall, sumRecords, sumParts := 0.0, 0, 0
		for _, q := range probes {
			exact := dss.SearchDataset(genome, q, k)
			resp, err := db.Query(context.Background(), climber.NewRequest(q, k, climber.WithVariant(vc.v)))
			if err != nil {
				log.Fatal(err)
			}
			sumRecall += series.Recall(resp.Results, exact)
			sumRecords += resp.Stats.RecordsScanned
			sumParts += resp.Stats.PartitionsScanned
		}
		n := float64(len(probes))
		fmt.Printf("%-14s %-8.3f %-12.0f %-10.1f\n",
			vc.name, sumRecall/n, float64(sumRecords)/n, float64(sumParts)/n)
	}
	fmt.Println("\nrecall rises with data touched: the paper's accuracy/effort trade-off (Figure 11).")

	// Short-probe search: a probe covering only the first third of a
	// fragment (64 of 192 points) — the query-shorter-than-index capability
	// the paper credits PAA-family representations with (Section II).
	shortProbe := make([]float64, 64)
	copy(shortProbe, genome.Get(4242)[:64])
	shortReq := climber.NewRequest(shortProbe, 10)
	shortReq.Prefix = true
	shortResp, err := db.Query(context.Background(), shortReq)
	if err != nil {
		log.Fatal(err)
	}
	short := shortResp.Results
	fmt.Printf("\nshort-probe search (64 of %d points): top hits ", genome.Length())
	for i := 0; i < 3 && i < len(short); i++ {
		fmt.Printf("#%d(%.2f) ", short[i].ID, short[i].Dist)
	}
	fmt.Println()
}
