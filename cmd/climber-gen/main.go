// Command climber-gen generates the paper's evaluation datasets as seeded
// synthetic dataset files — one-cluster partition files — consumable by
// climber-build and climber-query. The same seed gives the same data.
//
// Usage:
//
//	climber-gen -dataset randomwalk -count 20000 -seed 1 -out rw.clmb
//
// Datasets: randomwalk (256 pts), sift (128 pts), dna (192 pts),
// eeg (256 pts). Each generator stands in for one of the corpora of the
// paper's evaluation (Section VII); see internal/dataset for the shapes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"climber/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-gen: ")

	var (
		name  = flag.String("dataset", "randomwalk", fmt.Sprintf("dataset to generate, one of %v", dataset.Names()))
		count = flag.Int("count", 20000, "number of data series")
		seed  = flag.Uint64("seed", 1, "generator seed (same seed, same data)")
		out   = flag.String("out", "", "output file path (required)")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *count <= 0 {
		log.Fatalf("count must be positive, got %d", *count)
	}

	ds, err := dataset.ByName(*name, *count, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := dataset.SaveFile(*out, ds); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d %s series of length %d to %s\n", ds.Len(), *name, ds.Length(), *out)
}
