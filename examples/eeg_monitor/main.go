// EEG monitor: retrieve historical EEG episodes similar to a live recording
// window — the medical-sensing scenario that motivates the paper's
// introduction (an ECG device alone generates ~1 GB of series per hour;
// clinicians need sub-second retrieval of "have we seen this pattern
// before?").
//
// The example builds a CLIMBER database over an archive of EEG windows
// (5% of which carry seizure-like bursts), then issues queries from both a
// normal window and a seizure window, showing that retrieval stays within
// the same class of episode, and compares CLIMBER's answer against the
// exact scan.
//
//	go run ./examples/eeg_monitor
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"climber"
	"climber/internal/dataset"
	"climber/internal/dss"
	"climber/internal/series"
)

// burstiness scores how seizure-like a window is: the ratio of peak to
// median absolute amplitude (bursts push the peak far above the median).
func burstiness(x []float64) float64 {
	peak := 0.0
	abs := make([]float64, len(x))
	for i, v := range x {
		a := math.Abs(v)
		abs[i] = a
		if a > peak {
			peak = a
		}
	}
	// Median via partial selection is overkill here; a simple mean works
	// as the denominator for a score used only to rank examples.
	mean := 0.0
	for _, a := range abs {
		mean += a
	}
	mean /= float64(len(abs))
	return peak / mean
}

func main() {
	log.SetFlags(0)

	const archiveSize = 8000
	archive := dataset.EEG(archiveSize, 2024)

	// Pick the most burst-like window as the "seizure" query and the least
	// burst-like as the "normal" query.
	seizureID, normalID := 0, 0
	maxB, minB := 0.0, math.Inf(1)
	for i := 0; i < archive.Len(); i++ {
		b := burstiness(archive.Get(i))
		if b > maxB {
			maxB, seizureID = b, i
		}
		if b < minB {
			minB, normalID = b, i
		}
	}
	fmt.Printf("archive: %d EEG windows of %d samples\n", archive.Len(), archive.Length())
	fmt.Printf("query windows: seizure-like #%d (burstiness %.2f), normal #%d (burstiness %.2f)\n",
		seizureID, maxB, normalID, minB)

	dir, err := os.MkdirTemp("", "climber-eeg-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	db, err := climber.BuildDataset(dir, archive,
		climber.WithPivots(150),
		climber.WithCapacity(800),
		climber.WithSeed(3),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const k = 20
	for _, qc := range []struct {
		label string
		id    int
	}{{"seizure-like", seizureID}, {"normal", normalID}} {
		q := archive.Get(qc.id)
		resp, err := db.Query(context.Background(), climber.NewRequest(q, k))
		if err != nil {
			log.Fatal(err)
		}
		res, stats := resp.Results, resp.Stats
		// How many retrieved episodes share the query's burstiness class?
		classThreshold := (maxB + minB) / 2
		qIsBursty := burstiness(q) > classThreshold
		same := 0
		for _, r := range res {
			if (burstiness(archive.Get(r.ID)) > classThreshold) == qIsBursty {
				same++
			}
		}
		exact := dss.SearchDataset(archive, q, k)
		fmt.Printf("\n%s query (window #%d):\n", qc.label, qc.id)
		fmt.Printf("  scanned %d records across %d partitions\n", stats.RecordsScanned, stats.PartitionsScanned)
		fmt.Printf("  %d/%d retrieved windows share the query's class\n", same, len(res))
		fmt.Printf("  recall vs exact scan: %.2f\n", series.Recall(res, exact))
		fmt.Printf("  closest episodes: ")
		for i := 0; i < 5 && i < len(res); i++ {
			fmt.Printf("#%d(%.2f) ", res[i].ID, res[i].Dist)
		}
		fmt.Println()
	}
}
