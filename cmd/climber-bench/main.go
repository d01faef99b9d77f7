// Command climber-bench regenerates the paper's evaluation artefacts
// (every figure and table of Section VII) at a chosen scale.
//
// Usage:
//
//	climber-bench -experiment fig7b -scale small
//	climber-bench -experiment all -scale medium -out results.txt
//
// Experiment IDs: fig7a fig7b fig7cd fig8ab fig8cd fig9 fig10 fig11a
// fig11b fig12 table1 (or "all"). Scales: small, medium, large. The
// experiment index lives in internal/experiments (each runner's doc
// comment names the paper artefact it reproduces).
//
// Beyond the paper artefacts, "budget" measures the anytime-query
// contract: recall as a function of per-query partition and time budgets
// against the run-to-completion answer, plus a progressive-convergence
// trace. -max-partitions and -time-budget narrow the sweep to one budget
// value:
//
//	climber-bench -experiment budget -scale small
//	climber-bench -experiment budget -max-partitions 2
//
// The serving stack's performance benchmark — end-to-end and per-layer,
// including build phases, storage backings, kernels and tracing overhead —
// is the separate harness under bench/ (see bench/README.md); its
// ingest-mixed and sharded-mix workloads are the read/write and
// router-over-shards measurements.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"climber/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-bench: ")

	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all'")
		scaleName  = flag.String("scale", "small", "scale preset: small, medium, large")
		outPath    = flag.String("out", "", "also append output to this file")
		workDir    = flag.String("work", "", "working directory for build artefacts (default: temp)")
		maxParts   = flag.Int("max-partitions", 0, "budget experiment: evaluate this single partition budget instead of the default sweep")
		timeBudget = flag.Duration("time-budget", 0, "budget experiment: evaluate this single per-query time budget instead of the default sweep")
	)
	flag.Parse()
	experiments.BudgetMaxPartitions = *maxParts
	experiments.BudgetTimeLimit = *timeBudget

	scale, ok := experiments.Scales()[*scaleName]
	if !ok {
		log.Fatalf("unknown scale %q (small, medium, large)", *scaleName)
	}

	var ids []string
	if *experiment == "all" {
		ids = experiments.IDs()
	} else {
		if experiments.Registry()[*experiment] == nil {
			log.Fatalf("unknown experiment %q; available: %v", *experiment, experiments.IDs())
		}
		ids = []string{*experiment}
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			// A failed close can mean buffered results never reached disk;
			// surface it instead of pretending the run was recorded.
			if err := f.Close(); err != nil {
				log.Printf("closing %s: %v", *outPath, err)
			}
		}()
		out = io.MultiWriter(os.Stdout, f)
	}

	work := *workDir
	if work == "" {
		var err error
		work, err = os.MkdirTemp("", "climber-bench-")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(work)
	}

	fmt.Fprintf(out, "# climber-bench scale=%s experiments=%v %s\n\n",
		scale.Name, ids, time.Now().Format(time.RFC3339))
	for _, id := range ids {
		start := time.Now()
		fmt.Fprintf(out, "=== %s ===\n", id)
		if err := experiments.Registry()[id](scale, work, out); err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(out, "(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
