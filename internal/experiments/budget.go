package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"climber/internal/core"
	"climber/internal/dataset"
	"climber/internal/series"
)

// BudgetMaxPartitions, when positive, replaces the budget experiment's
// partition-budget sweep with a single value (cmd/climber-bench
// -max-partitions).
var BudgetMaxPartitions int

// BudgetTimeLimit, when positive, replaces the budget experiment's
// time-budget sweep with a single value (cmd/climber-bench -time-budget).
var BudgetTimeLimit time.Duration

// BudgetExperiment measures the anytime-query contract: recall as a
// function of the per-query budget, against the run-to-completion answer.
// It sweeps partition budgets (a hard cap on partition loads) and time
// budgets (fractions of the measured run-to-completion latency), reporting
// for each the recall, the fraction of answers marked partial, and the
// average plan coverage — the recall-vs-time-budget curve that ProS-style
// progressive systems and the Lernaean Hydra time-bounded comparisons ask
// for.
func BudgetExperiment(s Scale, workDir string, out io.Writer) error {
	n := s.BaseSize
	e, err := newEnv(workDir, "randomwalk", n, 4242)
	if err != nil {
		return err
	}
	ix, err := core.Build(e.cl, e.bs, climberConfig(s, n), "budget")
	if err != nil {
		return err
	}
	_, qs := dataset.Queries(e.ds, s.Queries, 31)
	exact := groundTruth(e.ds, qs, s.K)

	base := func() core.SearchOptions {
		return core.SearchOptions{K: s.K, Variant: core.VariantAdaptive4X}
	}

	// Run to completion first: the reference recall and latency.
	full, err := runBudgetWorkload(ix, qs, exact, s.K, base)
	if err != nil {
		return err
	}
	tab := &Table{
		Caption: fmt.Sprintf("Anytime queries: recall vs budget (CLIMBER-kNN-Adaptive-4X, %d records, K=%d, %d queries)",
			n, s.K, len(qs)),
		Header: []string{"budget", "recall", "partial", "avg-steps", "avg-ms"},
	}
	addRow := func(label string, r budgetResult) {
		tab.Add(label, r.recall, pct(r.partialFrac), fmt.Sprintf("%.1f", r.steps), ms(r.avgTime))
	}
	addRow("unbounded", full)

	// Partition budgets: 1, 2, 4, 8 loads per query (or the CLI override).
	partBudgets := []int{1, 2, 4, 8}
	if BudgetMaxPartitions > 0 {
		partBudgets = []int{BudgetMaxPartitions}
	}
	for _, b := range partBudgets {
		r, err := runBudgetWorkload(ix, qs, exact, s.K, func() core.SearchOptions {
			o := base()
			o.MaxPartitions = b
			o.Budget.MaxPartitions = b
			return o
		})
		if err != nil {
			return err
		}
		addRow(fmt.Sprintf("max-partitions=%d", b), r)
	}

	// Time budgets: fractions of the measured run-to-completion latency
	// (or the CLI override), so the sweep is meaningful at any scale.
	var timeBudgets []time.Duration
	if BudgetTimeLimit > 0 {
		timeBudgets = []time.Duration{BudgetTimeLimit}
	} else {
		for _, f := range []float64{0.25, 0.5, 1, 2} {
			d := time.Duration(float64(full.avgTime) * f)
			if d <= 0 {
				d = time.Microsecond
			}
			timeBudgets = append(timeBudgets, d)
		}
	}
	for _, d := range timeBudgets {
		d := d
		r, err := runBudgetWorkload(ix, qs, exact, s.K, func() core.SearchOptions {
			o := base()
			o.Budget.Deadline = time.Now().Add(d)
			return o
		})
		if err != nil {
			return err
		}
		addRow(fmt.Sprintf("time=%v", d.Round(time.Microsecond)), r)
	}
	if err := tab.Write(out); err != nil {
		return err
	}

	// Progressive convergence: how recall climbs snapshot by snapshot for
	// one representative query (the anytime serving mode made visible).
	fmt.Fprintf(out, "\nProgressive convergence (query 0, OD-Smallest):\n")
	q := qs[0]
	type snapRow struct {
		step, planned int
		recall        float64
	}
	var snaps []snapRow
	// An offline benchmark harness: experiments run to completion, there is
	// no caller deadline to thread.
	_, err = ix.Query(context.Background(), q, core.SearchOptions{K: s.K, Variant: core.VariantODSmallest},
		func(sn core.Snapshot) bool {
			snaps = append(snaps, snapRow{sn.Step, sn.StepsPlanned, series.Recall(sn.Results, exact[0])})
			return true
		})
	if err != nil {
		return err
	}
	for _, sn := range snaps {
		fmt.Fprintf(out, "  step %d/%d: recall %.3f\n", sn.step, sn.planned, sn.recall)
	}
	return nil
}

// budgetResult aggregates one budgeted workload run.
type budgetResult struct {
	recall      float64
	partialFrac float64
	steps       float64
	avgTime     time.Duration
}

// runBudgetWorkload runs the query set under the per-call options (rebuilt
// per query, so deadline budgets restart each time) and aggregates recall,
// partial fraction, executed steps, and latency.
func runBudgetWorkload(ix *core.Index, qs [][]float64, exact [][]series.Result, k int, opts func() core.SearchOptions) (budgetResult, error) {
	var r budgetResult
	var total time.Duration
	// One untimed warm-up so cold file caches do not distort the reference
	// latency the time budgets derive from.
	if _, err := ix.Search(qs[0], opts()); err != nil {
		return r, err
	}
	for i, q := range qs {
		start := time.Now()
		res, err := ix.Search(q, opts())
		if err != nil {
			return r, err
		}
		total += time.Since(start)
		r.recall += series.Recall(res.Results, exact[i])
		r.steps += float64(res.Stats.StepsExecuted)
		if res.Stats.Partial {
			r.partialFrac++
		}
	}
	n := float64(len(qs))
	r.recall /= n
	r.partialFrac /= n
	r.steps /= n
	r.avgTime = total / time.Duration(len(qs))
	return r, nil
}

// pct renders a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
