package experiments

import (
	"fmt"
	"io"

	"climber/internal/core"
	"climber/internal/dataset"
	"climber/internal/metric"
)

// The ablation runners probe the reproduction/s load-bearing design choices. They
// go beyond the paper's published figures: each isolates one mechanism of
// CLIMBER and measures what it buys.

// AblationDecay compares the exponential and linear pivot-weight decay
// functions of Definition 9 — both proposed by the paper, which uses
// exponential decay in its evaluation.
func AblationDecay(s Scale, workDir string, out io.Writer) error {
	n := s.BaseSize
	e, err := newEnv(workDir, "randomwalk", n, 3141)
	if err != nil {
		return err
	}
	_, qs := dataset.Queries(e.ds, s.Queries, 59)
	exact := groundTruth(e.ds, qs, s.K)

	t := &Table{
		Caption: fmt.Sprintf("Ablation — pivot-weight decay function (RandomWalk, size=%d, K=%d)", n, s.K),
		Header:  []string{"decay", "recall", "avg-query-ms", "groups"},
	}
	for _, kind := range []metric.DecayKind{metric.ExponentialDecay, metric.LinearDecay} {
		cfg := climberConfig(s, n)
		cfg.Decay = kind
		cfg.Lambda = 0 // per-kind default
		ix, err := core.Build(e.cl, e.bs, cfg, "abl-decay-"+kind.String())
		if err != nil {
			return fmt.Errorf("ablation decay %v: %w", kind, err)
		}
		res, err := evaluate(qs, exact, s.K, climberSearch(ix, core.VariantAdaptive4X))
		if err != nil {
			return err
		}
		t.Add(kind.String(), res.Recall, ms(res.AvgTime), ix.Skeleton().NumGroups())
	}
	return t.Write(out)
}

// AblationDual isolates the dual representation: Algorithm 1 with the
// rank-sensitive WD tie-break (the paper's design) versus OD-only grouping,
// whose ties fall to the target choice (deepest trie path, largest node,
// lowest group ID). The paper motivates the WD stage with
// Example 1; this ablation quantifies it.
func AblationDual(s Scale, workDir string, out io.Writer) error {
	n := s.BaseSize
	e, err := newEnv(workDir, "randomwalk", n, 2718)
	if err != nil {
		return err
	}
	_, qs := dataset.Queries(e.ds, s.Queries, 67)
	exact := groundTruth(e.ds, qs, s.K)

	t := &Table{
		Caption: fmt.Sprintf("Ablation — WD tie-break of Algorithm 1 (RandomWalk, size=%d, K=%d)", n, s.K),
		Header:  []string{"tie-break", "recall", "avg-query-ms"},
	}
	for _, c := range []struct {
		label   string
		disable bool
	}{{"OD+WD (paper)", false}, {"OD only", true}} {
		cfg := climberConfig(s, n)
		cfg.DisableWDTieBreak = c.disable
		ix, err := core.Build(e.cl, e.bs, cfg, fmt.Sprintf("abl-dual-%v", c.disable))
		if err != nil {
			return fmt.Errorf("ablation dual: %w", err)
		}
		res, err := evaluate(qs, exact, s.K, climberSearch(ix, core.VariantAdaptive4X))
		if err != nil {
			return err
		}
		t.Add(c.label, res.Recall, ms(res.AvgTime))
	}
	return t.Write(out)
}

// AblationSampling sweeps the skeleton-construction sampling rate α. The
// paper fixes α implicitly via partition-level sampling; this ablation
// shows how little sample the skeleton needs before accuracy degrades —
// the justification for sampling at all.
func AblationSampling(s Scale, workDir string, out io.Writer) error {
	n := s.BaseSize
	e, err := newEnv(workDir, "randomwalk", n, 1618)
	if err != nil {
		return err
	}
	_, qs := dataset.Queries(e.ds, s.Queries, 73)
	exact := groundTruth(e.ds, qs, s.K)

	t := &Table{
		Caption: fmt.Sprintf("Ablation — skeleton sampling rate alpha (RandomWalk, size=%d, K=%d)", n, s.K),
		Header:  []string{"alpha", "sample-records", "build-ms", "recall"},
	}
	for _, alpha := range []float64{0.02, 0.05, 0.1, 0.2, 0.5} {
		cfg := climberConfig(s, n)
		cfg.SampleRate = alpha
		cfg = clampPivots(cfg, n)
		ix, err := core.Build(e.cl, e.bs, cfg, fmt.Sprintf("abl-alpha-%g", alpha))
		if err != nil {
			return fmt.Errorf("ablation alpha=%g: %w", alpha, err)
		}
		res, err := evaluate(qs, exact, s.K, climberSearch(ix, core.VariantAdaptive4X))
		if err != nil {
			return err
		}
		t.Add(fmt.Sprintf("%.2f", alpha), ix.Stats.SampleRecords,
			ix.Stats.Total.Milliseconds(), res.Recall)
	}
	return t.Write(out)
}
