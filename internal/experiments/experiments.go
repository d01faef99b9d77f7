// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII) at laptop scale. Each runner builds the systems
// involved from scratch on seeded synthetic datasets, executes the paper's
// query workload, and prints rows mirroring the paper's plots.
//
// Absolute numbers differ from the paper (their testbed is a 112-core
// Spark/HDFS cluster over terabytes; ours is one multi-core process over
// megabytes) — the reproduced artefacts are the *shapes*: who
// wins, by what rough factor, and where the crossovers fall. The CLI
// harness (cmd/climber-bench) regenerates every artefact on demand.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/dataset"
	"climber/internal/dpisax"
	"climber/internal/dss"
	"climber/internal/series"
	"climber/internal/tardis"
)

// Scale sizes an experiment run. The presets keep the partition-to-K
// proportions of the paper (partitions hold ~10-20x K records) so accuracy
// shapes carry over.
type Scale struct {
	Name     string
	BaseSize int   // records per dataset for fixed-size experiments
	Sizes    []int // size sweep for scalability experiments
	K        int   // kNN answer size
	Queries  int   // queries averaged per measurement (paper: 50)
}

// Capacity returns the partition capacity for a dataset of n records:
// n/25 bounded below, yielding a ~25-30 partition layout. This granularity
// is where the paper's shapes reproduce at laptop scale: fine enough that
// TARDIS/DPiSAX single-partition searches fragment neighbourhoods (as the
// paper's 12k-partition deployments do), while CLIMBER's adaptive
// multi-partition search holds its recall.
func (s Scale) Capacity(n int) int {
	c := n / 25
	if c < 200 {
		c = 200
	}
	return c
}

// Scales returns the named presets.
func Scales() map[string]Scale {
	return map[string]Scale{
		"small": {
			Name: "small", BaseSize: 6000,
			Sizes:   []int{2000, 4000, 6000, 8000, 10000},
			K:       50,
			Queries: 8,
		},
		"medium": {
			Name: "medium", BaseSize: 20000,
			Sizes:   []int{10000, 20000, 30000, 40000, 50000},
			K:       100,
			Queries: 25,
		},
		"large": {
			Name: "large", BaseSize: 60000,
			Sizes:   []int{20000, 40000, 60000, 80000, 100000},
			K:       200,
			Queries: 15,
		},
	}
}

// Runner executes one experiment, writing its table(s) to out.
type Runner func(s Scale, workDir string, out io.Writer) error

// Registry maps experiment IDs (the paper's figure/table numbers) to
// runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig7a":        Fig7QueryTime,
		"fig7b":        Fig7Recall,
		"fig7cd":       Fig7Scale,
		"fig8ab":       Fig8Build,
		"fig8cd":       Fig8Scale,
		"fig9":         Fig9KSweep,
		"fig10":        Fig10Pivots,
		"fig11a":       Fig11Adaptive,
		"fig11b":       Fig11ODSmallest,
		"fig12":        Fig12PrefixLen,
		"table1":       Table1Systems,
		"abl-decay":    AblationDecay,
		"abl-dual":     AblationDual,
		"abl-sampling": AblationSampling,
		"landscape":    Landscape,
		"budget":       BudgetExperiment,
	}
}

// IDs returns the experiment IDs in presentation order.
func IDs() []string {
	ids := make([]string, 0, len(Registry()))
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// DatasetNames returns the evaluation datasets in the paper's order.
func DatasetNames() []string { return dataset.Names() }

// ---------------------------------------------------------------------------
// Shared build/evaluate helpers
// ---------------------------------------------------------------------------

// env bundles one dataset, cut into blocks, with a partition store.
type env struct {
	ds *series.Dataset
	cl *cluster.Cluster
	bs *cluster.BlockSet
}

// newEnv generates a dataset and a fresh store under workDir.
func newEnv(workDir, name string, n int, seed uint64) (*env, error) {
	ds, err := dataset.ByName(name, n, seed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "env-"+name+"-")
	if err != nil {
		return nil, err
	}
	cl := cluster.New(dir, 0)
	blockSize := n / 20
	if blockSize < 100 {
		blockSize = 100
	}
	return &env{ds: ds, cl: cl, bs: cluster.Blocks(ds, blockSize)}, nil
}

// climberConfig returns the paper-default CLIMBER configuration scaled to a
// dataset of n records.
func climberConfig(s Scale, n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Capacity = s.Capacity(n)
	cfg.BlockSize = n / 20
	if cfg.BlockSize < 100 {
		cfg.BlockSize = 100
	}
	return clampPivots(cfg, n)
}

// clampPivots caps the pivot count so it never exceeds half the expected
// sample (pivots are drawn from the sample without replacement). The paper
// presets never hit the cap; it exists so tiny smoke-test scales work.
func clampPivots(cfg core.Config, n int) core.Config {
	maxPivots := int(float64(n) * cfg.SampleRate / 2)
	if cfg.NumPivots > maxPivots {
		cfg.NumPivots = maxPivots
	}
	if cfg.NumPivots < cfg.PrefixLen {
		cfg.NumPivots = cfg.PrefixLen
	}
	return cfg
}

// baselineCapacity aligns TARDIS/DPiSAX partition sizes with CLIMBER's so
// per-query data access is comparable (as in the paper's setup, where all
// systems share the HDFS block size).
func tardisConfig(s Scale, n int) tardis.Config {
	cfg := tardis.DefaultConfig()
	cfg.Capacity = s.Capacity(n)
	return cfg
}

func dpisaxConfig(s Scale, n int) dpisax.Config {
	cfg := dpisax.DefaultConfig()
	cfg.Capacity = s.Capacity(n)
	return cfg
}

// evalResult aggregates a query workload's measurements.
type evalResult struct {
	Recall     float64
	AvgTime    time.Duration
	AvgParts   float64
	AvgRecords float64
}

// groundTruth computes the exact kNN answer per query via the in-memory
// oracle.
func groundTruth(ds *series.Dataset, qs [][]float64, k int) [][]series.Result {
	out := make([][]series.Result, len(qs))
	for i, q := range qs {
		out[i] = dss.SearchDataset(ds, q, k)
	}
	return out
}

// searchFunc abstracts the system under evaluation.
type searchFunc func(q []float64, k int) ([]series.Result, int, int, error)

// evaluate runs the workload and aggregates recall/time/effort. One
// untimed warm-up query runs first so that cold file caches do not distort
// the first timed measurement.
func evaluate(qs [][]float64, exact [][]series.Result, k int, search searchFunc) (evalResult, error) {
	var r evalResult
	var total time.Duration
	if len(qs) > 0 {
		if _, _, _, err := search(qs[0], k); err != nil {
			return r, err
		}
	}
	for i, q := range qs {
		start := time.Now()
		res, parts, recs, err := search(q, k)
		if err != nil {
			return r, err
		}
		total += time.Since(start)
		r.Recall += series.Recall(res, exact[i])
		r.AvgParts += float64(parts)
		r.AvgRecords += float64(recs)
	}
	n := float64(len(qs))
	r.Recall /= n
	r.AvgTime = total / time.Duration(len(qs))
	r.AvgParts /= n
	r.AvgRecords /= n
	return r, nil
}

// climberSearch adapts a core index to searchFunc.
func climberSearch(ix *core.Index, v core.Variant) searchFunc {
	return func(q []float64, k int) ([]series.Result, int, int, error) {
		res, err := ix.Search(q, core.SearchOptions{K: k, Variant: v})
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned, nil
	}
}

func tardisSearch(ix *tardis.Index) searchFunc {
	return func(q []float64, k int) ([]series.Result, int, int, error) {
		res, err := ix.Search(q, k)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned, nil
	}
}

func dpisaxSearch(ix *dpisax.Index) searchFunc {
	return func(q []float64, k int) ([]series.Result, int, int, error) {
		res, err := ix.Search(q, k)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned, nil
	}
}

// dssSearch adapts the exact distributed scan.
func dssSearch(e *env) searchFunc {
	return func(q []float64, k int) ([]series.Result, int, int, error) {
		res, err := dss.Search(e.cl, e.bs, q, k)
		if err != nil {
			return nil, 0, 0, err
		}
		return res, e.bs.NumBlocks(), e.bs.Len(), nil
	}
}

// ms renders a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}
