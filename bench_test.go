// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation (Section VII). Each benchmark exercises the operation the
// artefact measures — query latency, build cost, recall — at a bench-sized
// workload; the full sweeps with paper-style rows come from
// cmd/climber-bench (see the experiment index in internal/experiments).
//
// Recall and effort are attached to benchmarks as custom metrics
// (recall, partitions/query, records/query) so `go test -bench` output
// carries the accuracy story alongside ns/op.
package climber

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/dataset"
	"climber/internal/dpisax"
	"climber/internal/dss"
	"climber/internal/hnsw"
	"climber/internal/metric"
	"climber/internal/odyssey"
	"climber/internal/series"
	"climber/internal/tardis"
)

// benchWork holds the lazily-built shared fixtures. Everything keys off the
// RandomWalk benchmark dataset, like the paper's parameter studies.
type benchWork struct {
	dir     string
	ds      *series.Dataset
	cl      *cluster.Cluster
	bs      *cluster.BlockSet
	climber *core.Index
	tardis  *tardis.Index
	dpisax  *dpisax.Index
	queries [][]float64
	exact   map[int][][]series.Result // keyed by K
}

const (
	benchSize     = 10000
	benchK        = 100
	benchQueries  = 10
	benchCapacity = 1000
)

var (
	benchOnce sync.Once
	bench     *benchWork
	benchErr  error
)

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Capacity = benchCapacity
	cfg.BlockSize = 1000
	return cfg
}

func getBench(b *testing.B) *benchWork {
	b.Helper()
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "climber-bench-fixtures-")
		if err != nil {
			benchErr = err
			return
		}
		w := &benchWork{dir: dir, exact: map[int][][]series.Result{}}
		w.ds = dataset.RandomWalk(dataset.RandomWalkLength, benchSize, 11)
		w.cl = cluster.New(dir, 4)
		w.bs = cluster.Blocks(w.ds, 1000)
		if w.climber, err = core.Build(w.cl, w.bs, benchConfig(), "bench-climber"); err != nil {
			benchErr = err
			return
		}
		tcfg := tardis.DefaultConfig()
		tcfg.Capacity = benchCapacity
		if w.tardis, err = tardis.Build(w.cl, w.bs, tcfg, "bench-tardis"); err != nil {
			benchErr = err
			return
		}
		dcfg := dpisax.DefaultConfig()
		dcfg.Capacity = benchCapacity
		if w.dpisax, err = dpisax.Build(w.cl, w.bs, dcfg, "bench-dpisax"); err != nil {
			benchErr = err
			return
		}
		_, w.queries = dataset.Queries(w.ds, benchQueries, 77)
		bench = w
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return bench
}

func (w *benchWork) groundTruth(k int) [][]series.Result {
	if got, ok := w.exact[k]; ok {
		return got
	}
	out := make([][]series.Result, len(w.queries))
	for i, q := range w.queries {
		out[i] = dss.SearchDataset(w.ds, q, k)
	}
	w.exact[k] = out
	return out
}

// reportRecall attaches the workload's average recall and effort to the
// benchmark result.
func reportRecall(b *testing.B, w *benchWork, k int, search func(q []float64) ([]series.Result, int, int)) {
	b.Helper()
	exact := w.groundTruth(k)
	recall, parts, recs := 0.0, 0, 0
	for i, q := range w.queries {
		res, p, r := search(q)
		recall += series.Recall(res, exact[i])
		parts += p
		recs += r
	}
	n := float64(len(w.queries))
	b.ReportMetric(recall/n, "recall")
	b.ReportMetric(float64(parts)/n, "partitions/query")
	b.ReportMetric(float64(recs)/n, "records/query")
}

// --- Figure 7(a)/(b): query time and recall per system ---------------------

func BenchmarkFig7QueryTime(b *testing.B) {
	w := getBench(b)
	b.Run("CLIMBER", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := w.queries[i%len(w.queries)]
			if _, err := w.climber.Search(q, core.SearchOptions{K: benchK, Variant: core.VariantAdaptive4X}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TARDIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.tardis.Search(w.queries[i%len(w.queries)], benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DPiSAX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.dpisax.Search(w.queries[i%len(w.queries)], benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Dss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dss.Search(w.cl, w.bs, w.queries[i%len(w.queries)], benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig7Recall(b *testing.B) {
	w := getBench(b)
	b.Run("CLIMBER", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reportRecall(b, w, benchK, func(q []float64) ([]series.Result, int, int) {
				res, err := w.climber.Search(q, core.SearchOptions{K: benchK, Variant: core.VariantAdaptive4X})
				if err != nil {
					b.Fatal(err)
				}
				return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned
			})
		}
	})
	b.Run("TARDIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reportRecall(b, w, benchK, func(q []float64) ([]series.Result, int, int) {
				res, err := w.tardis.Search(q, benchK)
				if err != nil {
					b.Fatal(err)
				}
				return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned
			})
		}
	})
	b.Run("DPiSAX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reportRecall(b, w, benchK, func(q []float64) ([]series.Result, int, int) {
				res, err := w.dpisax.Search(q, benchK)
				if err != nil {
					b.Fatal(err)
				}
				return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned
			})
		}
	})
}

// --- Figure 7(c)/(d) and 8(c)/(d): size scaling -----------------------------

func BenchmarkFig7Scale(b *testing.B) {
	for _, n := range []int{2500, 5000, 10000} {
		b.Run(fmt.Sprintf("size=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			cl := cluster.New(dir, 4)
			ds := dataset.RandomWalk(dataset.RandomWalkLength, n, 3)
			bs := cluster.Blocks(ds, n/10)
			cfg := benchConfig()
			cfg.Capacity = n / 10
			cfg.BlockSize = n / 10
			ix, err := core.Build(cl, bs, cfg, "scale")
			if err != nil {
				b.Fatal(err)
			}
			_, qs := dataset.Queries(ds, 5, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Search(qs[i%len(qs)], core.SearchOptions{K: benchK, Variant: core.VariantAdaptive4X}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 8(a)/(b): index construction ------------------------------------

func BenchmarkFig8Build(b *testing.B) {
	const n = 5000
	newEnv := func(b *testing.B) (*cluster.Cluster, *cluster.BlockSet) {
		b.Helper()
		cl := cluster.New(b.TempDir(), 4)
		ds := dataset.RandomWalk(dataset.RandomWalkLength, n, 5)
		bs := cluster.Blocks(ds, 500)
		return cl, bs
	}
	b.Run("CLIMBER", func(b *testing.B) {
		cl, bs := newEnv(b)
		cfg := benchConfig()
		cfg.Capacity = 500
		cfg.BlockSize = 500
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := core.Build(cl, bs, cfg, fmt.Sprintf("b%d", i))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ix.Skeleton().EncodedSize()), "skeleton-bytes")
		}
	})
	b.Run("TARDIS", func(b *testing.B) {
		cl, bs := newEnv(b)
		cfg := tardis.DefaultConfig()
		cfg.Capacity = 500
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := tardis.Build(cl, bs, cfg, fmt.Sprintf("b%d", i))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ix.TreeSize()), "tree-bytes")
		}
	})
	b.Run("DPiSAX", func(b *testing.B) {
		cl, bs := newEnv(b)
		cfg := dpisax.DefaultConfig()
		cfg.Capacity = 500
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := dpisax.Build(cl, bs, cfg, fmt.Sprintf("b%d", i))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ix.TreeSize()), "tree-bytes")
		}
	})
}

// --- Figure 9: K sweep -------------------------------------------------------

func BenchmarkFig9KSweep(b *testing.B) {
	w := getBench(b)
	for _, k := range []int{10, 50, 100, 200, 400} {
		for _, vc := range []struct {
			name string
			v    core.Variant
		}{{"kNN", core.VariantKNN}, {"Adaptive2X", core.VariantAdaptive2X}, {"Adaptive4X", core.VariantAdaptive4X}} {
			b.Run(fmt.Sprintf("K=%d/%s", k, vc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := w.climber.Search(w.queries[i%len(w.queries)], core.SearchOptions{K: k, Variant: vc.v}); err != nil {
						b.Fatal(err)
					}
				}
				reportRecall(b, w, k, func(q []float64) ([]series.Result, int, int) {
					res, err := w.climber.Search(q, core.SearchOptions{K: k, Variant: vc.v})
					if err != nil {
						b.Fatal(err)
					}
					return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned
				})
			})
		}
	}
}

// --- Figure 10: pivot-count sweep ---------------------------------------------

func BenchmarkFig10Pivots(b *testing.B) {
	const n = 5000
	for _, r := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			cl := cluster.New(b.TempDir(), 4)
			ds := dataset.RandomWalk(dataset.RandomWalkLength, n, 5)
			bs := cluster.Blocks(ds, 500)
			cfg := benchConfig()
			cfg.Capacity = 500
			cfg.BlockSize = 500
			cfg.NumPivots = r
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(cl, bs, cfg, fmt.Sprintf("p%d-%d", r, i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ix.Stats.Skeleton.Milliseconds()), "skeleton-ms")
				b.ReportMetric(float64(ix.Stats.Conversion.Milliseconds()), "conversion-ms")
				b.ReportMetric(float64(ix.Stats.Redistribution.Milliseconds()), "redistribution-ms")
			}
		})
	}
}

// --- Figure 11: adaptive variants and OD-Smallest ------------------------------

func BenchmarkFig11Adaptive(b *testing.B) {
	w := getBench(b)
	// Stress K beyond typical trie-node capacity so adaptivity engages.
	const k = 400
	for _, vc := range []struct {
		name string
		v    core.Variant
	}{{"kNN", core.VariantKNN}, {"Adaptive2X", core.VariantAdaptive2X}, {"Adaptive4X", core.VariantAdaptive4X}} {
		b.Run(vc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.climber.Search(w.queries[i%len(w.queries)], core.SearchOptions{K: k, Variant: vc.v}); err != nil {
					b.Fatal(err)
				}
			}
			reportRecall(b, w, k, func(q []float64) ([]series.Result, int, int) {
				res, err := w.climber.Search(q, core.SearchOptions{K: k, Variant: vc.v})
				if err != nil {
					b.Fatal(err)
				}
				return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned
			})
		})
	}
}

func BenchmarkFig11ODSmallest(b *testing.B) {
	w := getBench(b)
	b.Run("ODSmallest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.climber.Search(w.queries[i%len(w.queries)], core.SearchOptions{K: benchK, Variant: core.VariantODSmallest}); err != nil {
				b.Fatal(err)
			}
		}
		reportRecall(b, w, benchK, func(q []float64) ([]series.Result, int, int) {
			res, err := w.climber.Search(q, core.SearchOptions{K: benchK, Variant: core.VariantODSmallest})
			if err != nil {
				b.Fatal(err)
			}
			return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned
		})
	})
}

// --- Figure 12: prefix-length sweep ---------------------------------------------

func BenchmarkFig12PrefixLen(b *testing.B) {
	const n = 5000
	for _, m := range []int{6, 10, 20} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			cl := cluster.New(b.TempDir(), 4)
			ds := dataset.RandomWalk(dataset.RandomWalkLength, n, 5)
			bs := cluster.Blocks(ds, 500)
			cfg := benchConfig()
			cfg.Capacity = 500
			cfg.BlockSize = 500
			cfg.PrefixLen = m
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(cl, bs, cfg, fmt.Sprintf("m%d-%d", m, i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ix.Skeleton().EncodedSize()), "skeleton-bytes")
			}
		})
	}
}

// --- Ablations: design choices the experiments package calls out --------------------------------

func BenchmarkAblationDecay(b *testing.B) {
	const n = 5000
	for _, kind := range []struct {
		name  string
		decay metric.DecayKind
	}{{"exponential", metric.ExponentialDecay}, {"linear", metric.LinearDecay}} {
		b.Run(kind.name, func(b *testing.B) {
			cl := cluster.New(b.TempDir(), 4)
			ds := dataset.RandomWalk(dataset.RandomWalkLength, n, 5)
			bs := cluster.Blocks(ds, 500)
			cfg := benchConfig()
			cfg.Capacity = 500
			cfg.BlockSize = 500
			cfg.Decay = kind.decay
			cfg.Lambda = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(cl, bs, cfg, fmt.Sprintf("dk%d", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationDualRepresentation(b *testing.B) {
	w := getBench(b)
	for _, c := range []struct {
		name    string
		disable bool
	}{{"OD+WD", false}, {"OD-only", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.DisableWDTieBreak = c.disable
			ix, err := core.Build(w.cl, w.bs, cfg, fmt.Sprintf("dual-%v", c.disable))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Search(w.queries[i%len(w.queries)], core.SearchOptions{K: benchK, Variant: core.VariantAdaptive4X}); err != nil {
					b.Fatal(err)
				}
			}
			reportRecall(b, w, benchK, func(q []float64) ([]series.Result, int, int) {
				res, err := ix.Search(q, core.SearchOptions{K: benchK, Variant: core.VariantAdaptive4X})
				if err != nil {
					b.Fatal(err)
				}
				return res.Results, res.Stats.PartitionsScanned, res.Stats.RecordsScanned
			})
		})
	}
}

// --- Prefix queries: the PAA-flexibility feature -----------------------------------

func BenchmarkPrefixQuery(b *testing.B) {
	w := getBench(b)
	q := make([]float64, 64)
	copy(q, w.queries[0][:64])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.climber.Search(q, core.SearchOptions{K: benchK, Variant: core.VariantAdaptive4X, Prefix: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I: CLIMBER vs Odyssey vs ParlayANN-HNSW -------------------------------

func BenchmarkTable1(b *testing.B) {
	w := getBench(b)
	b.Run("CLIMBER/query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := w.climber.Search(w.queries[i%len(w.queries)], core.SearchOptions{K: benchK, Variant: core.VariantAdaptive4X}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Odyssey/build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := odyssey.Build(w.ds, odyssey.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Odyssey/query", func(b *testing.B) {
		engine, err := odyssey.Build(w.ds, odyssey.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Search(w.queries[i%len(w.queries)], benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HNSW/query", func(b *testing.B) {
		// The graph is built once: HNSW construction at bench size takes
		// seconds and Table I charges it to I.C.T, not Q.R.T.
		cfg := hnsw.DefaultConfig()
		graph, err := hnsw.Build(w.ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := graph.Search(w.queries[i%len(w.queries)], benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
}
