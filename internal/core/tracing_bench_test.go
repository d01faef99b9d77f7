package core

import (
	"context"
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/obs"
)

// benchIndex builds one small index for the tracing benchmarks.
func benchIndex(b *testing.B) (*Index, []float64) {
	b.Helper()
	cfg := testConfig()
	ds := dataset.RandomWalk(64, 1500, 11)
	cl := cluster.New(b.TempDir(), 2)
	bs := cluster.Blocks(ds, cfg.BlockSize)
	ix, err := Build(cl, bs, cfg, "bench")
	if err != nil {
		b.Fatal(err)
	}
	return ix, ds.Get(7)
}

// BenchmarkTracingOverhead measures the query path with tracing off (the
// production default: one context lookup) and always on (a full span tree
// built and kept per query). CI's bench smoke runs both arms; comparing
// their ns/op is the tracing-overhead acceptance check — "off" must track
// the pre-tracing query cost.
func BenchmarkTracingOverhead(b *testing.B) {
	ix, q := benchIndex(b)
	opts := SearchOptions{K: 10, Variant: VariantAdaptive4X}

	b.Run("off", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Query(ctx, q, opts, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("always", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench", "")
			ctx := obs.ContextWithSpan(context.Background(), tr.Root())
			if _, err := ix.Query(ctx, q, opts, nil); err != nil {
				b.Fatal(err)
			}
			tr.Root().End()
			if tr.Root().Data() == nil {
				b.Fatal("empty span tree")
			}
		}
	})
}
