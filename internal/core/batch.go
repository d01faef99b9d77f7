package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"climber/internal/obs"
)

// batchSink, when a test sets it, gives query i of a batch a progressive
// sink; QueryBatch runs every query plain otherwise.
var batchSink func(i int) func(Snapshot) bool

// QueryBatch answers many kNN queries concurrently, mirroring the paper's
// distributed query evaluation (Section VI): the skeleton is shared
// read-only across workers and each query independently loads the
// partitions it needs. workers <= 0 uses GOMAXPROCS.
//
// Results are positionally aligned with the queries. The first error
// aborts the batch. Cancellation stops the batch promptly: queries not yet
// started are abandoned, and in-flight queries observe the cancellation on
// their partition-scan path (see Query). The returned error wraps ctx.Err().
func (ix *Index) QueryBatch(ctx context.Context, queries [][]float64, opts SearchOptions, workers int) ([]SearchResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]SearchResult, len(queries))
	errs := make([]error, len(queries))
	work := make(chan int, len(queries))
	for i := range queries {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				// When the batch is traced, each query gets its own child
				// span so per-query stage timings stay attributable; the
				// "query" attr is its position in the batch.
				qctx := ctx
				qsp := obs.SpanFromContext(ctx).StartChild("query")
				if qsp != nil {
					qsp.SetAttr("query", int64(i))
					qctx = obs.ContextWithSpan(ctx, qsp)
				}
				var sink func(Snapshot) bool
				if batchSink != nil {
					sink = batchSink(i)
				}
				var res *SearchResult
				if res, errs[i] = ix.Query(qctx, queries[i], opts, sink); errs[i] == nil {
					out[i] = *res
				}
				qsp.End()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	return out, nil
}
