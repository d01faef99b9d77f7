package core

import (
	"context"
	"fmt"

	"climber/internal/paa"
	"climber/internal/series"
)

// SearchPrefix answers an approximate kNN query whose series is *shorter*
// than the indexed length — the flexibility the paper credits the
// PAA/SAX-family representations with ("they allow for queries shorter
// than the length on which the index is built", Section II), which DFT- and
// wavelet-based indexes cannot offer.
//
// The query is PAA-segmented into the same w segments as the index (so the
// pivot space lines up), routed through groups and tries as usual, and
// candidates are ranked by the Euclidean distance over the first len(q)
// readings of each record. The query must satisfy w <= len(q) <= n.
func (ix *Index) SearchPrefix(q []float64, opts SearchOptions) (*SearchResult, error) {
	return ix.SearchPrefixContext(context.Background(), q, opts)
}

// SearchPrefixContext is SearchPrefix under a context, with the same
// cancellation semantics as SearchContext.
func (ix *Index) SearchPrefixContext(ctx context.Context, q []float64, opts SearchOptions) (*SearchResult, error) {
	return ix.searchPrefix(ctx, q, opts, nil)
}

// searchPrefix validates and transforms a prefix query, then runs the same
// planner/executor engine as full-length search with the distance function
// restricted to the first len(q) readings of each record. Prefix answers
// see uncompacted writes too: delta records store the full indexed length,
// so the prefix distance applies unchanged.
func (ix *Index) searchPrefix(ctx context.Context, q []float64, opts SearchOptions, sink func(Snapshot) bool) (*SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Pin the generation like search does; the full-length fallthrough below
	// re-acquires, which is cheap and keeps both entry points uniform.
	g := ix.AcquireGeneration()
	defer g.Release()
	skel := g.Skel
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	if len(q) == skel.SeriesLen {
		return ix.search(ctx, q, opts, sink)
	}
	if len(q) > skel.SeriesLen {
		return nil, fmt.Errorf("core: prefix query length %d exceeds indexed length %d", len(q), skel.SeriesLen)
	}
	if len(q) < skel.Cfg.Segments {
		return nil, fmt.Errorf("core: prefix query length %d is below the segment count %d", len(q), skel.Cfg.Segments)
	}
	if err := series.CheckFloat32(q); err != nil {
		return nil, fmt.Errorf("core: prefix query: %w", err)
	}

	// Segment the short query into the same w segments the pivots live in.
	tr, err := paa.NewTransformer(len(q), skel.Cfg.Segments)
	if err != nil {
		return nil, err
	}
	paaQ := tr.Transform(q)
	prefixLen := len(q)
	q32 := series.ToFloat32(q)
	return ix.runQuery(ctx, g, paaQ, opts, sink,
		func(values []float64, bound float64) float64 {
			return series.SqDistEarlyAbandonBlocked(q, values[:prefixLen], bound)
		},
		func(rec []byte, bound float64) float64 {
			// The raw record carries the full indexed length; the prefix
			// distance reads its first prefixLen readings (4 bytes each).
			return series.SqDistEarlyAbandon32Blocked(q32, rec[:4*prefixLen], bound)
		})
}
