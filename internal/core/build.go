package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"climber/internal/cluster"
	"climber/internal/series"
)

// BuildStats records the wall-clock cost of each index-construction phase,
// matching the decomposition of paper Figure 10(a): skeleton building
// (Steps 1-3 on the sample), entire-data conversion (signature generation +
// routing of every record), and entire-data re-distribution (the shuffle
// into partition files).
type BuildStats struct {
	SampleRecords  int
	Skeleton       time.Duration
	Conversion     time.Duration
	Redistribution time.Duration
	Total          time.Duration
}

// Index is a built CLIMBER index: the partition store it lives on plus the
// current generation — the skeleton, the physical partition files, and
// the in-memory delta of uncompacted appends. The generation is held behind
// an atomic pointer so an online reindex can swap in a freshly built one
// while in-flight queries keep reading the old (see gen.go); code that needs
// a consistent skeleton+partitions view across a whole operation must
// AcquireGeneration, metadata-only reads can use Skeleton()/Partitions().
type Index struct {
	Cl    *cluster.Cluster
	Stats BuildStats

	// gen is the current generation; never nil once the Index is built or
	// opened.
	gen atomic.Pointer[Generation]

	// nextID mints record IDs for appended series: a single atomic counter
	// seeded from the partition counts at build/open time, so concurrent
	// writers can never assign duplicate IDs.
	nextID atomic.Int64
	// countsMu guards the current generation's Parts.Counts, which writers
	// update as partitions grow while Info-style readers sum it.
	countsMu sync.Mutex
}

// NewIndex wraps an already-built skeleton and partition set as an Index
// with a fresh generation holding them. Build and OpenIndex use richer
// paths; this constructor serves harnesses that assemble the pieces
// themselves.
func NewIndex(cl *cluster.Cluster, skel *Skeleton, parts *cluster.PartitionSet) *Index {
	ix := &Index{Cl: cl}
	ix.gen.Store(NewGeneration(skel, parts))
	ix.initNextID()
	return ix
}

// Build constructs a CLIMBER index over a raw block set using the four-step
// workflow of paper Figure 6:
//
//	1-3. sample blocks at rate α, build the index skeleton in memory;
//	4.   convert every record to its dual signature and re-distribute the
//	     dataset into partition files.
//
// The conversion and re-distribution phases are deliberately separate scans
// so their costs can be reported independently, exactly as the paper's
// construction-time breakdown does.
func Build(cl *cluster.Cluster, bs *cluster.BlockSet, cfg Config, name string) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()

	// --- Steps 1-3: partition-level sample -> skeleton --------------------
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x2545f4914f6cdd1d))
	samplePaths := cl.SampleBlocks(bs, cfg.SampleRate, rng)
	// Collect the sample keyed by record ID and materialise it in ID order:
	// worker scheduling must not influence pivot selection.
	type sampleRec struct {
		id   int
		vals []float64
	}
	var mu sync.Mutex
	var recs []sampleRec
	err := cl.ScanBlocks(samplePaths, func(id int, values []float64) error {
		cp := make([]float64, len(values))
		copy(cp, values)
		mu.Lock()
		recs = append(recs, sampleRec{id, cp})
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: sampling: %w", err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	sample := series.NewDatasetCap(bs.SeriesLen, len(recs))
	for _, r := range recs {
		sample.Append(r.vals)
	}
	// The effective sample rate can deviate from α because sampling is at
	// block granularity; feed the realised rate into the skeleton so the
	// scale-up estimates stay honest.
	effCfg := cfg
	if bs.Total > 0 {
		eff := float64(sample.Len()) / float64(bs.Total)
		if eff > 1 {
			eff = 1
		}
		if eff > 0 {
			effCfg.SampleRate = eff
		}
	}
	skel, err := BuildSkeleton(sample, bs.SeriesLen, effCfg)
	if err != nil {
		return nil, fmt.Errorf("core: skeleton: %w", err)
	}
	skeletonTime := time.Since(start)

	// --- Step 4a: entire-data conversion ----------------------------------
	convStart := time.Now()
	routes := make([]cluster.Route, bs.Total)
	err = cl.ScanBlocks(bs.Paths, func(id int, values []float64) error {
		// Algorithm 1's final tie-break must not depend on worker
		// scheduling: derive the generator from the record ID.
		recRNG := rand.New(rand.NewPCG(cfg.Seed, uint64(id)+0x9e3779b97f4a7c15))
		routes[id] = skel.RouteRecord(values, recRNG)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: conversion: %w", err)
	}
	convTime := time.Since(convStart)

	// --- Step 4b: re-distribution into partition files --------------------
	redistStart := time.Now()
	parts, err := cl.Shuffle(bs, skel.NumPartitions, name, func(id int, values []float64) (cluster.Route, error) {
		return routes[id], nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: re-distribution: %w", err)
	}
	redistTime := time.Since(redistStart)

	ix := &Index{
		Cl: cl,
		Stats: BuildStats{
			SampleRecords:  sample.Len(),
			Skeleton:       skeletonTime,
			Conversion:     convTime,
			Redistribution: redistTime,
			Total:          time.Since(start),
		},
	}
	ix.gen.Store(NewGeneration(skel, parts))
	ix.initNextID()
	return ix, nil
}
