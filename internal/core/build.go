package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"climber/internal/cluster"
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
	// retired closes once every view swapped out so far is retired; nil
	// before the first swap. Only the serialised SwapGeneration touches it.
	retired <-chan struct{}
	// retireMu holds Close off while retired files are removed; once closed
	// is set, nothing is removed any more (see Close).
	retireMu sync.Mutex
	closed   bool

	// nextID mints record IDs for appended series: a single atomic counter
	// seeded from the partition counts at build/open time, so concurrent
	// writers can never assign duplicate IDs.
	nextID atomic.Int64
	// legacyTails is set when the manifest was opened with the legacy TAIL
	// trailer, written while drains still rewrote files under their names:
	// a drain killed there before its manifest save may have left records
	// the WAL replays in partition files (see LegacyTails); uncounted is set
	// when a file the view reads holds such records (UncountedRecords).
	legacyTails, uncounted bool
}

// NewIndex wraps an already-built skeleton and partition set as an Index
// with a fresh generation holding them. Build and OpenIndex use richer
// paths; this constructor serves harnesses that assemble the pieces
// themselves.
func NewIndex(cl *cluster.Cluster, skel *Skeleton, parts *cluster.PartitionSet) *Index {
	ix := &Index{Cl: cl}
	ix.gen.Store(NewGeneration(skel, parts, nil))
	ix.initNextID()
	return ix
}

// Build constructs a CLIMBER index over a dataset cut into blocks, writing the
// partition files into the store's directory. The sample is block-granular
// (partition-level sampling, paper Section V): whole random blocks are read,
// so skeleton construction avoids a full scan.
func Build(cl *cluster.Cluster, bs *cluster.BlockSet, cfg Config, name string) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x2545f4914f6cdd1d))
	in := buildInput{src: bs, idBound: bs.Len(), sampleBlocks: cl.SampleBlocks(bs, cfg.SampleRate, rng)}
	// A build is an offline root: it runs to completion, there is no caller
	// deadline to thread.
	g, stats, err := construct(context.Background(), cl, in, cfg, cluster.Dest{Name: name})
	if err != nil {
		return nil, err
	}
	ix := &Index{Cl: cl, Stats: stats}
	ix.gen.Store(g)
	ix.initNextID()
	return ix, nil
}

// buildInput is what one run of the construction workflow reads and how it
// draws its sample.
type buildInput struct {
	src cluster.Source
	// idBound is above every record ID of src.
	idBound int
	// sampleBlocks are the blocks scanned for the sample (nil: all of them)
	// and keepSample picks the scanned records that join it (nil: all).
	sampleBlocks []int
	keepSample   func(id int) bool
}

// ctxSource makes a scan of its Source stop at the next block once ctx is
// cancelled.
type ctxSource struct {
	cluster.Source
	ctx context.Context
}

func (s ctxSource) ScanBlock(i int, fn func(id int, values []float64) error) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	return s.Source.ScanBlock(i, fn)
}

// construct is index construction — the four-step workflow of paper Figure 6,
// the one implementation behind Build and RebuildGeneration:
//
//	1-3. draw the sample, build the index skeleton from it in memory;
//	4.   convert every record to its dual signature and re-distribute the
//	     records into partition files under dst.
//
// The conversion and re-distribution phases are deliberately separate scans
// so their costs can be reported independently, exactly as the paper's
// construction-time breakdown does. The conversion scan routes every record
// (Skeleton.RouteRecord) into routes, indexed by ID; the re-distribution
// (cluster.Shuffle) counts the routes into each record's final slot, then
// scans src again and encodes each record straight into it. A record's
// route is a pure function of (skeleton, values) and the slots are in
// canonical order, so the bytes written do not depend on worker scheduling
// or on how src is cut into blocks.
func construct(ctx context.Context, cl *cluster.Cluster, in buildInput, cfg Config, dst cluster.Dest) (*Generation, BuildStats, error) {
	start := time.Now()
	src := ctxSource{in.src, ctx}

	// --- Steps 1-3: sample -> skeleton -------------------------------------
	sample, err := cl.SampleDataset(src, in.sampleBlocks, in.keepSample)
	if err == nil && sample.Len() == 0 {
		// A tiny dataset can dodge a per-record sampler entirely; sample
		// everything rather than fail the build.
		sample, err = cl.SampleDataset(src, in.sampleBlocks, nil)
	}
	if err != nil {
		return nil, BuildStats{}, fmt.Errorf("core: sampling: %w", err)
	}
	// The realised sample rate deviates from α (block granularity, sampler
	// luck); feed it into the skeleton so the scale-up estimates stay honest.
	effCfg := cfg
	if sample.Len() > 0 {
		effCfg.SampleRate = min(float64(sample.Len())/float64(src.Len()), 1)
	}
	skel, err := BuildSkeleton(sample, src.Length(), effCfg)
	if err != nil {
		return nil, BuildStats{}, fmt.Errorf("core: skeleton: %w", err)
	}
	skeletonTime := time.Since(start)

	// --- Step 4a: entire-data conversion ----------------------------------
	convStart := time.Now()
	routes, err := cl.Convert(src, in.idBound, skel.RouteRecord)
	if err != nil {
		return nil, BuildStats{}, fmt.Errorf("core: conversion: %w", err)
	}
	convTime := time.Since(convStart)

	// --- Step 4b: re-distribution into partition files --------------------
	redistStart := time.Now()
	parts, err := cl.Shuffle(src, skel.NumPartitions, dst, routes)
	if err != nil {
		return nil, BuildStats{}, fmt.Errorf("core: re-distribution: %w", err)
	}
	return NewGeneration(skel, parts, nil), BuildStats{
		SampleRecords:  sample.Len(),
		Skeleton:       skeletonTime,
		Conversion:     convTime,
		Redistribution: time.Since(redistStart),
		Total:          time.Since(start),
	}, nil
}
