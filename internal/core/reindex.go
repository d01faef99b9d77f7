package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"climber/internal/cluster"
	"climber/internal/series"
	"climber/internal/storage"
)

// RebuildGeneration builds a fresh generation of the index — new sample, new
// pivots, new skeleton, new partition files — from the records currently
// persisted in the acquired generation's partition files, writing everything
// under genRoot (a gen-NNNN directory that must not yet exist). It is the
// build half of an online reindex: the caller (climber.DB.Reindex) is
// responsible for quiescing the compactor first, committing the MANIFEST
// pointer afterwards, and swapping the returned generation in.
//
// The rebuild is CLIMBER construction (paper Figure 6) run over partition
// files instead of raw blocks:
//
//	pass 1: scan every partition, keep a deterministic per-record sample
//	        (decided by a PCG keyed on (seed, id), not on scan order),
//	        build the new skeleton from it;
//	pass 2: scan again, route every record through the new skeleton —
//	        Skeleton.RouteNewRecord, the same pure function WAL replay
//	        uses — and write the new partition files.
//
// Routing is a pure function of (skeleton, seed, id, values) and partition
// files enumerate records in sorted ID order, so the produced bytes are a
// deterministic function of the logical record set: the crash-matrix test
// relies on rebuilding the same input twice giving bit-identical files.
//
// Every written file is fsynced (and the directories containing them), so
// when the caller's MANIFEST rename commits, the generation it names is
// durable. The enumerated crashStep hooks mark each durability boundary.
//
// The new generation starts with no delta; the caller re-routes any
// uncompacted records into one before the swap. Records land in the new
// files exactly as persisted, preserving IDs.
func (ix *Index) RebuildGeneration(ctx context.Context, genRoot, name string) (*Generation, error) {
	old := ix.AcquireGeneration()
	defer old.Release()
	cfg := old.Skel.Cfg
	seriesLen := old.Skel.SeriesLen
	start := time.Now()

	// --- pass 1: deterministic sample -> new skeleton ---------------------
	total := 0
	var sampleIDs []int
	sampleVals := make(map[int][]float64)
	for _, path := range old.Parts.Paths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := storage.OpenPartition(path)
		if err != nil {
			return nil, fmt.Errorf("core: reindex sample scan: %w", err)
		}
		err = p.ScanAll(func(id int, values []float64) error {
			total++
			// Sample membership must be a pure function of (seed, id) so the
			// rebuild is deterministic regardless of which partition the
			// record currently lives in.
			rng := rand.New(rand.NewPCG(cfg.Seed^0x9e3779b97f4a7c15, uint64(id)))
			if rng.Float64() >= cfg.SampleRate {
				return nil
			}
			cp := make([]float64, len(values))
			copy(cp, values)
			sampleIDs = append(sampleIDs, id)
			sampleVals[id] = cp
			return nil
		})
		p.Close()
		if err != nil {
			return nil, fmt.Errorf("core: reindex sample scan: %w", err)
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("core: reindex: no persisted records to rebuild from")
	}
	if len(sampleIDs) == 0 {
		// A tiny dataset can dodge the sampler entirely; fall back to
		// sampling everything rather than failing the rebuild.
		for _, path := range old.Parts.Paths {
			p, err := storage.OpenPartition(path)
			if err != nil {
				return nil, fmt.Errorf("core: reindex sample scan: %w", err)
			}
			err = p.ScanAll(func(id int, values []float64) error {
				cp := make([]float64, len(values))
				copy(cp, values)
				sampleIDs = append(sampleIDs, id)
				sampleVals[id] = cp
				return nil
			})
			p.Close()
			if err != nil {
				return nil, fmt.Errorf("core: reindex sample scan: %w", err)
			}
		}
	}
	// Materialise in ID order: scan order must not influence pivot selection.
	sort.Ints(sampleIDs)
	sample := series.NewDatasetCap(seriesLen, len(sampleIDs))
	for _, id := range sampleIDs {
		sample.Append(sampleVals[id])
	}
	effCfg := cfg
	if eff := float64(sample.Len()) / float64(total); eff > 0 {
		if eff > 1 {
			eff = 1
		}
		effCfg.SampleRate = eff
	}
	skel, err := BuildSkeleton(sample, seriesLen, effCfg)
	if err != nil {
		return nil, fmt.Errorf("core: reindex skeleton: %w", err)
	}
	skeletonTime := time.Since(start)

	// --- pass 2: route everything, write the new partition files ----------
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	convStart := time.Now()
	writers := make([]*storage.PartitionWriter, skel.NumPartitions)
	for pid := range writers {
		writers[pid] = storage.NewPartitionWriter(seriesLen)
	}
	for _, path := range old.Parts.Paths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := storage.OpenPartition(path)
		if err != nil {
			return nil, fmt.Errorf("core: reindex route scan: %w", err)
		}
		err = p.ScanAll(func(id int, values []float64) error {
			r := skel.RouteNewRecord(id, values)
			return writers[r.Partition].Append(r.Cluster, id, values)
		})
		p.Close()
		if err != nil {
			return nil, fmt.Errorf("core: reindex route scan: %w", err)
		}
	}
	convTime := time.Since(convStart)

	redistStart := time.Now()
	crashStep("gen-dirs")
	if err := os.MkdirAll(genRoot, 0o755); err != nil {
		return nil, fmt.Errorf("core: reindex mkdir: %w", err)
	}
	parts := &cluster.PartitionSet{
		SeriesLen: seriesLen,
		Paths:     make([]string, skel.NumPartitions),
		Counts:    make([]int, skel.NumPartitions),
	}
	for pid, w := range writers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		path := cluster.PartitionPath(genRoot, name, pid)
		crashStep(fmt.Sprintf("partition-%05d", pid))
		if err := w.Flush(path); err != nil {
			return nil, fmt.Errorf("core: reindex flush partition %d: %w", pid, err)
		}
		if err := syncFile(path); err != nil {
			return nil, err
		}
		parts.Paths[pid] = path
		parts.Counts[pid] = w.Count()
	}
	// The partition files must be durable and findable before the skeleton
	// that references them; then the skeleton before the MANIFEST that
	// references it (the caller's rename).
	crashStep("gen-dir-sync")
	if err := syncDir(genRoot); err != nil {
		return nil, err
	}
	if err := SaveSnapshot(skel, parts, IndexPathIn(genRoot)); err != nil {
		return nil, err
	}
	if err := syncDir(genRoot); err != nil {
		return nil, err
	}
	redistTime := time.Since(redistStart)

	ix.Stats = BuildStats{
		SampleRecords:  sample.Len(),
		Skeleton:       skeletonTime,
		Conversion:     convTime,
		Redistribution: redistTime,
		Total:          time.Since(start),
	}
	return NewGeneration(skel, parts), nil
}
