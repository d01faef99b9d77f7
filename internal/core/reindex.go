package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"climber/internal/cluster"
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
// The rebuild is CLIMBER construction (paper Figure 6) — construct, the same
// pipeline Build runs — with two differences in its input and output:
//
//   - the source is the old generation's partition files, and the sample is
//     per record, decided by a PCG keyed on (seed, id): whole old partitions
//     are similarity-clustered, so block-granular sampling would bias the
//     pivots, and a decision that ignores where a record currently lives
//     makes the rebuild a deterministic function of the logical record set
//     (the crash-matrix test relies on rebuilding the same input twice giving
//     bit-identical files);
//   - every written file is fsynced (and the directories containing them), so
//     when the caller's MANIFEST rename commits, the generation it names is
//     durable. The enumerated CrashStep hooks mark each durability boundary.
//
// The new generation starts with no delta; the caller re-routes any
// uncompacted records into one before the swap. Records land in the new
// files exactly as persisted, preserving IDs.
func (ix *Index) RebuildGeneration(ctx context.Context, genRoot, name string) (*Generation, error) {
	old := ix.AcquireGeneration()
	defer old.Release()
	cfg := old.Skel.Cfg
	if ix.PersistedRecords() == 0 {
		return nil, fmt.Errorf("core: reindex: no persisted records to rebuild from")
	}
	in := buildInput{
		src:     old.Parts,
		idBound: int(ix.nextID.Load()),
		keepSample: func(id int) bool {
			rng := rand.New(rand.NewPCG(cfg.Seed^0x9e3779b97f4a7c15, uint64(id)))
			return rng.Float64() < cfg.SampleRate
		},
	}
	g, stats, err := construct(ctx, ix.Cl, in, cfg,
		cluster.Dest{Root: genRoot, Name: name, Sync: true, Step: CrashStep})
	if err != nil {
		return nil, err
	}
	// The partition files are durable and findable; now the skeleton that
	// references them, before the MANIFEST that references it (the caller's
	// rename).
	if err := SaveSnapshot(g.Skel, g.Parts, IndexPathIn(genRoot)); err != nil {
		return nil, err
	}
	if err := storage.SyncPath(genRoot); err != nil {
		return nil, err
	}
	ix.Stats = stats
	return g, nil
}
