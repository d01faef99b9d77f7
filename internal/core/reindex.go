package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"climber/internal/cluster"
)

// RebuildGeneration builds a fresh generation of the index — new sample, new
// pivots, new skeleton, new partition files — from the records currently
// persisted in the acquired generation's partition files. It writes the files
// into the store's directory under cluster.GenerationName(name, n), n one
// more than the current view's cluster.Generation, so they are files no
// current view names. It is the build half of an online reindex: the caller
// (climber.DB.Reindex) is responsible for quiescing the compactor first, and
// afterwards for committing a view of the returned generation's skeleton and
// files with Publish, whose failure before the commit removes the files.
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
//   - every written file is fsynced, and the directory holding them, so
//     when the caller's manifest save commits, the files it names are
//     durable. The enumerated CrashStep hooks mark each durability boundary.
//
// The returned generation has no delta: the view the caller commits carries
// the uncompacted records, re-routed under the new skeleton. Records land in the new
// files exactly as persisted, preserving IDs. A failed rebuild leaves no
// file behind.
func (ix *Index) RebuildGeneration(ctx context.Context, name string) (*Generation, error) {
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
	name = cluster.GenerationName(name, cluster.Generation(old.Parts.Paths[0])+1)
	g, stats, err := construct(ctx, ix.Cl, in, cfg, cluster.Dest{Name: name, Sync: true, Step: CrashStep})
	if err != nil {
		return nil, err
	}
	ix.Stats = stats
	return g, nil
}
