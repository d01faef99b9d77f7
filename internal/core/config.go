package core

import (
	"fmt"
	"runtime"

	"climber/internal/metric"
)

// Config carries every tunable of the system, with defaults matching the
// paper's experimental setup (Section VII-A) except for scale-dependent
// values (capacity, block size), which are expressed in records rather than
// HDFS bytes.
type Config struct {
	// Segments is w, the number of PAA segments (Step 1 of CLIMBER-FX).
	Segments int
	// NumPivots is r, the number of Voronoi pivots (paper default 200).
	NumPivots int
	// PrefixLen is m, the pivot-permutation prefix length (paper default 10).
	PrefixLen int
	// Capacity is c, the partition capacity in records (the paper's 64 MB
	// HDFS block, rescaled to record counts).
	Capacity int
	// SampleRate is α, the fraction of raw blocks sampled for skeleton
	// construction.
	SampleRate float64
	// Epsilon is the minimum Overlap Distance between group centroids
	// (Algorithm 2, Lines 5-9).
	Epsilon int
	// MaxCentroids optionally caps the number of groups; 0 = unlimited.
	MaxCentroids int
	// Decay selects the pivot-weight decay function (Definition 9).
	Decay metric.DecayKind
	// Lambda is the decay rate; <= 0 selects the per-kind default
	// (1/2 exponential, 1/m linear).
	Lambda float64
	// Seed drives every random choice (block sampling, pivot selection) for
	// reproducible builds.
	Seed uint64
	// Workers is the goroutine parallelism of the build: the skeleton-
	// construction loops (PAA transforms, signature aggregation, group
	// assignment) read it here, and climber.BuildDataset sizes the partition
	// store's pool — block scans and the shuffle flush — from the same value.
	// 0 uses every available core, 1 forces the sequential build. The result
	// is bit-identical at any worker count — a group assignment and a
	// record's route are pure functions of the signature and the values, so
	// scheduling can never leak into the layout — and Workers is therefore
	// deliberately not serialised into the skeleton file.
	Workers int
	// BlockSize is the size, in records, of the blocks a build cuts its
	// dataset into: partition-level sampling picks whole blocks, so it is
	// the sampling granularity, and a block is a scan worker's unit of work.
	BlockSize int
	// DisableWDTieBreak turns off the Weight Distance stage of Algorithm 1,
	// leaving Overlap Distance ties to the target choice (deepest trie path,
	// largest node, lowest group ID). It exists only for the
	// dual-representation ablation (cmd/climber-bench -experiment abl-dual); production indexes keep it
	// false.
	DisableWDTieBreak bool
}

// DefaultConfig returns the paper's default parameters, scaled to
// record-count capacities suitable for a single machine.
func DefaultConfig() Config {
	return Config{
		Segments:     16,
		NumPivots:    200,
		PrefixLen:    10,
		Capacity:     2000,
		SampleRate:   0.10,
		Epsilon:      2,
		MaxCentroids: 0,
		Decay:        metric.ExponentialDecay,
		Lambda:       0, // kind default
		Seed:         42,
		BlockSize:    5000,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Segments <= 0 {
		return fmt.Errorf("core: Segments must be positive, got %d", c.Segments)
	}
	if c.NumPivots <= 0 {
		return fmt.Errorf("core: NumPivots must be positive, got %d", c.NumPivots)
	}
	if c.PrefixLen <= 0 || c.PrefixLen > c.NumPivots {
		return fmt.Errorf("core: PrefixLen must be in [1, NumPivots=%d], got %d", c.NumPivots, c.PrefixLen)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("core: Capacity must be positive, got %d", c.Capacity)
	}
	if c.SampleRate <= 0 || c.SampleRate > 1 {
		return fmt.Errorf("core: SampleRate must be in (0, 1], got %g", c.SampleRate)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("core: Epsilon must be non-negative, got %d", c.Epsilon)
	}
	if c.MaxCentroids < 0 {
		return fmt.Errorf("core: MaxCentroids must be non-negative, got %d", c.MaxCentroids)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("core: BlockSize must be positive, got %d", c.BlockSize)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// workers resolves the effective skeleton-build parallelism.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
