package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Sizes shared by every workload. The contract's 3 420 s cap over
// 4 + 22 x 4 runs leaves ~30 s per run including set-up, which is what
// fixes N at the issue's lower limit and the run at 15 s.
const (
	defaultN   = 200_000
	topK       = 50
	poolSize   = 2048 // half stored members, half held-out
	truthSize  = 128  // 64 members + 64 held-out with exact answers
	warmupReqs = 512  // untimed requests before any measured phase
	batchSize  = 8    // queries per /search/batch, series per /append
	prefixLen  = 64   // points of a /search/prefix query
	appendPool = 32_768
	// maxClients is the issue's C = min(nproc, 4).
	maxClients = 4
)

// opKind names one request type of the traffic mix.
type opKind int

const (
	opSearch opKind = iota
	opPrefix
	opBatch
	opAppend
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"search", "prefix", "batch", "append"}[k]
}

// workload is one row of the README's workload table: a deployment, a
// dataset and a traffic mix. Every server flag a workload uses is a field
// here, so the in-process layer pass opens the directory exactly as the
// server did.
type workload struct {
	name     string
	dataset  string // internal/dataset registry key
	capacity int    // climber.WithCapacity
	shards   int    // 1 = one climber-serve; 2 = climber-router over two

	mmap           bool
	cacheBytes     int64
	compactRecords int           // 0 = server default
	compactAge     time.Duration // 0 = server default

	variant string
	// Traffic: either a random mix (percent per kind, summing to 100) or,
	// when appendEvery > 0, the fixed cycle of appendEvery searches then
	// one append per client.
	mixPct      [numOpKinds]int
	appendEvery int

	// rate is the paced phase's fixed arrival rate (requests/s), about
	// half of the closed-loop throughput measured on the reference box
	// when the benchmark was defined; pacedLimitMS is 5 x the closed
	// /search p50 measured then. Both are constants, never derived at
	// run time (see README "How rate and the floors were fixed").
	rate         float64
	pacedLimitMS float64
	// recallFloor fails the run (correct=false) when recall_at_k drops
	// below it.
	recallFloor float64
}

var workloads = []workload{
	{
		name: "warm-knn", dataset: "randomwalk", capacity: 8000, shards: 1,
		mmap: true, cacheBytes: 1 << 30,
		variant: "adaptive-4x", mixPct: [numOpKinds]int{opSearch: 100},
		rate: 840, pacedLimitMS: 4.2, recallFloor: 0.35,
	},
	{
		name: "cold-od", dataset: "eeg", capacity: 8000, shards: 1,
		mmap: false, cacheBytes: 32 << 20,
		variant: "od-smallest", mixPct: [numOpKinds]int{opSearch: 100},
		rate: 170, pacedLimitMS: 26, recallFloor: 0.80,
	},
	{
		name: "ingest-mixed", dataset: "randomwalk", capacity: 8000, shards: 1,
		mmap: true, cacheBytes: 1 << 30, compactRecords: 2048, compactAge: 2 * time.Second,
		variant: "adaptive-4x", appendEvery: 4,
		rate: 430, pacedLimitMS: 5.1, recallFloor: 0.35,
	},
	{
		name: "sharded-mix", dataset: "sift", capacity: 4000, shards: 2,
		mmap: true, cacheBytes: 1 << 30,
		variant: "adaptive-4x", mixPct: [numOpKinds]int{opSearch: 80, opPrefix: 10, opBatch: 10},
		rate: 400, pacedLimitMS: 8.1, recallFloor: 0.58,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serveArgs are the climber-serve flags of this workload for one
// directory and address.
func (w workload) serveArgs(dir, addr string) []string {
	args := []string{"-dir", dir, "-addr", addr,
		"-cache-bytes", strconv.FormatInt(w.cacheBytes, 10),
		"-slow-threshold", "-1s"}
	if w.mmap {
		args = append(args, "-mmap")
	}
	if w.compactRecords > 0 {
		args = append(args, "-compact-records", strconv.Itoa(w.compactRecords))
	}
	if w.compactAge > 0 {
		args = append(args, "-compact-age", w.compactAge.String())
	}
	return args
}

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the single source of metric names,
// units, directions and bounds for the run output and for -compare.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
