package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/core"
	"climber/internal/series"
	"climber/internal/server"
	"climber/internal/shard"
)

// runConfig is one invocation: one workload, one seed, one mode.
type runConfig struct {
	w       workload
	seed    uint64
	n       int
	seconds float64
	trace   bool
	root    string
	units   map[string]string // metric name -> unit for this mode, from BENCHMARK.json
}

// deployment is the running stack of one workload: the shard servers and,
// on sharded-mix, the router in front of them.
type deployment struct {
	w      workload
	bin    string
	dirs   []string // one DB directory per shard
	logDir string
	shards []*proc
	router *proc
}

func (d *deployment) entry() *proc {
	if d.router != nil {
		return d.router
	}
	return d.shards[0]
}

func (d *deployment) procs() []*proc {
	if d.router != nil {
		return append([]*proc{d.router}, d.shards...)
	}
	return d.shards
}

// start launches every process and returns the wall time until the entry
// point answered /healthz. On failure nothing is left running.
func (d *deployment) start() (took time.Duration, err error) {
	begin := time.Now()
	d.shards, d.router = nil, nil
	defer func() {
		if err != nil {
			d.killAll()
		}
	}()
	topo := &shard.Topology{}
	for i, dir := range d.dirs {
		addr, err := freeAddr()
		if err != nil {
			return 0, err
		}
		name := fmt.Sprintf("shard-%d", i)
		p, err := startProc(name, filepath.Join(d.bin, "climber-serve"), d.w.serveArgs(dir, addr),
			addr, filepath.Join(d.logDir, name+".log"))
		if err != nil {
			return 0, err
		}
		d.shards = append(d.shards, p)
		topo.Shards = append(topo.Shards, shard.Info{ID: name, URL: "http://" + addr})
	}
	if d.w.shards > 1 {
		if err := topo.Validate(); err != nil {
			return 0, err
		}
		topoPath := filepath.Join(d.logDir, "shards.json")
		if err := topo.Save(topoPath); err != nil {
			return 0, err
		}
		addr, err := freeAddr()
		if err != nil {
			return 0, err
		}
		d.router, err = startProc("router", filepath.Join(d.bin, "climber-router"),
			[]string{"-topology", topoPath, "-addr", addr, "-slow-threshold", "-1s"},
			addr, filepath.Join(d.logDir, "router.log"))
		if err != nil {
			return 0, err
		}
	}
	return time.Since(begin), nil
}

func (d *deployment) stopAll() {
	for _, p := range d.procs() {
		p.stop()
	}
	d.shards, d.router = nil, nil
}

func (d *deployment) killAll() {
	for _, p := range d.procs() {
		p.kill()
	}
	d.shards, d.router = nil, nil
}

// buildRepeats is how many times set-up builds the index; the build time
// in setup_s (and build.total_s) is the median, because one 2 s build on a
// shared box varies by more than the bound a build regression should be
// caught at.
const buildRepeats = 3

// buildResult is one complete build of the workload's database(s), summed
// over shards.
type buildResult struct {
	total         time.Duration // the climber.BuildDataset calls alone
	stats         core.BuildStats
	skeletonBytes int
}

// buildIndexes builds one database per shard with climber.BuildDataset,
// buildRepeats times over, leaves the last build in dirs and returns the
// build whose time is the median.
func buildIndexes(w workload, base *series.Dataset, dirs []string) (buildResult, error) {
	parts := []*series.Dataset{base}
	if w.shards > 1 {
		parts = shard.SplitDataset(base, w.shards)
	}
	builds := make([]buildResult, buildRepeats)
	for r := range builds {
		for i, part := range parts {
			if err := os.RemoveAll(dirs[i]); err != nil {
				return buildResult{}, err
			}
			begin := time.Now()
			db, err := climber.BuildDataset(dirs[i], part, climber.WithCapacity(w.capacity), climber.WithSeed(dataSeed))
			if err != nil {
				return buildResult{}, fmt.Errorf("build %s: %w", dirs[i], err)
			}
			builds[r].total += time.Since(begin)
			bs := db.Index().Stats
			builds[r].stats.Skeleton += bs.Skeleton
			builds[r].stats.Conversion += bs.Conversion
			builds[r].stats.Redistribution += bs.Redistribution
			builds[r].skeletonBytes += db.Info().SkeletonBytes
			if err := db.Close(); err != nil {
				return buildResult{}, fmt.Errorf("close %s: %w", dirs[i], err)
			}
		}
	}
	sort.Slice(builds, func(i, j int) bool { return builds[i].total < builds[j].total })
	return builds[buildRepeats/2], nil
}

// run executes one invocation and returns its report. An error means the
// harness itself could not run; a wrong answer is reported in the report.
func run(cfg runConfig) (*report, error) {
	w := cfg.w
	rep := newReport(cfg)
	clients := min(runtime.NumCPU(), maxClients)

	outDir := filepath.Join(cfg.root, ".bench_build")
	binDir := filepath.Join(outDir, "bin")
	workDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	if err := buildServers(cfg.root, binDir); err != nil {
		return nil, err
	}

	// Set-up. Generating inputs and brute-forcing ground truth is the
	// harness's own work and stays out of setup_s; building, starting and
	// warming the program is what setup_s times.
	in, err := generate(w, cfg.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	dep := &deployment{w: w, bin: binDir, logDir: workDir}
	if w.shards > 1 {
		dep.dirs = climber.ShardDirs(filepath.Join(workDir, "db"), w.shards)
	} else {
		dep.dirs = []string{filepath.Join(workDir, "db")}
	}
	build, err := buildIndexes(w, in.base, dep.dirs)
	if err != nil {
		return nil, err
	}
	in.computeTruth()
	startTime, err := dep.start()
	if err != nil {
		return nil, err
	}
	defer dep.killAll() // no-op after the orderly stop below

	gen := newLoadgen(w, in, cfg.seed, "http://"+dep.entry().addr, clients)
	defer gen.close()
	other := &phaseResult{} // warm-up, recall and verification requests
	warmBegin := time.Now()
	gen.warmup(other)
	warmTime := time.Since(warmBegin)
	setup := build.total + startTime + warmTime
	rec := gen.recall(other)

	seconds := time.Duration(cfg.seconds * float64(time.Second))
	var ph phases
	if !cfg.trace {
		ph.closed = gen.closed("closed", seconds, false)
	} else {
		third := seconds / 3
		before, err := dep.scrape()
		if err != nil {
			return nil, err
		}
		ph.closed = gen.closed("closed", third, false)
		after, err := dep.scrape()
		if err != nil {
			return nil, err
		}
		ph.before, ph.after = before, after
		ph.traced = gen.closed("traced", third, true)
		ph.paced = gen.paced("paced", third, w.rate)
	}

	// Wind-down: crash check (ingest-mixed), final flush, orderly stop,
	// then the directory is measured at rest.
	var crash crashResult
	if w.appendEvery > 0 {
		crash, err = crashCheck(dep, gen, &ph, other)
		if err != nil {
			return nil, err
		}
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	if err := post(hc, dep.entry().url("/flush")); err != nil {
		return nil, err
	}
	var info api.InfoResponse
	if err := getJSON(hc, dep.entry().url("/info"), &info); err != nil {
		return nil, err
	}
	peakRSS := dep.peakRSSKB()
	dep.stopAll()
	var disk int64
	for _, dir := range dep.dirs {
		b, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		disk += b
	}
	userBytes := float64(info.NumRecords) * float64(info.SeriesLen) * 4

	// Correctness: every request of every phase is counted.
	all := []*phaseResult{other, ph.closed, ph.traced, ph.paced}
	for _, p := range all {
		if p == nil {
			continue
		}
		rep.Attempted += len(p.samples)
		rep.Failed += p.failed()
		for _, e := range p.errs {
			rep.problem("request failed: " + e)
		}
	}
	if rec.overall < w.recallFloor {
		rep.problem(fmt.Sprintf("recall_at_k %.4f below the floor %.2f", rec.overall, w.recallFloor))
	}
	if crash.ackedLost != 0 {
		rep.problem(fmt.Sprintf("acked_lost: %d acked series missing after SIGKILL + restart", crash.ackedLost))
	}
	if rep.Failed > 0 {
		rep.problem(fmt.Sprintf("%d of %d requests failed", rep.Failed, rep.Attempted))
	}

	if !cfg.trace {
		qps, queries := ph.closed.quietQPS()
		rep.set("setup_s", setup.Seconds(), buildRepeats)
		rep.set("recall_at_k", rec.overall, len(in.truthQ))
		rep.set("qps", qps, queries)
		rep.set("disk_bytes_per_user_byte", ratio(float64(disk), userBytes), 1)
		return rep, nil
	}

	lay := layerInputs{
		cfg: cfg, dep: dep, in: in, ph: &ph, rec: rec, crash: crash,
		build:     build,
		peakRSSKB: peakRSS, records: info.NumRecords,
	}
	if err := layerMetrics(rep, lay); err != nil {
		return nil, err
	}
	return rep, nil
}

// phases holds the measured phases of one run; traced and paced are nil
// with --trace 0.
type phases struct {
	closed, traced, paced *phaseResult
	before, after         scrapeResult // around closed, --trace 1 only
}

// warmup sends warmupReqs searches over the pool, untimed, so caches fill
// and lazy set-up finishes before anything is measured.
func (g *loadgen) warmup(res *phaseResult) {
	res.merge(g.fanOut(func(c int, part *phaseResult) {
		for i := c; i < warmupReqs; i += g.clients {
			q := g.in.poolJSON[i%len(g.in.poolJSON)]
			g.one(operation{kind: opSearch, path: "/search", body: searchBody(q, g.w.variant, false)}, part)
		}
	}))
}

// recallResult is recall@k against the exact answers, answers taken over
// HTTP with the workload's own variant.
type recallResult struct {
	overall, member, heldOut float64
	selfHit                  float64 // member queries whose own ID is rank 1
}

func (g *loadgen) recall(res *phaseResult) recallResult {
	var r recallResult
	half := len(g.in.truthQ) / 2
	for j, q := range g.in.truthJSON {
		rs := g.one(operation{kind: opSearch, path: "/search", body: searchBody(q, g.w.variant, false)}, res)
		approx := make([]series.Result, len(rs))
		for i, x := range rs {
			approx[i] = series.Result{ID: x.ID, Dist: x.Dist}
		}
		rc := series.Recall(approx, g.in.truth[j])
		if j < half {
			r.member += rc
			if len(rs) > 0 && rs[0].ID == g.in.truthMemberIDs[j] {
				r.selfHit++
			}
		} else {
			r.heldOut += rc
		}
	}
	r.overall = (r.member + r.heldOut) / float64(2*half)
	r.member /= float64(half)
	r.selfHit /= float64(half)
	r.heldOut /= float64(half)
	return r
}

// scrapeResult is one reading of every server's /stats and /proc entry.
type scrapeResult struct {
	stats []server.StatsResponse // per shard
	procs []procSample           // per process, router first when present
}

func (d *deployment) scrape() (scrapeResult, error) {
	var s scrapeResult
	hc := &http.Client{Timeout: 10 * time.Second}
	for _, p := range d.shards {
		var st server.StatsResponse
		if err := getJSON(hc, p.url("/stats"), &st); err != nil {
			return s, err
		}
		s.stats = append(s.stats, st)
	}
	for _, p := range d.procs() {
		ps, err := p.sample()
		if err != nil {
			return s, err
		}
		s.procs = append(s.procs, ps)
	}
	return s, nil
}

// peakRSSKB sums VmHWM over the running server processes.
func (d *deployment) peakRSSKB() int64 {
	var kb int64
	for _, p := range d.procs() {
		if s, err := p.sample(); err == nil {
			kb += s.hwmKB
		}
	}
	return kb
}

// crashResult is the outcome of the SIGKILL + restart check.
type crashResult struct {
	ackedLost    int
	replay       time.Duration // restart -> /healthz
	selfMiss     float64       // acked series not rank 1 for their own vector
	selfChecked  int
	deltaAtKill  int
	compactions  int64 // completed by the server before the kill
	ackedSeries  int
	recordsAfter int
}

// crashCheck kills the server with a non-empty delta and no prior /flush,
// restarts it on the same directory, and verifies that every acked series
// is still counted and findable.
func crashCheck(dep *deployment, gen *loadgen, ph *phases, other *phaseResult) (crashResult, error) {
	var cr crashResult
	hc := &http.Client{Timeout: 30 * time.Second}
	// One more acked append right before the kill keeps the delta
	// non-empty whatever the compactor did last.
	last := newOpStream(gen.w, gen.in, gen.seed, "crash", 0, gen.clients, &gen.cursors[0], false)
	gen.appendSent.Add(batchSize)
	gen.one(last.appendOp(), other)
	var st server.StatsResponse
	if err := getJSON(hc, dep.entry().url("/stats"), &st); err != nil {
		return cr, err
	}
	cr.deltaAtKill = st.Ingest.DeltaRecords
	cr.compactions = st.Ingest.Compactions
	dep.killAll()

	replay, err := dep.start()
	if err != nil {
		return cr, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	cr.replay = replay
	gen.base = "http://" + dep.entry().addr
	gen.hc.CloseIdleConnections()

	var acks []appendAck
	for _, p := range []*phaseResult{ph.closed, ph.traced, ph.paced, other} {
		if p != nil {
			acks = append(acks, p.acks...)
		}
	}
	cr.ackedSeries = len(acks) * batchSize
	var info api.InfoResponse
	if err := getJSON(hc, dep.entry().url("/info"), &info); err != nil {
		return cr, err
	}
	cr.recordsAfter = info.NumRecords
	cr.ackedLost = gen.baseN + cr.ackedSeries - info.NumRecords

	// Self-queries: a sample of acked series, each searched by its own
	// vector under od-smallest. A chunk sent twice (the append pool
	// wrapped) has a twin at distance 0 and is skipped.
	sent := map[int]int{}
	for _, a := range acks {
		sent[a.first]++
	}
	step := max(1, len(acks)/64)
	misses := 0
	for i := 0; i < len(acks); i += step {
		a := acks[i]
		if sent[a.first] > 1 {
			continue
		}
		rs := gen.one(operation{kind: opSearch, path: "/search",
			body: searchBody(gen.in.appendJSON[a.first], "od-smallest", false)}, other)
		cr.selfChecked++
		if len(rs) == 0 || rs[0].ID != a.ids[0] {
			misses++
		}
	}
	cr.selfMiss = ratio(float64(misses), float64(cr.selfChecked))
	return cr, nil
}
