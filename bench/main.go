// Command bench is the repository's one benchmark: it builds an index,
// starts the real climber-serve / climber-router binaries on loopback
// ports, drives them from this process over HTTP, checks every answer, and
// prints end-to-end metrics (--trace 0) or per-layer metrics (--trace 1)
// by the names BENCHMARK.json fixes. See README.md.
//
// Usage (from the repository root; run.sh only pins the go caches inside
// the checkout and builds this package):
//
//	bash bench/run.sh --workload warm-knn --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

const schemaVersion = 1

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// fingerprint states the environment a result was measured in; -compare
// refuses to compare results whose fingerprints differ.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	PageSize   int    `json:"page_size"`
}

// report is the output document of one invocation; -out appends it as one
// JSON line, so a results file is a set of runs.
type report struct {
	Schema      int                    `json:"schema"`
	Commit      string                 `json:"commit"`
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	N           int                    `json:"n"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	PacedRate   float64                `json:"paced_rate"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Problems    []string               `json:"problems,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	Spans       []spanSummary          `json:"spans,omitempty"`

	units map[string]string // metric name -> unit, from BENCHMARK.json
}

func newReport(cfg runConfig) *report {
	return &report{
		Schema: schemaVersion, Commit: commit(cfg.root), Workload: cfg.w.name, Seed: cfg.seed,
		N: cfg.n, Seconds: cfg.seconds, Trace: cfg.trace, PacedRate: cfg.w.rate,
		Fingerprint: readFingerprint(), Correct: true, Metrics: map[string]metricValue{},
		units: cfg.units,
	}
}

func (r *report) problem(msg string) {
	r.Correct = false
	r.Problems = append(r.Problems, msg)
}

// set records a metric under a name BENCHMARK.json declares; any other
// name is a bug in the harness.
func (r *report) set(name string, value float64, samples int) {
	unit, ok := r.units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit, Samples: samples}
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a driver checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func readFingerprint() fingerprint {
	fp := fingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), PageSize: os.Getpagesize()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					fp.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fp
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: warm-knn, cold-od, ingest-mixed or sharded-mix")
		seed         = flag.Uint64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 10, "measured time; with --trace 1 it is split evenly over closed, traced and paced")
		trace        = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
		n            = flag.Int("n", defaultN, "indexed series; results are only comparable at equal n")
		out          = flag.String("out", "", "append the full output document to this file as one JSON line")
		compare      = flag.Bool("compare", false, "compare two result files: bench --compare old.jsonl new.jsonl")
	)
	flag.Parse()
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare needs two result files"))
		}
		os.Exit(compareFiles(bf, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	w, ok := workloadByName(*workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q", *workloadName))
	}
	if *seconds <= 0 || *n < 1000 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0, -n >= 1000, --trace 0 or 1"))
	}
	cfg := runConfig{w: w, seed: *seed, n: *n, seconds: *seconds, trace: *trace == 1, root: root}
	rep, err := runWithDefs(cfg, bf)
	if err != nil {
		fatal(err)
	}
	printTable(rep)
	if *out != "" {
		if err := appendJSONLine(*out, rep); err != nil {
			fatal(err)
		}
	}
	// The contract's result line: last on stdout, exactly these keys.
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]lineMetric{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = lineMetric{m.Value, m.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runWithDefs runs cfg and verifies the report carries exactly the metric
// list BENCHMARK.json declares for the mode.
func runWithDefs(cfg runConfig, bf *benchmarkFile) (*report, error) {
	defs := bf.EndToEnd
	if cfg.trace {
		defs = bf.PerLayer
	}
	units := map[string]string{}
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	cfg.units = units
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		if _, ok := rep.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("bench: metric %s declared in BENCHMARK.json was not measured", d.Name)
		}
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes the human-readable view to stderr: every metric by
// name with its unit and sample count.
func printTable(r *report) {
	mode := "end-to-end (--trace 0)"
	if r.Trace {
		mode = "per-layer (--trace 1)"
	}
	fmt.Fprintf(os.Stderr, "%s  seed %d  n %d  %.0fs  %s  correct=%v  attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.N, r.Seconds, mode, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "  PROBLEM:", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tvalue\tunit\tsamples")
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\n", name, m.Value, m.Unit, m.Samples)
	}
	tw.Flush()
	if len(r.Spans) > 0 {
		fmt.Fprintln(tw, "  span\tcount\tself p50 us\ttotal p50 us")
		for _, s := range r.Spans {
			fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.1f\n", s.Name, s.Count, s.SelfP50US, s.TotalP50US)
		}
		tw.Flush()
	}
}
