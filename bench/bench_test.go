package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads end to end at a toy size, in both
// modes, and checks the contract the driver relies on: every metric
// BENCHMARK.json names comes back finite with its unit, every answer was
// correct, and comparing a result file with itself reports no change.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real server processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench has %d", len(bf.Workloads), len(workloads))
	}
	results := filepath.Join(t.TempDir(), "smoke.jsonl")
	for _, wl := range bf.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		// The recall floors belong to the real size; at 4 000 series the
		// smoke run only checks the plumbing.
		w.recallFloor = 0
		for _, trace := range []bool{false, true} {
			cfg := runConfig{w: w, seed: 7, n: 4000, seconds: 1, trace: trace, root: root}
			if trace {
				cfg.seconds = 1.5 // three phases of half a second
			}
			rep, err := runWithDefs(cfg, bf)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			defs := bf.EndToEnd
			if trace {
				defs = bf.PerLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m := rep.Metrics[d.Name]
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s = %v %q, want a finite value in %q", w.name, trace, d.Name, m.Value, m.Unit, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if err := appendJSONLine(results, rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if code := compareFiles(bf, results, results, &out); code != 0 {
		t.Errorf("compare of a file with itself exits %d:\n%s", code, out.String())
	}
	for _, bad := range []string{"worse", "unresolved", "better", "INCORRECT"} {
		if strings.Contains(out.String(), bad) {
			t.Errorf("compare of a file with itself reports %q:\n%s", bad, out.String())
		}
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(xs, n=4), which is what the contract is judged by.
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 1, 7, 3, 9, 4, 8, 2, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}
