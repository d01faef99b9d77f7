package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// readResults loads a results file: one report per line, as -out writes.
func readResults(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// runKey is what two result sets must share to be comparable at all.
type runKey struct {
	Fingerprint fingerprint
	N           int
	Seconds     float64
}

// group collects the end-to-end runs of one file by workload and returns
// the file's key; a file mixing keys is refused.
func group(path string, rs []report) (runKey, map[string][]report, error) {
	var key runKey
	by := map[string][]report{}
	first := true
	for _, r := range rs {
		if r.Trace {
			continue // per-layer runs carry no gated metric
		}
		k := runKey{r.Fingerprint, r.N, r.Seconds}
		if first {
			key, first = k, false
		} else if k != key {
			return key, nil, fmt.Errorf("%s mixes runs of different fingerprint, n or seconds", path)
		}
		by[r.Workload] = append(by[r.Workload], r)
	}
	if first {
		return key, nil, fmt.Errorf("%s holds no --trace 0 runs", path)
	}
	return key, by, nil
}

// seedsOf lists the runs' seeds in ascending order.
func seedsOf(rs []report) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Seed
	}
	slices.Sort(out)
	return out
}

// compareFiles prints one row per workload x end-to-end metric and returns
// the exit code: 1 if any row is "worse" or any run was incorrect, 2 if
// the files cannot be compared, else 0. The rule is the contract's: the
// new median may not be worse than the old by more than the metric's
// bound; a row that is not worse but whose own spread (interquartile range
// over the median, in either file) exceeds the bound is "unresolved",
// neither "within bound" nor "better".
func compareFiles(bf *benchmarkFile, oldPath, newPath string, w io.Writer) int {
	refuse := func(err error) int {
		fmt.Fprintln(w, "cannot compare:", err)
		return 2
	}
	oldRuns, err := readResults(oldPath)
	if err != nil {
		return refuse(err)
	}
	newRuns, err := readResults(newPath)
	if err != nil {
		return refuse(err)
	}
	oldKey, oldBy, err := group(oldPath, oldRuns)
	if err != nil {
		return refuse(err)
	}
	newKey, newBy, err := group(newPath, newRuns)
	if err != nil {
		return refuse(err)
	}
	if oldKey != newKey {
		return refuse(fmt.Errorf("fingerprint, n or seconds differ:\n  old %+v\n  new %+v", oldKey, newKey))
	}

	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tchange\tspread old/new\tbound\tverdict")
	for _, wl := range bf.Workloads {
		o, n := oldBy[wl.Name], newBy[wl.Name]
		if len(o) == 0 && len(n) == 0 {
			continue
		}
		if oldSeeds, newSeeds := seedsOf(o), seedsOf(n); !slices.Equal(oldSeeds, newSeeds) {
			tw.Flush()
			return refuse(fmt.Errorf("%s: seeds differ: old %v, new %v", wl.Name, oldSeeds, newSeeds))
		}
		for _, r := range append(append([]report(nil), o...), n...) {
			if !r.Correct {
				fmt.Fprintf(tw, "%s\t(seed %d)\t\t\t\t\t\tINCORRECT: %v\n", wl.Name, r.Seed, r.Problems)
				code = 1
			}
		}
		for _, def := range bf.EndToEnd {
			ov, nv := values(o, def.Name), values(n, def.Name)
			om, nm := median(ov), median(nv)
			// worse is the relative change in the bad direction.
			worse := ratio(nm-om, om)
			if def.Better == "higher" {
				worse = -worse
			}
			so, sn := spread(ov), spread(nv)
			verdict := "within bound"
			switch {
			case worse > def.Bound:
				verdict = "worse"
				code = 1
			case so > def.Bound || sn > def.Bound:
				verdict = "unresolved"
			case worse < -def.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%% / %.2f%%\t%.0f%%\t%s\n",
				wl.Name, def.Name, om, nm, 100*ratio(nm-om, om), 100*so, 100*sn, 100*def.Bound, verdict)
		}
	}
	tw.Flush()
	return code
}

func values(rs []report, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median; 0 with fewer than two runs.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}
