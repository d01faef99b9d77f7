package experiments

import (
	"strings"
	"testing"
)

// tinyScale keeps runner smoke tests fast; real measurements come from the
// CLI harness and benchmarks at the preset scales.
func tinyScale() Scale {
	return Scale{
		Name:     "tiny",
		BaseSize: 3000,
		Sizes:    []int{1000, 2000},
		K:        20,
		Queries:  3,
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every artefact of the paper's evaluation must have a runner, plus the
	// ablations the package calls out.
	want := []string{"fig7a", "fig7b", "fig7cd", "fig8ab", "fig8cd",
		"fig9", "fig10", "fig11a", "fig11b", "fig12", "table1",
		"abl-decay", "abl-dual", "abl-sampling", "landscape", "budget"}
	reg := Registry()
	for _, id := range want {
		if reg[id] == nil {
			t.Errorf("missing runner for %s", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry holds %d runners, want %d", len(reg), len(want))
	}
	if len(IDs()) != len(want) {
		t.Errorf("IDs() returned %d ids", len(IDs()))
	}
}

func TestScalePresets(t *testing.T) {
	for name, s := range Scales() {
		if s.BaseSize <= 0 || s.K <= 0 || s.Queries <= 0 || len(s.Sizes) == 0 {
			t.Errorf("preset %s incomplete: %+v", name, s)
		}
		if s.Capacity(s.BaseSize) <= 0 {
			t.Errorf("preset %s capacity not positive", name)
		}
		// Presets must supply enough sample records for the default 200
		// pivots (the clamp must not silently distort preset runs).
		if int(float64(s.BaseSize)*0.1/2) < 200 && name != "small" {
			t.Errorf("preset %s base size %d cannot supply 200 pivots", name, s.BaseSize)
		}
	}
}

// runnerSmoke executes a runner at tiny scale and sanity-checks the output.
func runnerSmoke(t *testing.T, id string) string {
	t.Helper()
	var sb strings.Builder
	if err := Registry()[id](tinyScale(), t.TempDir(), &sb); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := sb.String()
	if !strings.Contains(out, "##") || len(strings.Split(out, "\n")) < 4 {
		t.Fatalf("%s produced no table:\n%s", id, out)
	}
	return out
}

func TestFig7aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "fig7a")
	for _, sys := range fig7Systems {
		if !strings.Contains(out, sys) {
			t.Errorf("fig7a output missing system %s", sys)
		}
	}
}

func TestFig7bSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "fig7b")
	if !strings.Contains(out, "randomwalk") || !strings.Contains(out, "dna") {
		t.Errorf("fig7b output missing datasets:\n%s", out)
	}
}

func TestFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "fig8ab")
	if !strings.Contains(out, "8(a)") || !strings.Contains(out, "8(b)") {
		t.Errorf("fig8ab output incomplete:\n%s", out)
	}
}

func TestFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "fig9")
	if !strings.Contains(out, "CLIMBER-Adaptive-4X") || !strings.Contains(out, "K=") {
		t.Errorf("fig9 output incomplete:\n%s", out)
	}
}

func TestFig11aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "fig11a")
	if !strings.Contains(out, "10m") {
		t.Errorf("fig11a output missing K multiples:\n%s", out)
	}
}

func TestFig11bSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "fig11b")
	if !strings.Contains(out, "OD-Smallest") {
		t.Errorf("fig11b output incomplete:\n%s", out)
	}
}

func TestFig12Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "fig12")
	if !strings.Contains(out, "recall-x") {
		t.Errorf("fig12 output incomplete:\n%s", out)
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "table1")
	if !strings.Contains(out, "I.C.T") || !strings.Contains(out, "X") {
		t.Errorf("table1 output missing metrics or X cells:\n%s", out)
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	for _, id := range []string{"abl-decay", "abl-dual", "abl-sampling"} {
		out := runnerSmoke(t, id)
		if !strings.Contains(out, "Ablation") {
			t.Errorf("%s output missing caption:\n%s", id, out)
		}
	}
}

func TestBudgetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke tests are slow")
	}
	out := runnerSmoke(t, "budget")
	for _, want := range []string{"unbounded", "max-partitions=1", "time=",
		"Progressive convergence"} {
		if !strings.Contains(out, want) {
			t.Errorf("budget output missing %q:\n%s", want, out)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Caption: "demo", Header: []string{"a", "bb"}}
	tab.Add(1, 2.5)
	tab.Add("xx", "y")
	var sb strings.Builder
	if err := tab.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "2.500") {
		t.Fatalf("table formatting broken:\n%s", out)
	}
}
