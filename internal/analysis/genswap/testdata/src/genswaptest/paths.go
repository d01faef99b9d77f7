// Package genswaptest is the genswap golden fixture: generation file path
// literals minted by unblessed code, the //climber:genpath blessing, the
// lint:ignore escape hatch, and the shapes the analyzer must leave alone
// (parsing with Sscanf, unrelated literals, non-literal arguments).
package genswaptest

import (
	"fmt"
	"path/filepath"
)

// joinBad assembles the skeleton path ad hoc — the PR 9 hazard: this path
// would not retarget when the reindex swap publishes a new generation.
func joinBad(dir string) string {
	return filepath.Join(dir, "index.clms") // want "generation file path literal \"index.clms\" \\(.clms\\) minted outside a //climber:genpath helper"
}

// sprintfBad mints a partition file name outside the helpers.
func sprintfBad(i int) string {
	return fmt.Sprintf("base-part%05d.clmp", i) // want "generation file path literal \"base-part%05d.clmp\" \\(.clmp\\) minted outside a //climber:genpath helper"
}

// manifestBad touches the commit pointer by name.
func manifestBad(dir string) string {
	return filepath.Join(dir, "MANIFEST") // want "generation file path literal \"MANIFEST\" \\(MANIFEST\\) minted outside a //climber:genpath helper"
}

// genDirBad formats a generation directory name outside the helpers.
func genDirBad(n int) string {
	return fmt.Sprintf("gen-%04d", n) // want "generation file path literal \"gen-%04d\" \\(gen-\\) minted outside a //climber:genpath helper"
}

// indexPathIn is a blessed helper: the marker makes the literal legal.
//
//climber:genpath
func indexPathIn(genRoot string) string {
	return filepath.Join(genRoot, "index.clms")
}

// blessedNested inherits the blessing inside a function literal too.
//
//climber:genpath
func blessedNested(dirs []string) []string {
	out := make([]string, len(dirs))
	walk := func(i int, d string) { out[i] = filepath.Join(d, "wal.clmw") }
	for i, d := range dirs {
		walk(i, d)
	}
	return out
}

// ignored uses the per-site escape hatch with a reason.
func ignored(dir string) string {
	//lint:ignore genswap fixture exercises the escape hatch
	return filepath.Join(dir, "wal.clmw")
}

// parseGen reads a generation name back — parsing is out of scope, only
// minting is flagged.
func parseGen(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "gen-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// clean has nothing generation-scoped: unrelated literals, the dataset
// interchange file (no database directory ever holds a .clmb) and
// non-literal arguments stay silent.
func clean(dir, name string) string {
	tmp := filepath.Join(dir, "scratch.tmp", "rw.clmb")
	return filepath.Join(tmp, fmt.Sprintf("node%02d", 3), name)
}
