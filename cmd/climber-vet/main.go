// Command climber-vet is the repository's invariant multichecker: it runs
// every analyzer under internal/analysis — lockio, syncack, doccomment —
// over the given package patterns, plus the repository-level markdown link
// gate, and exits non-zero on any finding. CI runs it in the lint job; locally:
//
//	go run ./cmd/climber-vet ./...
//
// Each analyzer encodes an invariant a past PR broke and hand-fixed; see
// the "Invariants" section of ARCHITECTURE.md for the catalogue. Findings
// print as file:line:col: analyzer: message. A deliberate exception is
// annotated in the source with //lint:ignore <analyzer> <reason>.
// -nomd skips the markdown gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"climber/internal/analysis/docs"
	"climber/internal/analysis/lockio"
	"climber/internal/analysis/syncack"
	"climber/internal/analysis/vet"
)

func analyzers() []*vet.Analyzer {
	return []*vet.Analyzer{
		lockio.Analyzer,
		syncack.Analyzer,
		docs.Analyzer,
	}
}

func main() {
	noMd := flag.Bool("nomd", false, "skip the repository markdown link gate")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: climber-vet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := runSuite(patterns, *noMd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "climber-vet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "climber-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func runSuite(patterns []string, noMd bool) ([]string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	pkgs, err := vet.Load(cwd, patterns)
	if err != nil {
		return nil, err
	}

	diags, err := vet.RunAnalyzers(pkgs, analyzers())
	if err != nil {
		return nil, err
	}
	findings := make([]string, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, d.String())
	}

	if !noMd {
		root, err := moduleRoot(cwd)
		if err != nil {
			return nil, err
		}
		md, err := docs.CheckMarkdownLinks(root)
		if err != nil {
			return nil, err
		}
		for _, f := range md {
			findings = append(findings, f+" (mdlinks)")
		}
	}
	return findings, nil
}

// moduleRoot resolves the main module's directory, the base for the
// markdown gate.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("resolving module root: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}
