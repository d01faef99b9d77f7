package docs_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"climber/internal/analysis/analysistest"
	"climber/internal/analysis/docs"
	"climber/internal/analysis/vet"
)

// TestDoccomment runs the analyzer over one fixture package inside the
// covered climber/internal/analysis/... prefix and one outside it: the
// rule must fire only on the covered one.
func TestDoccomment(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), docs.Analyzer,
		"climber/internal/analysis/docstest", "uncovered")
}

// TestDoccommentValueSpec covers the undocumented var/const rule directly:
// a `// want` comment on the offending line would itself document the
// value, so this case cannot live in the golden fixtures.
func TestDoccommentValueSpec(t *testing.T) {
	pkgs, err := vet.LoadTestdata(analysistest.TestData(),
		[]string{"climber/internal/analysis/valuespec"})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := vet.RunAnalyzers(pkgs, []*vet.Analyzer{docs.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	for _, want := range []string{
		"exported var NoDoc has no doc comment",
		"exported const NoDocConst has no doc comment",
	} {
		found := false
		for _, m := range got {
			if m == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing diagnostic %q in %v", want, got)
		}
	}
	if len(got) != 2 {
		t.Errorf("got %d diagnostics %v, want exactly 2", len(got), got)
	}
}

func TestCheckMarkdownLinks(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, "sub", "doc.md"), "referenced")
	writeFile(t, filepath.Join(root, "README.md"),
		"[ok](sub/doc.md)\n[ext](https://example.com/x)\n[anchor](#section)\n[broken](missing.md)\n")

	findings, err := docs.CheckMarkdownLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "missing.md") {
		t.Fatalf("findings = %v, want exactly one naming missing.md", findings)
	}
}

func TestCheckMarkdownLinksEmptyTree(t *testing.T) {
	if _, err := docs.CheckMarkdownLinks(t.TempDir()); err == nil {
		t.Fatal("expected an error on a tree without markdown (wrong-root guard)")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// moduleDir is the repository root relative to this package.
const moduleDir = "../../.."

// TestRepoExportedDocComments keeps the doccomment gate inside a plain
// `go test ./...`: any exported top-level identifier — type, function,
// method, or var/const group member — without a doc comment in the packages
// docs.DocumentedPackages lists fails here, even when CI's lint job is
// skipped.
func TestRepoExportedDocComments(t *testing.T) {
	pkgs, err := vet.Load(moduleDir, docs.DocumentedPackages)
	if err != nil {
		t.Fatalf("loading documented packages: %v", err)
	}
	diags, err := vet.RunAnalyzers(pkgs, []*vet.Analyzer{docs.Analyzer})
	if err != nil {
		t.Fatalf("running doccomment: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestRepoMarkdownLinks checks every relative link in the repository's
// markdown files points at a file or directory that exists. External
// (http/https/mailto) links and pure anchors are skipped — the gate is
// offline by design.
func TestRepoMarkdownLinks(t *testing.T) {
	findings, err := docs.CheckMarkdownLinks(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
