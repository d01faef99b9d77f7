// Package analysistest runs an internal/analysis/vet analyzer over golden
// fixture packages and checks its diagnostics against `// want` comment
// expectations, mirroring the x/tools analysistest contract: a fixture
// line that should trigger the analyzer carries
//
//	// want "regexp"
//
// (several quoted regexps if several diagnostics land on the line), and a
// clean fixture carries none. Fixtures live in the analyzer package's
// testdata/src/<path>/ directory, GOPATH-style.
package analysistest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"climber/internal/analysis/vet"
)

// TestData returns the analyzer package's testdata root, the conventional
// location Run loads fixture packages from.
func TestData() string {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return abs
}

// Run loads each fixture package from root/src/<path>, applies the
// analyzer, and reports any mismatch between its diagnostics and the
// fixtures' want comments as test errors.
func Run(t *testing.T, root string, a *vet.Analyzer, paths ...string) {
	t.Helper()
	pkgs, err := vet.LoadTestdata(root, paths)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := vet.RunAnalyzers(pkgs, []*vet.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*expectation)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fileWants, err := parseWants(pkg, f)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range fileWants {
				wants[k] = append(wants[k], v...)
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", a.Name, d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
					a.Name, k.file, k.line, w.re.String())
			}
		}
	}
}

// expectation is one want-comment regexp and whether a diagnostic matched it.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// wantRe pulls the quoted regexps off a want comment.
var wantRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func parseWants(pkg *vet.Package, f *ast.File) (map[struct {
	file string
	line int
}][]*expectation, error) {
	type key = struct {
		file string
		line int
	}
	out := make(map[key][]*expectation)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			k := key{pos.Filename, pos.Line}
			for _, q := range wantRe.FindAllString(text[len("want "):], -1) {
				pattern, err := strconv.Unquote(q)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
				}
				out[k] = append(out[k], &expectation{re: re})
			}
		}
	}
	return out, nil
}
