// Package vet is the repository's static-analysis framework: a small,
// dependency-free re-creation of the golang.org/x/tools/go/analysis model
// (Analyzer, Pass, Diagnostic) built directly on go/ast and go/types, plus
// a package loader that type-checks the module offline via the export data
// `go list -export` materialises in the build cache.
//
// The framework exists because two of the repository's invariants — fsync
// before ack, no I/O under a mutex — show in no test: a killed process
// keeps the page cache, and I/O under a mutex shows only as latency. The
// analyzers under internal/analysis/... encode them, with the doc-comment
// rule; cmd/climber-vet is the multichecker that runs the suite, and CI
// fails on any finding. Invariants a test can observe are tests instead
// (ARCHITECTURE.md, "Invariants").
//
// Two comment directives tie the source to the analyzers:
//
//	//lint:ignore <analyzer> <reason>
//	    suppresses that analyzer's diagnostics on the same or the next
//	    line — the explicit, reviewable escape hatch for allowlisted sites.
//	//climber:ack
//	    in a function's doc comment, marks an ack path for syncack: every
//	    successful return must be dominated by a Sync.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors the x/tools
// analysis.Analyzer surface the suite would use if the dependency were
// available: a unique name (also the //lint:ignore key), a doc string, and
// a Run function invoked once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in output lines and ignore directives.
	Name string
	// Doc is the one-paragraph description printed by climber-vet -help.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files back to file/line/column.
	Fset *token.FileSet
	// Files is the package's parsed syntax (non-test files).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's facts for Files.
	Info *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that produced it.
	Analyzer string
	// Message states the violated invariant at this site.
	Message string
}

// String formats the diagnostic the way climber-vet prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies every analyzer to every package, filters the
// findings through the packages' //lint:ignore directives, and returns the
// survivors sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		ignores := ignoreIndex(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if ignores.suppressed(d) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreDirectives maps file → line → analyzer names ignored at that line.
type ignoreDirectives map[string]map[int][]string

func ignoreIndex(pkg *Package) ignoreDirectives {
	idx := make(ignoreDirectives)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 3 {
					continue // lint:ignore requires an analyzer and a reason
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], fields[1])
			}
		}
	}
	return idx
}

// suppressed reports whether a //lint:ignore directive for the
// diagnostic's analyzer sits on the same line or the line above it.
func (idx ignoreDirectives) suppressed(d Diagnostic) bool {
	byLine := idx[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// HasMarker reports whether the function declaration's doc comment carries
// the given //climber:<marker> directive line.
func HasMarker(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	want := "//climber:" + marker
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// NamedType unwraps pointers and aliases and returns the named type behind
// t, or nil.
func NamedType(t types.Type) *types.Named {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// IsNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	named := NamedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for calls of function values,
// builtins, and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
