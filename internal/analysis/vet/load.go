package vet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("climber/internal/ingest").
	Path string
	// Dir is the directory holding the sources.
	Dir string
	// GoFiles are the absolute paths of the parsed files.
	GoFiles []string
	// Fset, Files, Pkg, Info are the parse and type-check products shared
	// by every analyzer pass over this package.
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Deps are the import paths of all transitive dependencies.
	Deps []string
	// ExportFile is the build-cache export data for this package ("" for
	// testdata packages, which are only ever type-checked from source).
	ExportFile string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Deps       []string
	Error      *struct{ Err string }
}

// Load resolves the package patterns (as `go list` would, from dir),
// parses every matched non-standard package, and type-checks it against
// the export data `go list -export` materialised for its dependencies.
// The whole pipeline is offline: it reads only the module tree and the Go
// build cache.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Deps,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg, err := checkPackage(fset, t.ImportPath, t.Dir, absFiles(t.Dir, t.GoFiles), imp)
		if err != nil {
			return nil, err
		}
		pkg.Deps = t.Deps
		pkg.ExportFile = t.Export
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadTestdata loads the named packages from a GOPATH-style testdata tree
// (root/src/<path>/*.go), the layout x/tools analysistest uses. Their
// imports resolve through `go list -export` as in Load.
func LoadTestdata(root string, paths []string) ([]*Package, error) {
	// Collect every package's imports first so one `go list` call
	// materialises every export file needed.
	external := make(map[string]bool)
	srcs := make(map[string][]string) // testdata path -> files
	for _, path := range paths {
		dir := filepath.Join(root, "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("testdata package %s: %w", path, err)
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("testdata package %s: no Go files in %s", path, dir)
		}
		sort.Strings(files)
		srcs[path] = files
		for _, f := range files {
			syntax, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, spec := range syntax.Imports {
				external[strings.Trim(spec.Path.Value, `"`)] = true
			}
		}
	}

	exports := make(map[string]string)
	if len(external) > 0 {
		args := append([]string{
			"list", "-export", "-deps", "-json=ImportPath,Export",
		}, sortedKeys(external)...)
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list (testdata imports): %v\n%s", err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listPkg
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := checkPackage(fset, p, filepath.Join(root, "src", filepath.FromSlash(p)), srcs[p], imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses files and type-checks them as one package.
func checkPackage(fset *token.FileSet, path, dir string, files []string, imp types.Importer) (*Package, error) {
	asts := make([]*ast.File, 0, len(files))
	for _, f := range files {
		syntax, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, syntax)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return &Package{
		Path:    path,
		Dir:     dir,
		GoFiles: files,
		Fset:    fset,
		Files:   asts,
		Pkg:     tpkg,
		Info:    info,
	}, nil
}

// exportImporter returns an importer that resolves import paths through
// the export files go list reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
