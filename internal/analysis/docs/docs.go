// Package docs holds the repository's documentation gates: every exported
// identifier of the packages listed in DocumentedPackages must carry a doc
// comment, and every relative link in the repository's markdown must
// resolve. The climber-vet multichecker runs both; this package's tests run
// them over the repository too, so a plain `go test ./...` fails on the same
// findings. Both gates are offline by design.
package docs

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"climber/internal/analysis/vet"
)

// DocumentedPackages are the import paths (exact, or prefix when ending in
// "/...") held to the exported-doc-comment rule: the serving-stack
// packages the rule was introduced for, plus the analysis suite itself.
var DocumentedPackages = []string{
	"climber/internal/shard",
	"climber/internal/api",
	"climber/internal/ingest",
	"climber/internal/pcache",
	"climber/internal/server",
	"climber/internal/core",
	"climber/internal/analysis/...",
}

// Analyzer is the doccomment check.
var Analyzer = &vet.Analyzer{
	Name: "doccomment",
	Doc:  "every exported identifier of the documented packages must carry a doc comment (offline equivalent of revive's exported rule)",
	Run:  run,
}

// covered reports whether the package path is held to the rule.
func covered(path string) bool {
	for _, p := range DocumentedPackages {
		if prefix, ok := strings.CutSuffix(p, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

func run(pass *vet.Pass) error {
	if !covered(pass.Pkg.Path()) {
		return nil
	}
	hasPkgDoc := false
	for _, file := range pass.Files {
		if file.Doc != nil {
			hasPkgDoc = true
		}
		checkFile(pass, file)
	}
	if !hasPkgDoc {
		pass.Reportf(pass.Files[0].Package, "package %s has no package-level doc comment", pass.Pkg.Name())
	}
	return nil
}

func checkFile(pass *vet.Pass, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil {
				rn := recvName(d.Recv)
				if !ast.IsExported(strings.TrimPrefix(rn, "*")) {
					continue // method on an unexported type
				}
				name = rn + "." + name
			}
			pass.Reportf(d.Pos(), "exported func %s has no doc comment", name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						pass.Reportf(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A group doc (// Query algorithm variants …) covers
					// its members; otherwise each exported name needs one.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							pass.Reportf(n.Pos(), "exported %s %s has no doc comment", d.Tok, n.Name)
						}
					}
				}
			}
		}
	}
}

func recvName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	switch e := recv.List[0].Type.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return "*" + id.Name
		}
	}
	return ""
}

// mdLink matches markdown inline links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// CheckMarkdownLinks checks every relative link in the repository's
// markdown files under root points at a file or directory that exists,
// returning one human-readable finding per broken link. External
// (http/https/mailto) links and pure anchors are skipped.
func CheckMarkdownLinks(root string) ([]string, error) {
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "node_modules", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(mdFiles) == 0 {
		return nil, fmt.Errorf("no markdown files found under %s — wrong repository root?", root)
	}
	var findings []string
	for _, md := range mdFiles {
		raw, err := os.ReadFile(md)
		if err != nil {
			return nil, err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			target = strings.Split(target, "#")[0] // strip anchors
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				relMd, relErr := filepath.Rel(root, md)
				if relErr != nil {
					relMd = md
				}
				findings = append(findings, fmt.Sprintf("%s: broken relative link %q", relMd, m[1]))
			}
		}
	}
	return findings, nil
}
