// Package genswap checks the path discipline the online-reindex subsystem
// depends on: every file that belongs to a generation — the skeleton
// (.clms), partition files (.clmp), the WAL (.clmw), the MANIFEST pointer,
// and gen-NNNN directories — must get its path from one of the blessed
// helpers (internal/core's IndexPathIn, GenDir, manifestPath, …;
// internal/cluster's PartitionPath), never from an ad-hoc
// filepath.Join/fmt.Sprintf at a call site. (A dataset interchange file,
// .clmb, is not one: no database directory ever holds it.)
//
// The invariant exists because the swap protocol and backup/restore both
// treat a generation directory as a relocatable unit: a path assembled
// outside the helpers is a path the reindex swap will not retarget and the
// backup hard-linker will not copy — a silent split-brain between
// generations. The analyzer flags any string literal containing a
// generation file marker (".clms", ".clmw", ".clmp", "MANIFEST", "gen-")
// passed to filepath.Join or used as a fmt.Sprintf format, unless the
// enclosing function is itself a blessed helper, marked
//
//	//climber:genpath
//
// in its doc comment. Parsing sites (fmt.Sscanf of "gen-%d") are out of
// scope: reading a name back is safe, minting one is not. The per-site
// escape hatch is //lint:ignore genswap <reason>.
package genswap

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"

	"climber/internal/analysis/vet"
)

// Analyzer is the genswap check.
var Analyzer = &vet.Analyzer{
	Name: "genswap",
	Doc:  "generation file paths (.clms/.clmw/.clmp, MANIFEST, gen-*) are minted only by //climber:genpath helpers, so reindex swap and backup relocate every file",
	Run:  run,
}

// markers are the substrings that identify a generation-scoped file name.
var markers = []string{".clms", ".clmw", ".clmp", "MANIFEST", "gen-"}

func run(pass *vet.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && vet.HasMarker(fd, "genpath") {
				// A blessed helper is the one place these literals belong;
				// function literals nested inside inherit the blessing.
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkCall(pass, call)
				}
				return true
			})
		}
	}
	return nil
}

// checkCall flags generation-file literals handed to the two path-minting
// calls the repository uses: filepath.Join (any string-literal element) and
// fmt.Sprintf (the format literal).
func checkCall(pass *vet.Pass, call *ast.CallExpr) {
	fn := vet.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	var candidates []ast.Expr
	switch {
	case fn.Pkg().Path() == "path/filepath" && fn.Name() == "Join":
		candidates = call.Args
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf":
		if len(call.Args) > 0 {
			candidates = call.Args[:1]
		}
	default:
		return
	}
	for _, arg := range candidates {
		lit, ok := ast.Unparen(arg).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			continue
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			continue
		}
		for _, m := range markers {
			if strings.Contains(s, m) {
				pass.Reportf(lit.Pos(),
					"generation file path literal %q (%s) minted outside a //climber:genpath helper: use the internal/core path helpers so reindex swap and backup relocate the file",
					s, m)
				break
			}
		}
	}
}
