// Package statsmerge checks that every registered stats merge/fold site
// handles every exported field of the stats struct it folds — the exact
// bug class PR 5 hit, where core.QueryStats grew Partial/StepsExecuted
// fields and the shard router's sumStats silently dropped them from merged
// answers.
//
// A fold site is a function marked //climber:statsmerge in its doc
// comment. The analyzer takes the function's first parameter (unwrapping
// slices and pointers) as the folded struct type and requires every
// exported field of that struct to be referenced — read or written — in
// the function body. Adding a field to the struct without folding it then
// breaks the build gate instead of shipping a silent zero.
//
// The analyzer also pins the registry itself: the packages listed in
// RequiredSites must each contain at least one marked fold site, so the
// invariant cannot vanish by deleting a marker during a refactor.
package statsmerge

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"climber/internal/analysis/vet"
)

// RequiredSites maps package import paths to the minimum number of
// //climber:statsmerge fold sites each must register: the scatter-gather
// fold in the shard router. (The public climber.Stats is an alias of
// core.QueryStats, so no conversion exists to drop a field.)
var RequiredSites = map[string]int{
	"climber/internal/shard": 1, // sumStats: per-shard climber.Stats → merged
}

// Analyzer is the statsmerge check.
var Analyzer = &vet.Analyzer{
	Name: "statsmerge",
	Doc:  "every exported field of a stats struct must be referenced at every //climber:statsmerge fold site, so new fields cannot be silently dropped from merged answers",
	Run:  run,
}

func run(pass *vet.Pass) error {
	marked := 0
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !vet.HasMarker(fn, "statsmerge") {
				continue
			}
			marked++
			checkFoldSite(pass, fn)
		}
	}
	if min := RequiredSites[pass.Pkg.Path()]; marked < min {
		pass.Reportf(pass.Files[0].Package,
			"package %s must register at least %d //climber:statsmerge fold site(s), found %d",
			pass.Pkg.Path(), min, marked)
	}
	return nil
}

func checkFoldSite(pass *vet.Pass, fn *ast.FuncDecl) {
	obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	params := obj.Type().(*types.Signature).Params()
	if params.Len() == 0 {
		pass.Reportf(fn.Pos(), "//climber:statsmerge function %s has no parameters to fold", fn.Name.Name)
		return
	}
	strct, named := foldedStruct(params.At(0).Type())
	if strct == nil {
		pass.Reportf(fn.Pos(), "//climber:statsmerge function %s: first parameter is not a named struct (or slice/pointer of one)", fn.Name.Name)
		return
	}

	want := make(map[string]bool)
	for i := 0; i < strct.NumFields(); i++ {
		if f := strct.Field(i); f.Exported() {
			want[f.Name()] = false
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		if _, tracked := want[field.Name()]; tracked && fieldOf(selection, strct) {
			want[field.Name()] = true
		}
		return true
	})

	var missing []string
	for name, seen := range want {
		if !seen {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(fn.Pos(), "fold site %s does not reference exported field(s) %s of %s: fold them or the merged stats silently drop them",
		fn.Name.Name, strings.Join(missing, ", "), typeName(named))
}

// foldedStruct unwraps slices and pointers around the parameter type and
// returns the underlying struct plus its named type.
func foldedStruct(t types.Type) (*types.Struct, *types.Named) {
	if sl, ok := t.Underlying().(*types.Slice); ok {
		t = sl.Elem()
	}
	named := vet.NamedType(t)
	if named == nil {
		return nil, nil
	}
	strct, _ := named.Underlying().(*types.Struct)
	return strct, named
}

// fieldOf reports whether the selection resolves to a field of the folded
// struct type (rather than an identically named field of something else).
func fieldOf(selection *types.Selection, strct *types.Struct) bool {
	recv := selection.Recv()
	got, _ := foldedStruct(recv)
	return got == strct
}

func typeName(named *types.Named) string {
	if named == nil {
		return "struct"
	}
	if pkg := named.Obj().Pkg(); pkg != nil {
		return fmt.Sprintf("%s.%s", pkg.Name(), named.Obj().Name())
	}
	return named.Obj().Name()
}
