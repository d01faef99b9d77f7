// Package ctxflow checks that contexts thread end to end through the
// query/ingest path, the invariant PR 2 established by hand: a caller's
// cancellation must reach every partition scan and WAL wait beneath it.
//
// Three rules, from sharpest to broadest:
//
//  1. A function that receives a context.Context must pass it on: calling
//     a context-taking callee with a fresh context.Background()/TODO()
//     severs the caller's cancellation chain.
//  2. A function that receives a context must not call a context-less
//     variant of a callee when a <Name>Context sibling exists — that is
//     how a threaded context silently drops to Background.
//  3. Outside package main, context.Background()/context.TODO() may appear
//     only in a recognised convenience wrapper — a context-free method
//     whose Background call feeds a context-taking method of its own
//     receiver (the public no-context form of a context API, e.g.
//     Search → Query, Append → AppendContext) — or under an explicit //lint:ignore ctxflow allowlist comment stating
//     why the site is a legitimate root.
package ctxflow

import (
	"go/ast"
	"go/types"

	"climber/internal/analysis/vet"
)

// Analyzer is the ctxflow check.
var Analyzer = &vet.Analyzer{
	Name: "ctxflow",
	Doc:  "contexts must thread through the query/ingest path: no context.Background()/TODO() outside main and allowlisted roots, and a held ctx must reach every context-taking callee",
	Run:  run,
}

func run(pass *vet.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			decl, ok := n.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				return true
			}
			checkFunc(pass, decl)
			return false // checkFunc descends into nested literals itself
		})
	}
	return nil
}

// checkFunc applies the rules to one top-level function. Function literals
// inherit the context-in-scope state of their enclosing function: a
// closure inside SearchContext holds the caller's ctx even without a
// parameter of its own.
func checkFunc(pass *vet.Pass, decl *ast.FuncDecl) {
	hasCtx := declHasContextParam(pass, decl)
	var walk func(n ast.Node, inCtxScope bool)
	walk = func(n ast.Node, inCtxScope bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				scope := inCtxScope || vet.HasContextParam(pass.Info.Types[n].Type.(*types.Signature))
				walk(n.Body, scope)
				return false
			case *ast.CallExpr:
				checkCall(pass, decl, n, inCtxScope)
			}
			return true
		})
	}
	walk(decl.Body, hasCtx)
}

func checkCall(pass *vet.Pass, decl *ast.FuncDecl, call *ast.CallExpr, inCtxScope bool) {
	if isBackgroundOrTODO(pass, call) {
		checkFreshContext(pass, decl, call, inCtxScope)
		return
	}
	if inCtxScope {
		checkDroppedContextVariant(pass, call)
	}
}

// checkFreshContext handles rules 1 and 3 at a context.Background()/TODO()
// call site.
func checkFreshContext(pass *vet.Pass, decl *ast.FuncDecl, call *ast.CallExpr, inCtxScope bool) {
	name := calleeName(call)
	if inCtxScope {
		// Rule 1: the function already holds a context.
		pass.Reportf(call.Pos(), "context.%s() inside a function that receives a context.Context: pass the caller's ctx instead", name)
		return
	}
	if pass.Pkg.Name() == "main" {
		return // binaries and examples are legitimate context roots
	}
	if isConvenienceWrapper(pass, decl, call) {
		return // db.Search() → db.Query(context.Background(), …) root
	}
	// Rule 3: a fresh root in library code needs an explicit allowlist.
	pass.Reportf(call.Pos(), "context.%s() in library code: thread a caller context, or allowlist this root with //lint:ignore ctxflow <reason>", name)
}

// checkDroppedContextVariant is rule 2: flag x.F(…) when the enclosing
// function holds a ctx and x also offers FContext(ctx, …).
func checkDroppedContextVariant(pass *vet.Pass, call *ast.CallExpr) {
	callee := vet.CalleeFunc(pass.Info, call)
	if callee == nil || vet.HasContextParam(callee.Type().(*types.Signature)) {
		return
	}
	sibling := contextSibling(pass, callee)
	if sibling == nil {
		return
	}
	pass.Reportf(call.Pos(), "calling %s while holding a ctx: use %s so cancellation propagates", callee.Name(), sibling.Name())
}

// contextSibling finds a <Name>Context counterpart of fn — a method on the
// same receiver type or a function in the same package — whose first
// parameter is a context.Context.
func contextSibling(pass *vet.Pass, fn *types.Func) *types.Func {
	want := fn.Name() + "Context"
	sig := fn.Type().(*types.Signature)
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
	} else if fn.Pkg() != nil {
		obj = fn.Pkg().Scope().Lookup(want)
	}
	sib, ok := obj.(*types.Func)
	if !ok || !vet.HasContextParam(sib.Type().(*types.Signature)) {
		return nil
	}
	return sib
}

// isConvenienceWrapper reports whether the Background/TODO call is the
// context argument of a method call on the enclosing method's own
// receiver: inside func (t T) Name(…), a call t.Other(context.Background(),
// …) is the documented public no-context form of T's context API, not a
// threading break. A call on any other value — a parameter, a field — is
// a fresh root like any other.
func isConvenienceWrapper(pass *vet.Pass, decl *ast.FuncDecl, fresh *ast.CallExpr) bool {
	if decl.Recv == nil || len(decl.Recv.List) != 1 || len(decl.Recv.List[0].Names) != 1 {
		return false
	}
	recv := pass.Info.Defs[decl.Recv.List[0].Names[0]]
	if recv == nil {
		return false // blank receiver: nothing can be called on it
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		outer, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		for _, arg := range outer.Args {
			if ast.Unparen(arg) != fresh {
				continue
			}
			if sel, ok := outer.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && pass.Info.Uses[x] == recv {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isBackgroundOrTODO reports whether call is context.Background() or
// context.TODO().
func isBackgroundOrTODO(pass *vet.Pass, call *ast.CallExpr) bool {
	fn := vet.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// declHasContextParam reports whether the declaration's signature takes a
// context.Context anywhere in its parameter list.
func declHasContextParam(pass *vet.Pass, decl *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if vet.IsContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeName names the called context constructor for the message.
func calleeName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "Background"
}
