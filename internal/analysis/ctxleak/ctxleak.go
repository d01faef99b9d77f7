// Package ctxleak checks that goroutines launched on a cancellable path
// can actually be cancelled: a goroutine started by a function that holds
// a context.Context must consult it — select on ctx.Done(), check
// ctx.Err(), pass ctx onward — or block on a channel its launcher closes
// or drains on cancel. A scatter/scan goroutine that does neither keeps
// scanning partitions after the client has gone away, which is exactly the
// leak class the ROADMAP's parallel build and hedged-routing work would
// multiply.
//
// The check is syntactic over one function: for each `go func(){…}()`
// launched where a context.Context is in scope (a parameter of the
// enclosing function or an enclosing literal), the goroutine body must
// contain either an expression of type context.Context or a channel
// receive (a select statement, a <-ch unary receive, or a range over a
// channel). Sends do not count — a send blocks forever once the receiver
// has returned. Calls to closures bound to local variables are followed
// one level deep: `go func(){ errs[i] = work(item) }()` is cancellable
// when work is a local closure whose own body checks ctx or receives from
// a channel — a fan-out whose per-item body is kept in a variable. A
// closure's closures are not followed. `go method()` statements without
// a literal body are out of scope. The escape hatch is
// //lint:ignore ctxleak <reason> on the go statement.
package ctxleak

import (
	"go/ast"
	"go/types"

	"climber/internal/analysis/vet"
)

// Analyzer is the ctxleak check.
var Analyzer = &vet.Analyzer{
	Name: "ctxleak",
	Doc:  "a goroutine launched where a ctx is in scope must select on ctx.Done()/check ctx, or receive from a channel, so cancellation reaches it",
	Run:  run,
}

func run(pass *vet.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			decl, ok := n.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				return true
			}
			walk(pass, decl.Body, funcHasCtx(pass, decl), localClosures(pass, decl.Body))
			return false
		})
	}
	return nil
}

// localClosures maps variables bound to function literals anywhere in the
// declaration (`scanStep := func(…){…}`), so a goroutine that delegates
// its work to a named closure can be credited with that closure's
// cancellation checks.
func localClosures(pass *vet.Pass, body ast.Node) map[*types.Var]*ast.FuncLit {
	out := make(map[*types.Var]*ast.FuncLit)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok {
			out[v] = lit
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Names {
				if i < len(n.Values) {
					bind(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// walk descends the body tracking whether a context is in scope, and
// checks every `go` statement with a literal body launched in ctx scope.
func walk(pass *vet.Pass, body ast.Node, ctxInScope bool, closures map[*types.Var]*ast.FuncLit) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			walk(pass, n.Body, ctxInScope || litHasCtx(pass, n), closures)
			return false
		case *ast.GoStmt:
			lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true // `go method()`: no body to inspect
			}
			scope := ctxInScope || litHasCtx(pass, lit) || callPassesCtx(pass, n.Call)
			if scope && !bodyConsultsCancel(pass, lit, closures, make(map[*ast.FuncLit]bool)) {
				pass.Reportf(n.Pos(), "goroutine launched with a ctx in scope neither consults the context nor receives from a channel: it cannot be cancelled")
			}
			walk(pass, lit.Body, scope, closures)
			return false
		}
		return true
	})
}

// bodyConsultsCancel reports whether the literal's body mentions a
// context.Context-typed expression, performs a channel receive, or calls a
// local closure that does.
func bodyConsultsCancel(pass *vet.Pass, lit *ast.FuncLit, closures map[*types.Var]*ast.FuncLit, visited map[*ast.FuncLit]bool) bool {
	if visited[lit] {
		return false
	}
	visited[lit] = true
	ok := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			ok = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				ok = true
			}
		case *ast.RangeStmt:
			if tv, found := pass.Info.Types[n.X]; found {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ok = true
				}
			}
		case *ast.CallExpr:
			if id, isIdent := ast.Unparen(n.Fun).(*ast.Ident); isIdent {
				if v, isVar := pass.Info.ObjectOf(id).(*types.Var); isVar {
					if target, bound := closures[v]; bound && bodyConsultsCancel(pass, target, closures, visited) {
						ok = true
					}
				}
			}
		case ast.Expr:
			if tv, found := pass.Info.Types[n]; found && vet.IsContextType(tv.Type) {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// callPassesCtx reports whether the go statement's call hands a context to
// the goroutine as an argument (the `go func(ctx context.Context){…}(ctx)`
// shape).
func callPassesCtx(pass *vet.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, found := pass.Info.Types[arg]; found && vet.IsContextType(tv.Type) {
			return true
		}
	}
	return false
}

func funcHasCtx(pass *vet.Pass, decl *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	return sigHasCtx(obj.Type().(*types.Signature))
}

func litHasCtx(pass *vet.Pass, lit *ast.FuncLit) bool {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return false
	}
	sig, ok := tv.Type.(*types.Signature)
	return ok && sigHasCtx(sig)
}

func sigHasCtx(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if vet.IsContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}
