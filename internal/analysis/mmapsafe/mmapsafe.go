// Package mmapsafe checks the lifetime discipline of the zero-copy scan
// path: the raw record slice a partition scan callback receives
// (storage.Partition.ScanClusterRaw and friends) may alias a memory-mapped
// file, and the mapping is torn down when the partition's last reference is
// released. A callback that retains the slice — stores it in a struct field
// or global, appends it to a slice that outlives the callback, or smuggles
// it out through a captured variable — holds a pointer into memory that
// munmap will pull out from under it: a delayed, data-dependent SIGSEGV the
// race detector cannot see.
//
// The analyzer inspects every function whose shape is a raw scan callback —
// func(id int, rec []byte) error, or the run callback
// func(recs, sums []byte) error of storage.Partition.ScanClusterRuns, whose
// record and summary bytes alias the mapping alike — and flags any statement
// that lets rec (or a sub-slice of it; in a run callback, either slice)
// escape the callback: assignment to a field, index,
// dereference, or a variable declared outside the callback; aliasing append
// (append(list, rec) — append(buf, rec...) copies bytes and is fine); and
// rec inside a composite literal. Copying bytes out (copy, append ...,
// passing rec to a kernel that consumes it in place) is the supported
// idiom.
//
// The same callbacks may not reinterpret rec through package unsafe
// (unsafe.Pointer(&rec[0]), unsafe.SliceData(rec), unsafe.Slice(...)): a
// typed view — a []float32 over the record bytes, say — aliases the mapping
// just as rec does, but none of the escape rules above can follow it. Only
// internal/series, whose scan kernel builds such a view and drops it before
// returning, is allowed to; every other package hands rec to a series
// kernel.
//
// Helpers that legitimately need to look like they retain — none exist
// today; the blessing is for future scan infrastructure — carry
//
//	//climber:mmapscan
//
// in their doc comment, which exempts the declaration and every function
// literal inside it. The per-site escape hatch is
// //lint:ignore mmapsafe <reason>.
package mmapsafe

import (
	"go/ast"
	"go/types"
	"strings"

	"climber/internal/analysis/vet"
)

// Analyzer is the mmapsafe check.
var Analyzer = &vet.Analyzer{
	Name: "mmapsafe",
	Doc:  "raw scan-callback record slices (func(id int, rec []byte) error) must not outlive the callback: no stores to fields/globals/captured variables, no aliasing append, no unsafe reinterpretation outside internal/series — mapped partition bytes die with the partition reference",
	Run:  run,
}

func run(pass *vet.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if vet.HasMarker(fd, "mmapscan") {
				continue
			}
			// The declaration itself may be a raw scan callback.
			if fd.Body != nil && isRawCallbackType(pass.Info.Defs[fd.Name]) && fd.Recv == nil {
				checkConsumer(pass, fd.Type, fd.Body)
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				fl, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				if tv, ok := pass.Info.Types[fl]; ok && isRawCallbackSig(tv.Type) {
					checkConsumer(pass, fl.Type, fl.Body)
				}
				return true
			})
		}
	}
	return nil
}

// isRawCallbackType reports whether obj is a function of raw-callback shape.
func isRawCallbackType(obj types.Object) bool {
	if obj == nil {
		return false
	}
	return isRawCallbackSig(obj.Type())
}

// isRawCallbackSig matches the raw scan callback shapes: func(int, []byte)
// error — the contract of ScanClusterRaw/ScanClustersRaw — and
// func([]byte, []byte) error, the run callback of ScanClusterRuns.
func isRawCallbackSig(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	p0 := sig.Params().At(0).Type()
	if b, ok := p0.Underlying().(*types.Basic); !(ok && b.Kind() == types.Int) && !isByteSlice(p0) {
		return false
	}
	if !isByteSlice(sig.Params().At(1).Type()) {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isByteSlice reports whether t is a []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkConsumer walks one raw-callback body looking for statements that let
// the rec parameter escape.
func checkConsumer(pass *vet.Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	// Taint every named []byte parameter; an unnamed or blank one cannot be
	// retained.
	tainted := map[types.Object]bool{}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			if obj := pass.Info.Defs[name]; obj != nil && name.Name != "_" && isByteSlice(obj.Type()) {
				tainted[obj] = true
			}
		}
	}
	if len(tainted) == 0 {
		return
	}

	aliases := func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				obj := pass.Info.Uses[x]
				return obj != nil && tainted[obj]
			case *ast.SliceExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
	}
	// pointsInto reports whether e is rec, an alias, or the address of one
	// of its bytes — the operands an unsafe reinterpretation starts from.
	pointsInto := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = ast.Unparen(u.X)
		}
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ix.X
		}
		return aliases(e)
	}
	mayReinterpret := strings.HasSuffix(pass.Pkg.Path(), "internal/series")

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if len(st.Lhs) != len(st.Rhs) || !aliases(rhs) {
					continue
				}
				switch lhs := ast.Unparen(st.Lhs[i]).(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						continue
					}
					obj := pass.Info.Defs[lhs]
					if obj == nil {
						obj = pass.Info.Uses[lhs]
					}
					if local(obj) {
						tainted[obj] = true // local alias: keep tracking it
						continue
					}
					pass.Reportf(rhs.Pos(),
						"raw scan record slice stored in variable %q declared outside the callback: the bytes may be unmapped after the scan returns — copy them instead", lhs.Name)
				default:
					pass.Reportf(rhs.Pos(),
						"raw scan record slice stored outside the callback frame: the bytes may be unmapped after the scan returns — copy them instead")
				}
			}
		case *ast.ValueSpec: // var x = rec inside the body: local alias
			for i, v := range st.Values {
				if aliases(v) && i < len(st.Names) {
					if obj := pass.Info.Defs[st.Names[i]]; obj != nil {
						tainted[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok && !mayReinterpret {
				if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() == types.Unsafe {
					for _, arg := range st.Args {
						if pointsInto(arg) {
							pass.Reportf(arg.Pos(),
								"raw scan record slice reinterpreted through unsafe.%s: a typed view of mapped bytes can outlive the mapping unseen — only internal/series may do this, pass rec to one of its kernels instead", sel.Sel.Name)
						}
					}
				}
			}
			id, ok := ast.Unparen(st.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				break
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				// Builtin append: appending rec as an element ([][]byte)
				// retains the alias; append(buf, rec...) copies bytes.
				for i, arg := range st.Args {
					if i == 0 || !aliases(arg) {
						continue
					}
					if st.Ellipsis.IsValid() && i == len(st.Args)-1 {
						continue
					}
					pass.Reportf(arg.Pos(),
						"raw scan record slice appended by reference: the retained bytes may be unmapped after the scan returns — append a copy instead")
				}
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if aliases(v) {
					pass.Reportf(v.Pos(),
						"raw scan record slice embedded in a composite literal: the retained bytes may be unmapped after the scan returns — copy them instead")
				}
			}
		}
		return true
	})
}
