// Package eachretain checks the cursor-reuse contract of the iteration
// API: a callback passed to a `propview:no-retain` function
// (Relation.Each and the frozen-store walk behind it) receives
// values whose backing storage the iterator may reuse or that alias
// internal state, so the callback must not let a yielded value escape
// the call — no appending it to an outer slice, no assigning it to an
// outer variable or field, no sending it on a channel. Escaping a copy
// is fine: `append(out, t.Clone())` or the spread-copy
// `append(Tuple(nil), t...)` both pass; `append(out, t)` does not.
//
// The no-retain property crosses package boundaries as a fact, so engine
// code iterating a relation is checked against the same contract.
package eachretain

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/markers"
)

// NoRetainFact marks a function whose callback arguments must not retain
// the values yielded to them.
type NoRetainFact struct{}

func (*NoRetainFact) AFact() {}

// Analyzer is the eachretain analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "eachretain",
	Doc:       "checks that callbacks passed to propview:no-retain iterators do not let yielded values escape uncopied (see internal/analysis)",
	FactTypes: []analysis.Fact{(*NoRetainFact)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	noRetain := make(map[*types.Func]bool)
	for obj, info := range markers.Funcs(pass) {
		if info.NoRetain {
			noRetain[obj] = true
			pass.ExportObjectFact(obj, &NoRetainFact{})
		}
	}
	isNoRetain := func(fn *types.Func) bool {
		if fn == nil {
			return false
		}
		if noRetain[fn] {
			return true
		}
		return fn.Pkg() != nil && fn.Pkg() != pass.Pkg &&
			pass.ImportObjectFact(fn, &NoRetainFact{})
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isNoRetain(callee(pass.TypesInfo, call)) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := analysis.Unparen(arg).(*ast.FuncLit); ok {
					checkCallback(pass, lit)
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkCallback flags escapes of lit's reference-typed parameters to
// outside the literal.
func checkCallback(pass *analysis.Pass, lit *ast.FuncLit) {
	params := make(map[types.Object]bool)
	for _, field := range lit.Type.Params.List {
		for _, id := range field.Names {
			if obj := pass.TypesInfo.Defs[id]; obj != nil && referenceType(obj.Type()) {
				params[obj] = true
			}
		}
	}
	if len(params) == 0 {
		return
	}
	isParam := func(e ast.Expr) types.Object {
		if id, ok := analysis.Unparen(e).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; params[obj] {
				return obj
			}
		}
		return nil
	}
	// outer reports whether the expression's base object lives outside the
	// literal (position test: declared outside [lit.Pos, lit.End)).
	var outer func(e ast.Expr) bool
	outer = func(e ast.Expr) bool {
		switch e := analysis.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = pass.TypesInfo.Defs[e]
			}
			if obj == nil || obj.Pos() == 0 {
				return true // package-level or imported: outside
			}
			return obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()
		case *ast.SelectorExpr:
			return outer(e.X)
		case *ast.IndexExpr:
			return outer(e.X)
		case *ast.StarExpr:
			return outer(e.X)
		}
		return false
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				obj := isParam(r)
				if obj == nil || i >= len(n.Lhs) {
					continue
				}
				l := n.Lhs[i]
				if id, ok := analysis.Unparen(l).(*ast.Ident); ok {
					target := pass.TypesInfo.Uses[id]
					if target == nil {
						target = pass.TypesInfo.Defs[id]
					}
					if target != nil && !outer(l) {
						continue // rebinding to a local of the callback is fine
					}
				}
				if outer(l) || isOuterLvalue(l, outer) {
					pass.Reportf(r.Pos(), "yielded value %s escapes the no-retain callback via assignment to %s; copy it first (see internal/analysis)",
						obj.Name(), types.ExprString(l))
				}
			}
			// append(outer, param) assigned anywhere still retains the
			// param's backing array; catch it via the call below.
		case *ast.CallExpr:
			if isBuiltinAppend(pass.TypesInfo, n) {
				for i, arg := range n.Args[1:] {
					if n.Ellipsis.IsValid() && i == len(n.Args)-2 {
						continue // append(dst, t...) copies the elements out
					}
					if obj := isParam(arg); obj != nil {
						pass.Reportf(arg.Pos(), "yielded value %s is appended uncopied inside a no-retain callback; append a copy instead (see internal/analysis)",
							obj.Name())
					}
				}
			}
		case *ast.SendStmt:
			if obj := isParam(n.Value); obj != nil {
				pass.Reportf(n.Value.Pos(), "yielded value %s is sent on a channel from a no-retain callback; send a copy instead (see internal/analysis)",
					obj.Name())
			}
		}
		return true
	})
}

// isOuterLvalue reports whether l stores into memory reachable from
// outside the callback: an element or field of an outer base.
func isOuterLvalue(l ast.Expr, outer func(ast.Expr) bool) bool {
	switch l := analysis.Unparen(l).(type) {
	case *ast.IndexExpr:
		return outer(l.X)
	case *ast.SelectorExpr:
		return outer(l.X)
	case *ast.StarExpr:
		return outer(l.X)
	}
	return false
}

func referenceType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface:
		return true
	}
	return false
}

func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := analysis.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
