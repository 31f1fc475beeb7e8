// Package genmonotonic checks that generation counters only move forward
// and only from commit paths. A field annotated `propview:generation`
// (Engine.sgen, prepared.gen, Database.version) is the
// repo's ordering spine: readers compare generations to decide staleness,
// so a counter that jumps backwards or is bumped outside the publish path
// breaks snapshot validation silently.
//
// Rules (see the internal/analysis package doc):
//
//   - x.gen.Add(c) with a non-negative constant c is allowed anywhere —
//     an atomic non-negative Add cannot regress the counter.
//   - Store/Swap/CompareAndSwap on an atomic generation field, and plain
//     writes (=, ++, +=) to a non-atomic one, are allowed only inside a
//     function marked `propview:publish`, and a plain write must be
//     increment or carry-forward: the new value derives from reading a
//     generation field.
//   - a composite literal may initialize a generation field to a
//     constant (fresh object) anywhere, or carry a generation forward
//     (`version: db.version + 1`) inside a publish function.
package genmonotonic

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/markers"
)

// Analyzer is the genmonotonic analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "genmonotonic",
	Doc:  "checks that propview:generation counters are written only by propview:publish paths, monotonically (see internal/analysis)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	gens := markers.GenerationFields(pass)
	if len(gens) == 0 {
		return nil, nil
	}
	st := &state{pass: pass, gens: gens, publish: make(map[*types.Func]bool)}
	for obj, info := range markers.Funcs(pass) {
		if info.Publish {
			st.publish[obj] = true
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			st.checkFunc(fd, obj != nil && st.publish[obj])
		}
	}
	return nil, nil
}

type state struct {
	pass    *analysis.Pass
	gens    map[*types.Var]token.Pos
	publish map[*types.Func]bool
}

// genField returns the generation field a selector resolves to, or nil.
func (st *state) genField(e ast.Expr) *types.Var {
	sel, ok := analysis.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, _ := st.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if v != nil {
		if _, ok := st.gens[v]; ok {
			return v
		}
	}
	return nil
}

// genDerived reports whether evaluating e reads a generation field
// (directly, via .Load(), or through a local the function derived from
// one — see localTaints): the carry-forward test for a new generation
// value.
func (st *state) genDerived(e ast.Expr, taint map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if taint[st.pass.TypesInfo.Uses[n]] {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			if st.genField(n) != nil {
				found = true
				return false
			}
			// x.gen.Load(): the field selector is the receiver of the call.
			if v, ok := st.pass.TypesInfo.Uses[n.Sel].(*types.Func); ok && v != nil {
				if inner, ok := analysis.Unparen(n.X).(*ast.SelectorExpr); ok && st.genField(inner) != nil {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// localTaints collects locals bound to generation-derived values (e.g.
// `v := db.version`), one sequential pass in source order; a local that
// carries a generation may itself initialize a generation field.
func (st *state) localTaints(fd *ast.FuncDecl) map[types.Object]bool {
	taint := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		a, ok := n.(*ast.AssignStmt)
		if !ok || len(a.Lhs) != len(a.Rhs) {
			return true
		}
		for i, l := range a.Lhs {
			id, ok := analysis.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			obj := st.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = st.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if st.genDerived(a.Rhs[i], taint) {
				taint[obj] = true
			} else if a.Tok == token.ASSIGN || a.Tok == token.DEFINE {
				delete(taint, obj) // rebound to something else
			}
		}
		return true
	})
	return taint
}

func (st *state) checkFunc(fd *ast.FuncDecl, publish bool) {
	taint := st.localTaints(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				field := st.genField(l)
				if field == nil {
					continue
				}
				if !publish {
					st.pass.Reportf(l.Pos(), "write to generation field %s outside a propview:publish function (see internal/analysis)",
						field.Name())
					continue
				}
				switch n.Tok {
				case token.ADD_ASSIGN:
					// x.gen += n reads the old value by construction.
				case token.ASSIGN, token.DEFINE:
					if i < len(n.Rhs) && !st.genDerived(n.Rhs[i], taint) {
						st.pass.Reportf(l.Pos(), "generation field %s assigned a value not derived from a generation (want increment or carry-forward; see internal/analysis)",
							field.Name())
					}
				default:
					st.pass.Reportf(l.Pos(), "generation field %s written with %s; only increment or carry-forward moves a generation (see internal/analysis)",
						field.Name(), n.Tok)
				}
			}
		case *ast.IncDecStmt:
			if field := st.genField(n.X); field != nil {
				if n.Tok == token.DEC {
					st.pass.Reportf(n.X.Pos(), "generation field %s decremented; generations only move forward (see internal/analysis)", field.Name())
				} else if !publish {
					st.pass.Reportf(n.X.Pos(), "write to generation field %s outside a propview:publish function (see internal/analysis)", field.Name())
				}
			}
		case *ast.CallExpr:
			st.checkAtomicCall(n, publish, taint)
		case *ast.CompositeLit:
			st.checkCompositeLit(n, publish, taint)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if field := st.genField(n.X); field != nil {
					st.pass.Reportf(n.Pos(), "address of generation field %s taken; writes through the pointer would bypass genmonotonic (see internal/analysis)", field.Name())
				}
			}
		}
		return true
	})
}

// checkAtomicCall vets method calls on atomic generation fields.
func (st *state) checkAtomicCall(call *ast.CallExpr, publish bool, taint map[types.Object]bool) {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	field := st.genField(sel.X)
	if field == nil {
		return
	}
	switch sel.Sel.Name {
	case "Load":
		return
	case "Add":
		if len(call.Args) == 1 {
			if tv, ok := st.pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
				if v, ok := constant.Int64Val(tv.Value); ok && v >= 0 {
					return // non-negative constant delta cannot regress
				}
				st.pass.Reportf(call.Pos(), "generation field %s.Add with a negative constant; generations only move forward (see internal/analysis)", field.Name())
				return
			}
		}
		if !publish {
			st.pass.Reportf(call.Pos(), "generation field %s.Add with a non-constant delta outside a propview:publish function (see internal/analysis)", field.Name())
		}
	case "Store", "Swap", "CompareAndSwap":
		if !publish {
			st.pass.Reportf(call.Pos(), "%s on generation field %s outside a propview:publish function (see internal/analysis)", sel.Sel.Name, field.Name())
			return
		}
		if sel.Sel.Name != "CompareAndSwap" && len(call.Args) == 1 && !st.genDerived(call.Args[0], taint) && !isConst(st.pass.TypesInfo, call.Args[0]) {
			st.pass.Reportf(call.Pos(), "generation field %s stored a value not derived from a generation (want carry-forward; see internal/analysis)", field.Name())
		}
	}
}

// checkCompositeLit vets generation fields named in struct literals.
func (st *state) checkCompositeLit(lit *ast.CompositeLit, publish bool, taint map[types.Object]bool) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		v, _ := st.pass.TypesInfo.Uses[key].(*types.Var)
		if v == nil {
			continue
		}
		if _, isGen := st.gens[v]; !isGen {
			continue
		}
		if isConst(st.pass.TypesInfo, kv.Value) {
			continue // fresh object starting at a fixed generation
		}
		if !publish {
			st.pass.Reportf(kv.Pos(), "generation field %s initialized from a non-constant outside a propview:publish function (see internal/analysis)", v.Name())
		} else if !st.genDerived(kv.Value, taint) {
			st.pass.Reportf(kv.Pos(), "generation field %s initialized from a non-generation value (want carry-forward like old.version + 1; see internal/analysis)", v.Name())
		}
	}
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
