// Ordering summaries: the second analyzer of this package. Where
// summary.Analyzer models locks and goroutine lifetimes, Order models
// DETERMINISM — the properties that make the paper's answers (the chosen
// deletion, its side effects, the witness lists, an annotation's
// placement) pure functions of the query and the instance:
//
//   - Which results of a function are ordered by a Go map `range`
//     (MapOrdered)? Map iteration order varies run to run, so such a value
//     must be sorted or gathered into keyed slots before it reaches
//     order-sensitive output.
//   - Which nondeterminism sources (wall clock, randomness) does a function
//     reach, transitively through calls (Nondet)? A function marked
//     propview:deterministic must reach none.
//
// The summaries are exported as gob OrderFacts, so both drivers see them
// across package boundaries, and the walk doubles as the checking engine
// for the maporder analyzer, which reports OrderResult's violations.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/markers"
)

// Order computes the ordering summaries. Like Analyzer it reports nothing
// itself; maporder reports its findings.
var Order = &analysis.Analyzer{
	Name:      "ordersummary",
	Doc:       "computes per-function ordering summaries (map-range-ordered results, nondeterminism sources) for the maporder analyzer",
	FactTypes: []analysis.Fact{(*OrderFact)(nil)},
	Run:       runOrder,
}

// OrderSummary is the determinism-relevant behavior of one function.
type OrderSummary struct {
	// MapOrdered flags each result whose element order derives from a map
	// range (nil when none do): callers assigning such a result hold a
	// map-ordered value.
	MapOrdered []bool
	// Nondet lists root nondeterminism sources the function reaches,
	// transitively: "time.Now at file.go:12". Propagation stops at callees
	// marked propview:deterministic — they are checked at their own
	// definition instead.
	Nondet []string
	// Deterministic exports the function's propview:deterministic marker,
	// so client packages see the contract without the source.
	Deterministic bool
}

func (s *OrderSummary) empty() bool {
	if len(s.Nondet) > 0 || s.Deterministic {
		return false
	}
	for _, b := range s.MapOrdered {
		if b {
			return false
		}
	}
	return true
}

// OrderFact exports an OrderSummary across package boundaries.
type OrderFact struct{ S OrderSummary }

func (*OrderFact) AFact() {}

// Violation is one determinism finding, ready for maporder to report.
type Violation struct {
	Pos     token.Pos
	Message string
}

// OrderResult is the in-memory view maporder reads via
// Pass.ResultOf[summary.Order].
type OrderResult struct {
	// Funcs maps this package's functions to their ordering summaries.
	Funcs map[*types.Func]*OrderSummary
	// Violations: map-range-ordered values reaching order-sensitive sinks,
	// and propview:deterministic functions reaching nondeterminism.
	Violations []Violation
}

// orderWork is the per-package fixpoint state.
type orderWork struct {
	pass    *analysis.Pass
	decls   []*ast.FuncDecl
	objs    map[*ast.FuncDecl]*types.Func
	local   map[*types.Func]bool
	markers map[*types.Func]markers.FuncInfo
	sums    map[*types.Func]*OrderSummary // previous round (read)
}

// lookupOrder resolves a callee's ordering summary: local functions from
// the previous fixpoint round, imported ones from their exported fact.
func (ow *orderWork) lookupOrder(f *types.Func) *OrderSummary {
	if ow.local[f] {
		return ow.sums[f]
	}
	var of OrderFact
	if ow.pass.ImportObjectFact(f, &of) {
		return &of.S
	}
	return nil
}

// calleeDeterministic reports whether f carries propview:deterministic.
func (ow *orderWork) calleeDeterministic(f *types.Func) bool {
	if ow.local[f] {
		return ow.markers[f].Deterministic
	}
	var of OrderFact
	return ow.pass.ImportObjectFact(f, &of) && of.S.Deterministic
}

func runOrder(pass *analysis.Pass) (any, error) {
	ow := &orderWork{
		pass:    pass,
		objs:    make(map[*ast.FuncDecl]*types.Func),
		local:   make(map[*types.Func]bool),
		markers: markers.Funcs(pass),
		sums:    make(map[*types.Func]*OrderSummary),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			ow.decls = append(ow.decls, fd)
			ow.objs[fd] = obj
			ow.local[obj] = true
		}
	}

	// Fixpoint over MapOrdered and Nondet: both grow monotonically (Nondet
	// carries root reasons only, so recursion cycles converge).
	prev := ""
	for iter := 0; iter <= len(ow.decls)+1; iter++ {
		next := make(map[*types.Func]*OrderSummary)
		for _, d := range ow.decls {
			of := ow.walk(d, nil)
			next[ow.objs[d]] = of.sum
		}
		ow.sums = next
		sig := orderSignature(ow.sums)
		if sig == prev {
			break
		}
		prev = sig
	}

	// Reporting walk: same taint engine, now recording sink violations and
	// checking marked functions against their collected nondeterminism.
	res := &OrderResult{Funcs: ow.sums}
	for _, d := range ow.decls {
		fn := ow.objs[d]
		of := ow.walk(d, res)
		if ow.markers[fn].Deterministic {
			for _, v := range of.nondet {
				res.Violations = append(res.Violations, Violation{Pos: v.Pos,
					Message: fmt.Sprintf("propview:deterministic function %s reaches nondeterminism: %s", fn.Name(), v.Message)})
			}
		}
	}

	for f, s := range ow.sums {
		if !s.empty() {
			pass.ExportObjectFact(f, &OrderFact{S: *s})
		}
	}
	return res, nil
}

func orderSignature(sums map[*types.Func]*OrderSummary) string {
	keys := make([]*types.Func, 0, len(sums))
	for f := range sums {
		keys = append(keys, f)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].FullName() < keys[j].FullName() })
	var sb []byte
	for _, f := range keys {
		sb = fmt.Appendf(sb, "%s: %+v\n", f.FullName(), *sums[f])
	}
	return string(sb)
}

// ---- the taint walk -------------------------------------------------------

// taintSrc says why a value's element order is nondeterministic.
type taintSrc struct {
	reason string
	pos    token.Pos
}

// rangeFrame is one enclosing loop whose iteration order matters: a map
// range, or a range over an already-tainted sequence. Appends inside such
// a frame inherit its order.
type rangeFrame struct {
	src    *taintSrc    // nil for order-safe loops
	keyObj types.Object // map-range key variable (keyed writes are exempt)
	valObj types.Object
}

// ordFunc walks one function, tracking order taint in statement order.
type ordFunc struct {
	ow       *orderWork
	fn       *types.Func
	info     markers.FuncInfo
	sum      *OrderSummary
	taint    map[types.Object]*taintSrc
	frames   []rangeFrame
	results  []types.Object // named result objects, nil entries when unnamed
	litDepth int            // >0 inside a func literal: returns are the literal's
	rep      *OrderResult   // nil during the fixpoint rounds
	nondet   []Violation    // local positions matching sum.Nondet
}

func (ow *orderWork) walk(fd *ast.FuncDecl, rep *OrderResult) *ordFunc {
	fn := ow.objs[fd]
	of := &ordFunc{
		ow:    ow,
		fn:    fn,
		info:  ow.markers[fn],
		sum:   &OrderSummary{},
		taint: make(map[types.Object]*taintSrc),
		rep:   rep,
	}
	of.sum.Deterministic = of.info.Deterministic
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Results() != nil {
		of.sum.MapOrdered = make([]bool, sig.Results().Len())
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if len(field.Names) == 0 {
				of.results = append(of.results, nil)
				continue
			}
			for _, id := range field.Names {
				of.results = append(of.results, ow.pass.TypesInfo.Defs[id])
			}
		}
	}
	of.stmts(fd.Body.List)
	// Deterministic functions never export map-ordered results: the return
	// was (or should have been — see the maporder diagnostic) sorted.
	if of.info.Deterministic {
		for i := range of.sum.MapOrdered {
			of.sum.MapOrdered[i] = false
		}
	}
	return of
}

func (of *ordFunc) stmts(list []ast.Stmt) {
	for _, s := range list {
		of.stmt(s)
	}
}

func (of *ordFunc) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		of.stmts(s.List)
	case *ast.AssignStmt:
		of.assign(s)
	case *ast.ExprStmt:
		of.expr(s.X)
	case *ast.IncDecStmt:
		of.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					of.expr(v)
					if i < len(vs.Names) {
						of.setTaint(of.defOf(vs.Names[i]), of.taintOf(v))
					}
				}
			}
		}
	case *ast.ReturnStmt:
		of.ret(s)
	case *ast.IfStmt:
		if s.Init != nil {
			of.stmt(s.Init)
		}
		of.expr(s.Cond)
		of.stmt(s.Body)
		if s.Else != nil {
			of.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			of.stmt(s.Init)
		}
		if s.Cond != nil {
			of.expr(s.Cond)
		}
		if s.Post != nil {
			of.stmt(s.Post)
		}
		of.frames = append(of.frames, rangeFrame{})
		of.stmt(s.Body)
		of.frames = of.frames[:len(of.frames)-1]
	case *ast.RangeStmt:
		of.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			of.stmt(s.Init)
		}
		if s.Tag != nil {
			of.expr(s.Tag)
		}
		of.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			of.stmt(s.Init)
		}
		of.stmt(s.Assign)
		of.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			of.expr(e)
		}
		of.stmts(s.Body)
	case *ast.SelectStmt:
		of.stmt(s.Body)
	case *ast.CommClause:
		if s.Comm != nil {
			of.stmt(s.Comm)
		}
		of.stmts(s.Body)
	case *ast.GoStmt:
		of.expr(s.Call)
	case *ast.DeferStmt:
		of.expr(s.Call)
	case *ast.SendStmt:
		of.expr(s.Chan)
		of.expr(s.Value)
	case *ast.LabeledStmt:
		of.stmt(s.Stmt)
	}
}

// rangeStmt pushes a frame describing the loop's order: map ranges and
// ranges over tainted sequences poison appends inside their bodies.
func (of *ordFunc) rangeStmt(s *ast.RangeStmt) {
	of.expr(s.X)
	frame := rangeFrame{}
	if tv, ok := of.ow.pass.TypesInfo.Types[s.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			frame.src = &taintSrc{
				reason: fmt.Sprintf("ordered by range over map at %s", posStr(of.ow.pass.Fset, s.Range)),
				pos:    s.Range,
			}
			if id, ok := s.Key.(*ast.Ident); ok {
				frame.keyObj = of.defOf(id)
			}
			if id, ok := s.Value.(*ast.Ident); ok {
				frame.valObj = of.defOf(id)
			}
		}
	}
	if frame.src == nil {
		if src := of.taintOf(s.X); src != nil {
			frame.src = src
		}
	}
	of.frames = append(of.frames, frame)
	of.stmt(s.Body)
	of.frames = of.frames[:len(of.frames)-1]
}

// orderedFrame returns the innermost enclosing frame whose iteration order
// is nondeterministic, or nil.
func (of *ordFunc) orderedFrame() *rangeFrame {
	for i := len(of.frames) - 1; i >= 0; i-- {
		if of.frames[i].src != nil {
			return &of.frames[i]
		}
	}
	return nil
}

func (of *ordFunc) assign(s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		of.expr(r)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			of.assignOne(s.Lhs[i], s.Rhs[i])
			of.expr(s.Lhs[i])
		}
		return
	}
	// Tuple assignment from one call: taint per MapOrdered result bit.
	if len(s.Rhs) == 1 {
		var ordered []bool
		if call, ok := analysis.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if callee := calleeOf(of.ow.pass.TypesInfo, call); callee != nil {
				if cs := of.ow.lookupOrder(callee); cs != nil {
					ordered = cs.MapOrdered
				}
			}
		}
		for i, l := range s.Lhs {
			var src *taintSrc
			if i < len(ordered) && ordered[i] {
				src = &taintSrc{reason: "result ordered by a map range in the callee", pos: s.Rhs[0].Pos()}
			}
			of.setTaint(of.objOf(l), src)
			of.expr(l)
		}
	}
}

// assignOne transfers taint for one lhs = rhs pair, applying the append
// and keyed-write rules.
func (of *ordFunc) assignOne(lhs, rhs ast.Expr) {
	info := of.ow.pass.TypesInfo
	target := of.objOf(lhs)

	// Appends inside an order-tainted loop are positional: the element
	// sequence mirrors the iteration order, whatever is appended.
	if call, ok := analysis.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
		if frame := of.orderedFrame(); frame != nil && target != nil {
			of.setTaint(target, frame.src)
			return
		}
	}

	// Indexed writes: a slice write positioned by something other than the
	// map key is as iteration-ordered as an append; keyed writes (the
	// keyed-slot gather) and map writes are order-free.
	if idx, ok := analysis.Unparen(lhs).(*ast.IndexExpr); ok {
		if frame := of.orderedFrame(); frame != nil {
			if tv, ok := info.Types[idx.X]; ok {
				if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice &&
					!mentionsObj(info, idx.Index, frame.keyObj) && !mentionsObj(info, idx.Index, frame.valObj) {
					if root := lvalueRoot(info, idx.X); root != nil {
						of.setTaint(root, frame.src)
					}
				}
			}
		}
		return
	}

	if target == nil {
		return
	}
	of.setTaint(target, of.taintOf(rhs))
}

func (of *ordFunc) setTaint(obj types.Object, src *taintSrc) {
	if obj == nil {
		return
	}
	if src == nil {
		delete(of.taint, obj)
		return
	}
	of.taint[obj] = src
}

// taintOf computes the order taint of an expression's value.
func (of *ordFunc) taintOf(e ast.Expr) *taintSrc {
	info := of.ow.pass.TypesInfo
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		return of.taint[obj]
	case *ast.SliceExpr:
		return of.taintOf(e.X)
	case *ast.CallExpr:
		if isBuiltinAppend(info, e) {
			for _, a := range e.Args {
				if src := of.taintOf(a); src != nil {
					return src
				}
			}
			return nil
		}
		callee := calleeOf(info, e)
		if callee == nil {
			return nil
		}
		if isSortingCall(callee) {
			return nil
		}
		if cs := of.ow.lookupOrder(callee); cs != nil && len(cs.MapOrdered) > 0 && cs.MapOrdered[0] {
			return &taintSrc{reason: fmt.Sprintf("result of %s, ordered by a map range in the callee", callee.Name()), pos: e.Pos()}
		}
		return nil
	}
	return nil
}

// ret applies the return-position rules: a map-ordered result is the
// function's contract (exported via MapOrdered), and a contract violation
// when the function promised determinism.
func (of *ordFunc) ret(s *ast.ReturnStmt) {
	for _, r := range s.Results {
		of.expr(r)
	}
	if of.litDepth > 0 {
		return // a literal's returns are not the enclosing function's
	}
	mark := func(i int, src *taintSrc) {
		if src == nil {
			return
		}
		if of.rep != nil && of.info.Deterministic {
			of.rep.Violations = append(of.rep.Violations, Violation{Pos: s.Pos(),
				Message: fmt.Sprintf("propview:deterministic function %s returns a map-ordered value (%s); sort it or gather into keyed slots", of.fn.Name(), src.reason)})
		}
		if i < len(of.sum.MapOrdered) {
			of.sum.MapOrdered[i] = true
		}
	}
	if len(s.Results) == 0 {
		for i, robj := range of.results {
			if robj != nil {
				mark(i, of.taint[robj])
			}
		}
		return
	}
	for i, r := range s.Results {
		mark(i, of.taintOf(r))
	}
}

// expr scans an expression for calls (nondeterminism, sorting, sinks) and
// literals.
func (of *ordFunc) expr(e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		of.callExpr(e)
	case *ast.FuncLit:
		of.litDepth++
		of.stmts(e.Body.List)
		of.litDepth--
	case *ast.ParenExpr:
		of.expr(e.X)
	case *ast.SelectorExpr:
		of.expr(e.X)
	case *ast.StarExpr:
		of.expr(e.X)
	case *ast.UnaryExpr:
		of.expr(e.X)
	case *ast.BinaryExpr:
		of.expr(e.X)
		of.expr(e.Y)
	case *ast.IndexExpr:
		of.expr(e.X)
		of.expr(e.Index)
	case *ast.SliceExpr:
		of.expr(e.X)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				of.expr(idx)
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			of.expr(el)
		}
	case *ast.KeyValueExpr:
		of.expr(e.Key)
		of.expr(e.Value)
	case *ast.TypeAssertExpr:
		of.expr(e.X)
	}
}

func (of *ordFunc) callExpr(call *ast.CallExpr) {
	info := of.ow.pass.TypesInfo
	callee := calleeOf(info, call)
	if callee != nil {
		switch {
		case isSortingCall(callee):
			// Sorting re-establishes a deterministic order: clear the
			// argument's taint (sort.Slice(v, less), slices.Sort(v), ...).
			if len(call.Args) > 0 {
				if root := lvalueRoot(info, analysis.Unparen(call.Args[0])); root != nil {
					delete(of.taint, root)
				}
			}
		case isJSONEncodeCall(callee):
			if of.rep != nil {
				for _, a := range call.Args {
					if src := of.taintOf(a); src != nil {
						of.rep.Violations = append(of.rep.Violations, Violation{Pos: a.Pos(),
							Message: fmt.Sprintf("map-ordered value flows into JSON encoding (%s); sort it first", src.reason)})
					}
				}
			}
		}
		if reason := nondetRoot(callee); reason != "" {
			of.addNondet(call.Pos(), fmt.Sprintf("%s at %s", reason, posStr(of.ow.pass.Fset, call.Pos())))
		} else if !of.ow.calleeDeterministic(callee) {
			if cs := of.ow.lookupOrder(callee); cs != nil {
				for _, root := range cs.Nondet {
					of.addNondet(call.Pos(), root)
				}
			}
		}
	}
	of.expr(call.Fun)
	for _, a := range call.Args {
		of.expr(a)
	}
}

// maxNondet caps the root reasons carried per function; one is enough to
// fail a propview:deterministic promise, a handful aids triage.
const maxNondet = 4

func (of *ordFunc) addNondet(pos token.Pos, root string) {
	for _, r := range of.sum.Nondet {
		if r == root {
			return
		}
	}
	if len(of.sum.Nondet) >= maxNondet {
		return
	}
	of.sum.Nondet = append(of.sum.Nondet, root)
	of.nondet = append(of.nondet, Violation{Pos: pos, Message: root})
}

// defOf resolves an identifier's defined object (short declarations,
// range variables).
func (of *ordFunc) defOf(id *ast.Ident) types.Object {
	return of.ow.pass.TypesInfo.Defs[id]
}

// objOf resolves an assignment target to its root object: the identifier
// itself for plain assigns and short declarations, the chain root for
// indexed/selector targets (which carry their container's taint).
func (of *ordFunc) objOf(e ast.Expr) types.Object {
	info := of.ow.pass.TypesInfo
	if id, ok := analysis.Unparen(e).(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	return lvalueRoot(info, e)
}

// ---- small classification helpers -----------------------------------------

// mentionsObj reports whether e references obj.
func mentionsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// lvalueRoot unwraps an access chain (`x.f[i].g`, `*p`, `(x)`) to its root
// object: the variable at its base, or a qualified package-level var; nil
// when the chain does not start at a variable (a call result, a literal).
func lvalueRoot(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				return v // qualified package-level var
			}
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := analysis.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isSortingCall recognizes the sort and slices functions that establish a
// deterministic element order.
func isSortingCall(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sort":
		return true // every sort.* entry point orders its argument
	case "slices":
		return strings.HasPrefix(f.Name(), "Sort")
	}
	return false
}

// isJSONEncodeCall recognizes the encoding/json entry points that
// serialize their argument — an order-sensitive sink (propviewd responses).
func isJSONEncodeCall(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil || pkg.Path() != "encoding/json" {
		return false
	}
	switch f.Name() {
	case "Marshal", "MarshalIndent", "Encode":
		return true
	}
	return false
}

// nondetRoot classifies direct nondeterminism sources: wall clock and
// randomness. Map iteration is handled by the taint walk (it is only
// nondeterministic as an ORDER); scheduling nondeterminism is left to the
// race detector.
func nondetRoot(f *types.Func) string {
	pkg := f.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		switch f.Name() {
		case "Now", "Since", "Until", "After", "Tick", "NewTimer", "NewTicker":
			return "time." + f.Name()
		}
	case "math/rand", "math/rand/v2", "crypto/rand":
		return pkg.Path() + "." + f.Name()
	}
	return ""
}
