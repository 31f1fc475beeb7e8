// Ordering/effect summaries: the second analyzer of this package. Where
// summary.Analyzer models locks and goroutine lifetimes, Order models
// DETERMINISM — the properties that make the fan-out paths (the segmented
// store's scatter, the engine's across-view maintenance) width-invariant:
//
//   - Which results of a function are ordered by a Go map `range`
//     (MapOrdered)? Map iteration order varies run to run, so such a value
//     must be sorted or gathered into keyed slots before it reaches
//     order-sensitive output.
//   - Which nondeterminism sources (wall clock, randomness) does a function
//     reach, transitively through calls (Nondet)? A function marked
//     propview:deterministic must reach none.
//   - Which functions are fan-out points (propview:fanout), whose closure
//     arguments run concurrently and may only write captured state through
//     per-index slots?
//
// The summaries are exported as gob OrderFacts, so both drivers see them
// across package boundaries, and the walk doubles as the checking engine
// for the three thin reporting analyzers parslot, maporder and gatherorder
// (each reads its slice of OrderResult and reports under its own name, so
// //lint:ignore and the suppression budget keep per-analyzer granularity).
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

// Order computes the ordering/effect summaries. Like Analyzer it reports
// nothing itself; parslot, maporder and gatherorder report its findings.
var Order = &analysis.Analyzer{
	Name:      "ordersummary",
	Doc:       "computes per-function ordering/effect summaries (map-range-ordered results, nondeterminism sources, fan-out points) for the determinism analyzers",
	Requires:  []*analysis.Analyzer{Analyzer},
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
	// Deterministic, OrderInsensitive and Fanout export the function's
	// markers, so client packages see the contract without the source.
	Deterministic    bool
	OrderInsensitive bool
	Fanout           bool
}

func (s *OrderSummary) empty() bool {
	if len(s.Nondet) > 0 || s.Deterministic || s.OrderInsensitive || s.Fanout {
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

// Violation is one determinism finding, ready for a thin analyzer to
// report under its own name.
type Violation struct {
	Pos     token.Pos
	Message string
}

// OrderResult is the in-memory view parslot, maporder and gatherorder read
// via Pass.ResultOf[summary.Order].
type OrderResult struct {
	// Funcs maps this package's functions to their ordering summaries.
	Funcs map[*types.Func]*OrderSummary
	// Parslot: captured-state writes in fan-out workers outside the
	// per-index-slot discipline.
	Parslot []Violation
	// Maporder: map-range-ordered values reaching order-sensitive sinks.
	Maporder []Violation
	// Gather: slot arrays gathered in nondeterministic order, and
	// propview:deterministic functions reaching nondeterminism.
	Gather []Violation
}

// orderWork is the per-package fixpoint state.
type orderWork struct {
	pass    *analysis.Pass
	sumRes  *Result // concurrency summaries (Mutates), for the worker checks
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

// lookupMutates resolves a callee's concurrency summary for its Mutates
// effect list.
func (ow *orderWork) lookupMutates(f *types.Func) *FuncSummary {
	if s, ok := ow.sumRes.Funcs[f]; ok {
		return s
	}
	var ff FuncFact
	if ow.pass.ImportObjectFact(f, &ff) {
		return &ff.S
	}
	return nil
}

// isFanout reports whether calling f fans its closure arguments out over
// concurrent workers (propview:fanout, locally or via fact).
func (ow *orderWork) isFanout(f *types.Func) bool {
	if ow.local[f] {
		return ow.markers[f].Fanout
	}
	var of OrderFact
	return ow.pass.ImportObjectFact(f, &of) && of.S.Fanout
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
		sumRes:  pass.ResultOf[Analyzer].(*Result),
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
			of := ow.walk(d, nil, nil)
			next[ow.objs[d]] = of.sum
		}
		ow.sums = next
		sig := orderSignature(ow.sums)
		if sig == prev {
			break
		}
		prev = sig
	}

	res := &OrderResult{Funcs: ow.sums}

	// Fan-out discovery and the per-worker slot-discipline checks; the
	// slot arrays and worker extents feed the gather checks below.
	fanByDecl := make(map[*ast.FuncDecl]*fanInfo)
	for _, d := range ow.decls {
		fanByDecl[d] = ow.checkFanouts(d, res)
	}

	// Reporting walk: same taint engine, now recording sink violations and
	// checking marked functions against their collected nondeterminism.
	for _, d := range ow.decls {
		fn := ow.objs[d]
		of := ow.walk(d, res, fanByDecl[d])
		if ow.markers[fn].Deterministic {
			for _, v := range of.nondet {
				res.Gather = append(res.Gather, Violation{Pos: v.Pos,
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
	src *taintSrc // nil for order-safe loops
	// isMap: the loop IS a map range, so even its index sequence is
	// nondeterministic. A range over a tainted slice still visits indexes
	// 0..n-1 — slot reads there are order-safe; only the values carry
	// taint.
	isMap  bool
	keyObj types.Object // map-range key variable (keyed writes are exempt)
	valObj types.Object
}

// span is a worker literal's extent; gather checks skip positions inside.
type span struct{ lo, hi token.Pos }

// fanInfo is what the fan-out scan learned about one function: the slot
// arrays its workers write and the worker literals' extents.
type fanInfo struct {
	slots   map[types.Object]bool
	workers []span
}

func (fi *fanInfo) insideWorker(p token.Pos) bool {
	if fi == nil {
		return false
	}
	for _, s := range fi.workers {
		if p >= s.lo && p < s.hi {
			return true
		}
	}
	return false
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
	fan      *fanInfo
	nondet   []Violation // local positions matching sum.Nondet
}

func (ow *orderWork) walk(fd *ast.FuncDecl, rep *OrderResult, fan *fanInfo) *ordFunc {
	fn := ow.objs[fd]
	of := &ordFunc{
		ow:    ow,
		fn:    fn,
		info:  ow.markers[fn],
		sum:   &OrderSummary{},
		taint: make(map[types.Object]*taintSrc),
		rep:   rep,
		fan:   fan,
	}
	of.sum.Deterministic = of.info.Deterministic
	of.sum.OrderInsensitive = of.info.OrderInsensitive
	of.sum.Fanout = of.info.Fanout
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
	// Marked functions never export map-ordered results: order-insensitive
	// means callers tolerate any order, deterministic means the return was
	// (or should have been — see the maporder diagnostic) sorted.
	if of.info.OrderInsensitive || of.info.Deterministic {
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
			frame.isMap = true
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
					if root, _ := lvalueRoot(info, idx.X); root != nil {
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
		if of.rep != nil && of.info.Deterministic && !of.info.OrderInsensitive {
			of.rep.Maporder = append(of.rep.Maporder, Violation{Pos: s.Pos(),
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

// expr scans an expression for calls (nondeterminism, sorting, sinks),
// literals, and — in the reporting pass — order-sensitive uses of slot
// arrays.
func (of *ordFunc) expr(e ast.Expr) {
	info := of.ow.pass.TypesInfo
	switch e := e.(type) {
	case *ast.CallExpr:
		of.callExpr(e)
	case *ast.FuncLit:
		of.litDepth++
		of.stmts(e.Body.List)
		of.litDepth--
	case *ast.Ident:
		// Gather-order check: consuming a slot array under a map range
		// loses the deterministic index order the fan-out's slot
		// discipline just bought. (A range over a tainted slice is exempt:
		// its index sequence is still 0..n-1, and any value-order leak is
		// maporder's append taint.)
		if of.rep != nil && of.fan != nil && of.fan.slots != nil {
			if obj := info.Uses[e]; obj != nil && of.fan.slots[obj] && !of.fan.insideWorker(e.Pos()) {
				if frame := of.orderedFrame(); frame != nil && frame.isMap {
					of.rep.Gather = append(of.rep.Gather, Violation{Pos: e.Pos(),
						Message: fmt.Sprintf("slot array %s gathered under a loop %s; gather serially in index order (for i := range %s)", e.Name, frame.src.reason, e.Name)})
				}
			}
		}
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
				if root, _ := lvalueRoot(info, analysis.Unparen(call.Args[0])); root != nil {
					delete(of.taint, root)
				}
			}
		case isJSONEncodeCall(callee):
			if of.rep != nil && !of.info.OrderInsensitive {
				for _, a := range call.Args {
					if src := of.taintOf(a); src != nil {
						of.rep.Maporder = append(of.rep.Maporder, Violation{Pos: a.Pos(),
							Message: fmt.Sprintf("map-ordered value flows into JSON encoding (%s); sort it first or mark the function propview:order-insensitive", src.reason)})
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

// ---- fan-out discovery and the worker slot checks -------------------------

// checkFanouts finds calls to propview:fanout functions in fd, checks each
// resolvable worker closure against the per-index-slot write discipline,
// and returns the slot arrays and worker extents for the gather checks.
func (ow *orderWork) checkFanouts(fd *ast.FuncDecl, res *OrderResult) *fanInfo {
	info := ow.pass.TypesInfo
	fi := &fanInfo{slots: make(map[types.Object]bool)}

	// Local closure bindings: `work := func(i int) {...}` passed by name.
	litBinds := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if lit, ok := analysis.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
					if id, ok := l.(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							litBinds[obj] = lit
						}
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						if lit, ok := analysis.Unparen(v).(*ast.FuncLit); ok && i < len(vs.Names) {
							if obj := info.Defs[vs.Names[i]]; obj != nil {
								litBinds[obj] = lit
							}
						}
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(info, call)
		if callee == nil || !ow.isFanout(callee) {
			return true
		}
		for _, arg := range call.Args {
			tv, ok := info.Types[arg]
			if !ok {
				continue
			}
			if _, isFunc := tv.Type.Underlying().(*types.Signature); !isFunc {
				continue
			}
			lit, _ := analysis.Unparen(arg).(*ast.FuncLit)
			if lit == nil {
				if id, ok := analysis.Unparen(arg).(*ast.Ident); ok {
					lit = litBinds[info.Uses[id]]
				}
			}
			if lit == nil {
				// A named function or method value: its summary tells us
				// whether it writes anything a caller can see — in a
				// fan-out that is a cross-worker race by construction.
				if wf := calleeOf(info, &ast.CallExpr{Fun: arg}); wf != nil {
					if s := ow.lookupMutates(wf); s != nil && len(s.Mutates) > 0 {
						res.Parslot = append(res.Parslot, Violation{Pos: arg.Pos(),
							Message: fmt.Sprintf("worker %s passed to %s mutates shared state through its parameters or receiver; parallel workers may only write per-index slots", wf.Name(), callee.Name())})
					}
				}
				continue
			}
			fi.workers = append(fi.workers, span{lo: lit.Pos(), hi: lit.End()})
			ww := &workerWalk{ow: ow, res: res, lit: lit, fanName: callee.Name(),
				slots: fi.slots, derived: make(map[types.Object]bool)}
			ww.idx = firstIntParam(info, lit)
			ww.stmts(lit.Body.List)
		}
		return true
	})
	return fi
}

// firstIntParam returns the object of the worker's first integer
// parameter — the per-invocation index that defines its slot.
func firstIntParam(info *types.Info, lit *ast.FuncLit) types.Object {
	if lit.Type.Params == nil {
		return nil
	}
	for _, field := range lit.Type.Params.List {
		for _, id := range field.Names {
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return obj
			}
		}
	}
	return nil
}

// workerWalk checks one fan-out worker literal: captured state may be
// written only through per-index slots or under a mutex, directly or
// through callees (resolved via the Mutates effect summaries).
type workerWalk struct {
	ow      *orderWork
	res     *OrderResult
	lit     *ast.FuncLit
	fanName string
	idx     types.Object // the worker's index parameter, possibly nil
	slots   map[types.Object]bool
	// derived tracks worker-locals computed from the index (i :=
	// affected[j]): writes positioned by them count as slot writes. The
	// checker proves the position is a function of the worker index;
	// injectivity of the derivation (affected holding no duplicates) stays
	// the author's obligation, exactly as with slots[i] itself.
	derived   map[types.Object]bool
	lockDepth int
}

func (ww *workerWalk) held() bool { return ww.lockDepth > 0 }

// outer reports whether obj is declared outside the worker literal —
// captured (or package-level) state shared across workers.
func (ww *workerWalk) outer(obj types.Object) bool {
	return obj.Pos() < ww.lit.Pos() || obj.Pos() >= ww.lit.End()
}

func (ww *workerWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		ww.stmt(s)
	}
}

func (ww *workerWalk) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		ww.stmts(s.List)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			ww.exprCalls(r)
		}
		for i, l := range s.Lhs {
			ww.checkWrite(l)
			ww.exprCalls(l)
			if i < len(s.Rhs) && len(s.Lhs) == len(s.Rhs) {
				ww.trackDerived(l, s.Rhs[i])
			}
		}
	case *ast.IncDecStmt:
		// i++ on a derived local keeps it derived: the strided-slot idiom
		// (i := j*stride; ...; i++) stays a function of the worker index.
		ww.checkWrite(s.X)
		ww.exprCalls(s.X)
	case *ast.ExprStmt:
		if call, ok := analysis.Unparen(s.X).(*ast.CallExpr); ok {
			if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := ww.ow.pass.TypesInfo.Types[sel.X]; ok && lockType(tv.Type) {
					switch sel.Sel.Name {
					case "Lock", "RLock":
						ww.lockDepth++
						return
					case "Unlock", "RUnlock":
						ww.lockDepth--
						return
					}
				}
			}
		}
		ww.exprCalls(s.X)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` releases at worker exit: the lock stays held
		// for the rest of the walk, so nothing to do — the matching Lock
		// already raised the depth. Other deferred calls are scanned.
		if sel, ok := analysis.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
			if tv, ok := ww.ow.pass.TypesInfo.Types[sel.X]; ok && lockType(tv.Type) {
				return
			}
		}
		ww.exprCalls(s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			ww.exprCalls(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ww.stmt(s.Init)
		}
		ww.exprCalls(s.Cond)
		ww.stmt(s.Body)
		if s.Else != nil {
			ww.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ww.stmt(s.Init)
		}
		if s.Cond != nil {
			ww.exprCalls(s.Cond)
		}
		if s.Post != nil {
			ww.stmt(s.Post)
		}
		ww.stmt(s.Body)
	case *ast.RangeStmt:
		ww.exprCalls(s.X)
		ww.stmt(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			ww.stmt(s.Init)
		}
		if s.Tag != nil {
			ww.exprCalls(s.Tag)
		}
		ww.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ww.stmt(s.Init)
		}
		ww.stmt(s.Assign)
		ww.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			ww.exprCalls(e)
		}
		ww.stmts(s.Body)
	case *ast.SelectStmt:
		ww.stmt(s.Body)
	case *ast.CommClause:
		if s.Comm != nil {
			ww.stmt(s.Comm)
		}
		ww.stmts(s.Body)
	case *ast.SendStmt:
		ww.exprCalls(s.Chan)
		ww.exprCalls(s.Value)
	case *ast.GoStmt:
		ww.exprCalls(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ww.exprCalls(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		ww.stmt(s.Stmt)
	}
}

// trackDerived updates the derived set after lhs = rhs: a worker-local
// assigned an index-derived expression becomes derived, one assigned
// anything else stops being derived (sequential walk order, so a later
// rebinding to a constant is seen before writes it positions).
func (ww *workerWalk) trackDerived(lhs, rhs ast.Expr) {
	id, ok := analysis.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	info := ww.ow.pass.TypesInfo
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil || ww.outer(obj) {
		return
	}
	if ww.mentionsIdx(rhs) {
		ww.derived[obj] = true
	} else {
		delete(ww.derived, obj)
	}
}

// mentionsIdx reports whether e references the worker's index parameter or
// a local derived from it.
func (ww *workerWalk) mentionsIdx(e ast.Expr) bool {
	if ww.idx == nil {
		return false
	}
	info := ww.ow.pass.TypesInfo
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && (obj == ww.idx || ww.derived[obj]) {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkWrite enforces the slot discipline on one lvalue.
func (ww *workerWalk) checkWrite(lhs ast.Expr) {
	info := ww.ow.pass.TypesInfo
	if id, ok := analysis.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}

	// Walk the access chain looking for the slot pattern: an index into a
	// slice or array positioned by the worker's index parameter.
	isSlot := false
	var mapWrite *ast.IndexExpr
	for e := lhs; ; {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					if ww.mentionsIdx(x.Index) {
						isSlot = true
					}
				case *types.Map:
					mapWrite = x
				}
			}
			e = x.X
			continue
		}
		break
	}

	root, _ := lvalueRoot(info, lhs)
	if root == nil || !ww.outer(root) {
		return // a worker-local variable: sequential within one invocation
	}
	if isSlot {
		ww.slots[root] = true
		return
	}
	if ww.held() {
		return
	}
	pos := lhs.Pos()
	if mapWrite != nil {
		ww.violation(pos, fmt.Sprintf("parallel worker writes captured map %s; maps are not per-index slots — gather into a slice indexed by the worker index, or hold a mutex", types.ExprString(mapWrite.X)))
		return
	}
	ww.violation(pos, fmt.Sprintf("parallel worker passed to %s writes captured variable %s outside a per-index slot; write %s[i] (i the worker index) or hold a mutex", ww.fanName, root.Name(), root.Name()))
}

// exprCalls scans an expression for calls whose effect summaries mutate
// captured state, and for nested literals (which run within this worker's
// invocation and share its capture boundary).
func (ww *workerWalk) exprCalls(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ww.stmts(n.Body.List)
			return false
		case *ast.CallExpr:
			ww.checkCallEffects(n)
		}
		return true
	})
}

func (ww *workerWalk) checkCallEffects(call *ast.CallExpr) {
	if ww.held() {
		return
	}
	info := ww.ow.pass.TypesInfo
	callee := calleeOf(info, call)
	if callee == nil {
		return
	}
	s := ww.ow.lookupMutates(callee)
	if s == nil || len(s.Mutates) == 0 {
		return
	}
	for _, j := range s.Mutates {
		var arg ast.Expr
		if j == -1 {
			if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				arg = sel.X
			}
		} else if j >= 0 && j < len(call.Args) {
			arg = call.Args[j]
		}
		if arg == nil {
			continue
		}
		// Mutating &slots[i] (or slots[i].field) through a helper is the
		// slot discipline by another spelling.
		if ww.indexedByIdx(arg) {
			if root, _ := lvalueRoot(info, stripAddr(arg)); root != nil && ww.outer(root) {
				ww.slots[root] = true
			}
			continue
		}
		// The frame boundary here is the worker literal, not the enclosing
		// function: `&x` hands the callee the variable itself, so if x is
		// captured the mutation lands in shared state even though — for the
		// purposes of the enclosing function's own summary — it would not
		// escape the frame.
		var root types.Object
		var shared bool
		if u, ok := analysis.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
			root, _ = lvalueRoot(info, u.X)
			shared = root != nil
		} else {
			root, shared = argMutationRoot(info, arg)
		}
		if !shared || root == nil || !ww.outer(root) {
			continue
		}
		ww.violation(arg.Pos(), fmt.Sprintf("call to %s mutates captured %s from a parallel worker passed to %s; mutate only per-index slots or hold a mutex", callee.Name(), root.Name(), ww.fanName))
	}
}

func (ww *workerWalk) violation(pos token.Pos, msg string) {
	ww.res.Parslot = append(ww.res.Parslot, Violation{Pos: pos, Message: msg})
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
	root, _ := lvalueRoot(info, e)
	return root
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

// indexedByIdx reports whether e's access chain contains an index
// expression positioned by the worker index or a local derived from it
// (slots[i], &slots[i], slots[i].err, ...).
func (ww *workerWalk) indexedByIdx(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if idx, ok := n.(*ast.IndexExpr); ok && ww.mentionsIdx(idx.Index) {
			found = true
		}
		return !found
	})
	return found
}

func stripAddr(e ast.Expr) ast.Expr {
	e = analysis.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return analysis.Unparen(u.X)
	}
	return e
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
// nondeterministic as an ORDER), and scheduling nondeterminism is parslot's
// domain.
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
