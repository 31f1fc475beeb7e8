// Package lockguard checks `guarded-by:` field annotations: a field
// annotated `// guarded-by: mu` may only be read or written while the
// sibling mutex mu is held on an enclosing path. The walk is sequential
// with a terminator heuristic (a branch ending in return/panic/continue/
// break does not leak its lock-state changes), so the common
// lock/check/unlock-and-return shape needs no annotations.
//
// Guard forms (see the internal/analysis package doc):
//
//   - a sibling sync.Mutex or sync.RWMutex field: Lock/RLock acquire,
//     Unlock/RUnlock release; deferred unlocks keep the lock held to the
//     end of the function; writes need the write lock, reads either.
//   - a sibling sync.Once field: writes must happen inside a closure
//     passed to that Once's Do; after a Do call on the same path, reads
//     are allowed (Do's happens-before edge).
//   - the word "atomic": the field's type must come from sync/atomic,
//     which makes every access safe by construction.
//
// Accesses through values freshly allocated in the current function are
// exempt (not yet shared). Function literals start with no locks held
// (they may run on another goroutine) except Once.Do closures, which hold
// their Once.
//
// Calls are no longer a blind spot: the walk consumes the concurrency
// summaries (see internal/analysis/summary), so a callee that returns
// with the receiver's mutex held — a lock helper — extends the held set,
// and one that releases it on the caller's behalf shrinks it, across
// package boundaries.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/markers"
	"repro/internal/analysis/summary"
)

// Analyzer is the lockguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "lockguard",
	Doc:      "checks that guarded-by: annotated fields are accessed only with their lock held (see internal/analysis)",
	Requires: []*analysis.Analyzer{summary.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	guards := markers.FieldGuards(pass)
	if len(guards) == 0 {
		return nil, nil
	}
	st := &state{pass: pass, guards: guards}
	if r, ok := pass.ResultOf[summary.Analyzer].(*summary.Result); ok {
		st.sums = r
	}
	st.validate()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fs := &funcState{st: st, held: make(map[string]level), fresh: make(map[types.Object]bool)}
			fs.stmt(fd.Body)
		}
	}
	return nil, nil
}

type state struct {
	pass   *analysis.Pass
	guards map[*types.Var]markers.Guard
	sums   *summary.Result
}

// sumOf resolves a callee's concurrency summary: same-package functions
// from the summary pass's result, imported ones from their fact.
func (st *state) sumOf(f *types.Func) *summary.FuncSummary {
	if st.sums != nil {
		if s, ok := st.sums.Funcs[f]; ok {
			return s
		}
	}
	var ff summary.FuncFact
	if st.pass.ImportObjectFact(f, &ff) {
		return &ff.S
	}
	return nil
}

// validate reports annotations whose guard cannot work: an "atomic" guard
// on a non-atomic type, or a named guard with no sibling field of a lock
// type.
func (st *state) validate() {
	for field, g := range st.guards {
		if g.Name == "atomic" {
			if !atomicType(field.Type()) {
				st.pass.Reportf(g.Pos, "field %s is marked guarded-by: atomic but its type %s is not from sync/atomic",
					field.Name(), field.Type())
			}
			continue
		}
		sib := markers.SiblingField(st.pass, g.Struct, g.Name)
		if sib == nil {
			st.pass.Reportf(g.Pos, "guarded-by: %s names no sibling field of this struct", g.Name)
			continue
		}
		if !lockType(sib.Type()) && !onceType(sib.Type()) {
			st.pass.Reportf(g.Pos, "guard field %s has type %s; want sync.Mutex, sync.RWMutex, or sync.Once",
				g.Name, sib.Type())
		}
	}
}

// level is how strongly a lock is held on the current path.
type level int

const (
	read  level = iota + 1 // RLock, or a completed Once.Do
	write                  // Lock, or inside a Once.Do closure
)

type funcState struct {
	st *state
	// held maps a lock key ("e.mu": base expression + guard field) to how
	// it is held on the current path.
	held map[string]level
	// fresh marks locals bound to objects allocated in this function; their
	// guarded fields are exempt (the object is not shared yet).
	fresh map[types.Object]bool
}

func (fs *funcState) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			fs.stmt(sub)
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			fs.expr(r, false)
		}
		for _, l := range s.Lhs {
			fs.writeTarget(l)
		}
		fs.trackFresh(s)
	case *ast.IncDecStmt:
		fs.writeTarget(s.X)
	case *ast.ExprStmt:
		fs.expr(s.X, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fs.expr(r, false)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			fs.stmt(s.Init)
		}
		fs.expr(s.Cond, false)
		fs.branch(s.Body, s.Else)
	case *ast.ForStmt:
		if s.Init != nil {
			fs.stmt(s.Init)
		}
		if s.Cond != nil {
			fs.expr(s.Cond, false)
		}
		if s.Post != nil {
			fs.stmt(s.Post)
		}
		fs.branch(s.Body, nil)
	case *ast.RangeStmt:
		fs.expr(s.X, false)
		fs.branch(s.Body, nil)
	case *ast.SwitchStmt:
		if s.Init != nil {
			fs.stmt(s.Init)
		}
		if s.Tag != nil {
			fs.expr(s.Tag, false)
		}
		fs.caseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			fs.stmt(s.Init)
		}
		fs.stmt(s.Assign)
		fs.caseBodies(s.Body)
	case *ast.SelectStmt:
		fs.caseBodies(s.Body)
	case *ast.DeferStmt:
		// A deferred unlock releases at return: the lock stays held for the
		// rest of the walk, so only non-unlock defers are inspected. A
		// deferred call to a helper that releases locks (per its summary)
		// behaves the same way.
		if lockCall(fs.st.pass.TypesInfo, s.Call) == "" && !fs.deferredRelease(s.Call) {
			fs.expr(s.Call, false)
		}
	case *ast.GoStmt:
		fs.expr(s.Call, false)
	case *ast.SendStmt:
		fs.expr(s.Chan, false)
		fs.expr(s.Value, false)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fs.expr(v, false)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		fs.stmt(s.Stmt)
	}
}

// branch walks a conditional body (and optional else) and merges lock
// state conservatively: changes made in a branch that ends in a
// terminator are discarded; otherwise a lock survives the branch only if
// every non-terminating path holds it.
func (fs *funcState) branch(body *ast.BlockStmt, els ast.Stmt) {
	entry := fs.snapshot()
	fs.stmt(body)
	after := fs.snapshot()
	if terminates(body) {
		after = entry
	}
	if els != nil {
		fs.restore(entry)
		fs.stmt(els)
		if !terminatesStmt(els) {
			after = intersect(after, fs.snapshot())
		}
	} else {
		after = intersect(after, entry)
	}
	fs.restore(after)
}

func (fs *funcState) caseBodies(body *ast.BlockStmt) {
	entry := fs.snapshot()
	after := entry
	for _, cs := range body.List {
		fs.restore(entry)
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				fs.expr(e, false)
			}
			for _, sub := range cs.Body {
				fs.stmt(sub)
			}
			if !terminatesList(cs.Body) {
				after = intersect(after, fs.snapshot())
			}
		case *ast.CommClause:
			if cs.Comm != nil {
				fs.stmt(cs.Comm)
			}
			for _, sub := range cs.Body {
				fs.stmt(sub)
			}
			if !terminatesList(cs.Body) {
				after = intersect(after, fs.snapshot())
			}
		}
	}
	fs.restore(after)
}

func (fs *funcState) snapshot() map[string]level {
	cp := make(map[string]level, len(fs.held))
	for k, v := range fs.held {
		cp[k] = v
	}
	return cp
}

func (fs *funcState) restore(m map[string]level) {
	fs.held = make(map[string]level, len(m))
	for k, v := range m {
		fs.held[k] = v
	}
}

func intersect(a, b map[string]level) map[string]level {
	out := make(map[string]level)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			if vb < va {
				va = vb
			}
			out[k] = va
		}
	}
	return out
}

// expr walks an expression; stmtPos marks a bare expression statement,
// where Lock/Unlock calls mutate lock state.
func (fs *funcState) expr(e ast.Expr, stmtPos bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		if stmtPos {
			if key := lockCall(fs.st.pass.TypesInfo, e); key != "" {
				fs.applyLockCall(e)
				return
			}
		}
		if fs.onceDo(e) {
			return
		}
		fs.expr(e.Fun, false)
		for _, a := range e.Args {
			fs.expr(a, false)
		}
		fs.applySummary(e)
	case *ast.SelectorExpr:
		fs.checkAccess(e, read)
		fs.expr(e.X, false)
	case *ast.FuncLit:
		// May run on another goroutine: no inherited locks, and locals of
		// the enclosing function are no longer provably unshared.
		inner := &funcState{st: fs.st, held: make(map[string]level), fresh: make(map[types.Object]bool)}
		inner.stmt(e.Body)
	case *ast.BinaryExpr:
		fs.expr(e.X, false)
		fs.expr(e.Y, false)
	case *ast.UnaryExpr:
		fs.expr(e.X, false)
	case *ast.StarExpr:
		fs.expr(e.X, false)
	case *ast.ParenExpr:
		fs.expr(e.X, stmtPos)
	case *ast.IndexExpr:
		fs.expr(e.X, false)
		fs.expr(e.Index, false)
	case *ast.SliceExpr:
		fs.expr(e.X, false)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				fs.expr(idx, false)
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fs.expr(kv.Value, false)
			} else {
				fs.expr(el, false)
			}
		}
	case *ast.TypeAssertExpr:
		fs.expr(e.X, false)
	case *ast.KeyValueExpr:
		fs.expr(e.Key, false)
		fs.expr(e.Value, false)
	}
}

// applyLockCall updates held for a Lock/Unlock-family call statement.
func (fs *funcState) applyLockCall(call *ast.CallExpr) {
	sel := call.Fun.(*ast.SelectorExpr)
	key := types.ExprString(analysis.Unparen(sel.X))
	switch sel.Sel.Name {
	case "Lock":
		fs.held[key] = write
	case "RLock":
		if fs.held[key] < read {
			fs.held[key] = read
		}
	case "Unlock", "RUnlock":
		delete(fs.held, key)
	case "TryLock":
		// Conservative: a TryLock statement whose result is discarded does
		// not prove the lock held.
	}
}

// applySummary folds a callee's summary into the held set after the call:
// locks the callee returns holding join it (rebased from the callee's
// receiver onto the call-site receiver expression), locks it releases on
// the caller's behalf leave it.
func (fs *funcState) applySummary(call *ast.CallExpr) {
	callee := summary.CalleeOf(fs.st.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	sum := fs.st.sumOf(callee)
	if sum == nil {
		return
	}
	sel, _ := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	for _, nh := range sum.NetHeld {
		key := callSiteKey(sel, nh.Field)
		if key == "" {
			continue
		}
		lvl := write
		if nh.Level == "read" {
			lvl = read
		}
		if fs.held[key] < lvl {
			fs.held[key] = lvl
		}
	}
	for _, rel := range sum.Releases {
		if key := callSiteKey(sel, rel.Field); key != "" {
			delete(fs.held, key)
		}
	}
}

// deferredRelease reports whether a deferred call releases locks per its
// summary — those stay held to the end of the function, like a deferred
// unlock.
func (fs *funcState) deferredRelease(call *ast.CallExpr) bool {
	callee := summary.CalleeOf(fs.st.pass.TypesInfo, call)
	if callee == nil {
		return false
	}
	sum := fs.st.sumOf(callee)
	return sum != nil && len(sum.Releases) > 0
}

// callSiteKey rebases a callee's receiver-relative lock field onto the
// call-site receiver expression: e.helper() whose summary names field "mu"
// yields the held-set key "e.mu".
func callSiteKey(sel *ast.SelectorExpr, field string) string {
	if field == "" || sel == nil {
		return ""
	}
	return types.ExprString(analysis.Unparen(sel.X)) + "." + field
}

// onceDo handles base.once.Do(f): the closure runs with the Once
// write-held, and after the call the Once is read-held on this path.
func (fs *funcState) onceDo(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" || len(call.Args) != 1 {
		return false
	}
	recv, ok := analysis.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, _ := fs.st.pass.TypesInfo.Uses[recv.Sel].(*types.Var)
	if obj == nil || !onceType(obj.Type()) {
		return false
	}
	key := types.ExprString(analysis.Unparen(sel.X))
	if lit, ok := analysis.Unparen(call.Args[0]).(*ast.FuncLit); ok {
		inner := &funcState{st: fs.st, held: map[string]level{key: write}, fresh: make(map[types.Object]bool)}
		inner.stmt(lit.Body)
	} else {
		fs.expr(call.Args[0], false)
	}
	if fs.held[key] < read {
		fs.held[key] = read
	}
	return true
}

// writeTarget checks an assignment target for guarded-field writes, then
// walks its subexpressions as reads.
func (fs *funcState) writeTarget(l ast.Expr) {
	switch l := l.(type) {
	case *ast.SelectorExpr:
		fs.checkAccess(l, write)
		fs.expr(l.X, false)
	case *ast.IndexExpr:
		// Writing an element of a guarded map/slice is a read of the field
		// itself plus a mutation: require the write lock on the field.
		if sel, ok := analysis.Unparen(l.X).(*ast.SelectorExpr); ok {
			fs.checkAccess(sel, write)
			fs.expr(sel.X, false)
		} else {
			fs.expr(l.X, false)
		}
		fs.expr(l.Index, false)
	case *ast.StarExpr:
		fs.expr(l.X, false)
	default:
		fs.expr(l, false)
	}
}

// checkAccess reports a guarded-field access without its lock.
func (fs *funcState) checkAccess(sel *ast.SelectorExpr, need level) {
	field, ok := fs.st.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !field.IsField() {
		return
	}
	g, ok := fs.st.guards[field]
	if !ok || g.Name == "atomic" {
		return
	}
	base := analysis.Unparen(sel.X)
	if id, ok := base.(*ast.Ident); ok && fs.fresh[fs.st.pass.TypesInfo.Uses[id]] {
		return
	}
	key := types.ExprString(base) + "." + g.Name
	got := fs.held[key]
	if got >= need || got == write {
		return
	}
	sib := markers.SiblingField(fs.st.pass, g.Struct, g.Name)
	verb := "read"
	if need == write {
		verb = "write to"
	}
	switch {
	case sib != nil && onceType(sib.Type()) && need == write:
		fs.st.pass.Reportf(sel.Pos(), "%s %s outside its %s.Do closure (guarded-by: %s)",
			verb, types.ExprString(sel), key, g.Name)
	case sib != nil && onceType(sib.Type()):
		fs.st.pass.Reportf(sel.Pos(), "%s of %s before %s.Do on this path (guarded-by: %s)",
			verb, types.ExprString(sel), key, g.Name)
	case need == write && got == read:
		fs.st.pass.Reportf(sel.Pos(), "%s %s while holding only the read lock %s (guarded-by: %s)",
			verb, types.ExprString(sel), key, g.Name)
	default:
		fs.st.pass.Reportf(sel.Pos(), "%s %s without holding %s (guarded-by: %s)",
			verb, types.ExprString(sel), key, g.Name)
	}
}

// trackFresh records locals bound to values allocated by this assignment
// (&T{...}, new(T), or a call named new*/make*), whose guarded fields need
// no lock yet.
func (fs *funcState) trackFresh(s *ast.AssignStmt) {
	if s.Tok != token.DEFINE && s.Tok != token.ASSIGN {
		return
	}
	for i, l := range s.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || i >= len(s.Rhs) {
			continue
		}
		obj := fs.st.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = fs.st.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if freshExpr(s.Rhs[i]) {
			fs.fresh[obj] = true
		} else {
			delete(fs.fresh, obj)
		}
	}
}

func freshExpr(e ast.Expr) bool {
	switch e := analysis.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, lit := analysis.Unparen(e.X).(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := analysis.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// lockCall returns the receiver key of a sync lock-state call ("e.mu" for
// e.mu.Lock()), or "" when call is not one.
func lockCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !lockType(tv.Type) {
		return ""
	}
	return types.ExprString(analysis.Unparen(sel.X))
}

func lockType(t types.Type) bool {
	return namedFrom(t, "sync", "Mutex") || namedFrom(t, "sync", "RWMutex")
}

func onceType(t types.Type) bool {
	return namedFrom(t, "sync", "Once")
}

func atomicType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

func namedFrom(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// terminates reports whether a block always leaves the enclosing statement
// (return, panic, break, continue, goto) on its final statement.
func terminates(b *ast.BlockStmt) bool {
	return terminatesList(b.List)
}

func terminatesList(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return terminatesStmt(list[len(list)-1])
}

func terminatesStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s)
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminatesStmt(s.Else)
	}
	return false
}
