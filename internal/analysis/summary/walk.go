package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// maxPath bounds the human-readable acquisition paths carried in facts.
const maxPath = 6

// heldLock is one entry of the path-sensitive held set.
type heldLock struct {
	class string
	level string // "read" or "write"
	must  bool   // held on every merged path (vs. some)
	field string // receiver-relative selector path, "" if none
	at    string // the step that acquired it, for edge paths
}

// work is the per-package state shared by all function walks of one
// fixpoint round.
type work struct {
	pass     *analysis.Pass
	decls    []*ast.FuncDecl
	objs     map[*ast.FuncDecl]*types.Func
	local    map[*types.Func]bool
	sums     map[*types.Func]*FuncSummary // previous round (read)
	next     map[*types.Func]*FuncSummary // current round (write)
	edges    []LocalEdge
	edgeSeen map[string]bool
	launches []LocalLaunch
}

func newWork(pass *analysis.Pass) *work {
	w := &work{
		pass:  pass,
		objs:  make(map[*ast.FuncDecl]*types.Func),
		local: make(map[*types.Func]bool),
		sums:  make(map[*types.Func]*FuncSummary),
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
			w.decls = append(w.decls, fd)
			w.objs[fd] = obj
			w.local[obj] = true
		}
	}
	return w
}

func (w *work) reset() {
	w.next = make(map[*types.Func]*FuncSummary)
	w.edges = nil
	w.edgeSeen = make(map[string]bool)
	w.launches = nil
}

// lookup resolves a callee's summary: same-package functions from the
// previous fixpoint round, imported ones from their exported fact.
func (w *work) lookup(f *types.Func) *FuncSummary {
	if w.local[f] {
		return w.sums[f]
	}
	var ff FuncFact
	if w.pass.ImportObjectFact(f, &ff) {
		return &ff.S
	}
	return nil
}

// edge records a From-held-while-acquiring-To observation, first one per
// (From, To) pair wins within a round.
func (w *work) edge(from heldLock, to string, path []string, pos token.Pos) {
	if from.class == to {
		return
	}
	key := from.class + "\x00" + to
	if w.edgeSeen[key] {
		return
	}
	w.edgeSeen[key] = true
	full := append([]string{from.at}, path...)
	if len(full) > maxPath {
		full = append(full[:maxPath:maxPath], "...")
	}
	w.edges = append(w.edges, LocalEdge{Edge: Edge{From: from.class, To: to, Path: full}, Pos: pos})
}

func (w *work) walkFunc(fd *ast.FuncDecl) {
	obj := w.objs[fd]
	fw := &funcWalker{
		w:        w,
		name:     displayName(obj),
		sum:      &FuncSummary{},
		root:     fd.Body,
		held:     make(map[string]heldLock),
		deferred: make(map[string]bool),
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		fw.recv = w.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	}
	fw.stmts(fd.Body.List)

	var classes []string
	for c := range fw.held {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		h := fw.held[c]
		if h.must && !fw.deferred[c] {
			fw.sum.NetHeld = append(fw.sum.NetHeld, HeldLock{Class: h.class, Field: h.field, Level: h.level})
		}
	}
	w.next[obj] = fw.sum
}

type funcWalker struct {
	w        *work
	name     string
	recv     types.Object // receiver var, or nil
	root     *ast.BlockStmt
	sum      *FuncSummary
	held     map[string]heldLock
	deferred map[string]bool // classes released by a deferred unlock
}

// ---- statement walk -------------------------------------------------------

func (fw *funcWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		fw.stmt(s)
	}
}

func (fw *funcWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		fw.stmts(s.List)
	case *ast.ExprStmt:
		fw.expr(s.X, true)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			fw.expr(r, false)
		}
		for _, l := range s.Lhs {
			fw.expr(l, false)
		}
	case *ast.IncDecStmt:
		fw.expr(s.X, false)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fw.expr(r, false)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			fw.stmt(s.Init)
		}
		fw.expr(s.Cond, false)
		fw.branch(s.Body, s.Else)
	case *ast.ForStmt:
		if s.Init != nil {
			fw.stmt(s.Init)
		}
		if s.Cond != nil {
			fw.expr(s.Cond, false)
		}
		if s.Post != nil {
			fw.stmt(s.Post)
		}
		fw.branch(s.Body, nil)
	case *ast.RangeStmt:
		fw.expr(s.X, false)
		if tv, ok := fw.w.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				fw.chanOp(s.X, "recv")
			}
		}
		fw.branch(s.Body, nil)
	case *ast.SwitchStmt:
		if s.Init != nil {
			fw.stmt(s.Init)
		}
		if s.Tag != nil {
			fw.expr(s.Tag, false)
		}
		fw.caseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			fw.stmt(s.Init)
		}
		fw.stmt(s.Assign)
		fw.caseBodies(s.Body)
	case *ast.SelectStmt:
		fw.caseBodies(s.Body)
	case *ast.DeferStmt:
		fw.deferCall(s.Call)
	case *ast.GoStmt:
		fw.goStmt(s)
	case *ast.SendStmt:
		fw.chanOp(s.Chan, "send")
		fw.expr(s.Value, false)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fw.expr(v, false)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		fw.stmt(s.Stmt)
	}
}

// branch walks a conditional body (and optional else) and union-merges the
// held set: a lock held on only one path stays in the set as may-held
// (must=false) — conservative for edge emission — while must-held needs
// every path. Terminating branches discard their changes, as in lockguard.
func (fw *funcWalker) branch(body *ast.BlockStmt, els ast.Stmt) {
	entry := fw.snapshot()
	fw.stmts(body.List)
	after := fw.snapshot()
	if terminates(body) {
		after = entry
	}
	if els != nil {
		fw.restore(entry)
		fw.stmt(els)
		if !terminatesStmt(els) {
			after = mergeHeld(after, fw.snapshot())
		}
	} else {
		after = mergeHeld(after, entry)
	}
	fw.restore(after)
}

func (fw *funcWalker) caseBodies(body *ast.BlockStmt) {
	entry := fw.snapshot()
	after := entry
	for _, cs := range body.List {
		fw.restore(entry)
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				fw.expr(e, false)
			}
			fw.stmts(cs.Body)
			if !terminatesList(cs.Body) {
				after = mergeHeld(after, fw.snapshot())
			}
		case *ast.CommClause:
			if cs.Comm != nil {
				fw.stmt(cs.Comm)
			}
			fw.stmts(cs.Body)
			if !terminatesList(cs.Body) {
				after = mergeHeld(after, fw.snapshot())
			}
		}
	}
	fw.restore(after)
}

func (fw *funcWalker) snapshot() map[string]heldLock {
	cp := make(map[string]heldLock, len(fw.held))
	for k, v := range fw.held {
		cp[k] = v
	}
	return cp
}

func (fw *funcWalker) restore(m map[string]heldLock) {
	fw.held = make(map[string]heldLock, len(m))
	for k, v := range m {
		fw.held[k] = v
	}
}

func mergeHeld(a, b map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(a)+len(b))
	for k, va := range a {
		if vb, ok := b[k]; ok {
			va.must = va.must && vb.must
			if vb.level == "read" {
				va.level = "read"
			}
		} else {
			va.must = false
		}
		out[k] = va
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			vb.must = false
			out[k] = vb
		}
	}
	return out
}

// ---- expression walk ------------------------------------------------------

func (fw *funcWalker) expr(e ast.Expr, stmtPos bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		fw.call(e, stmtPos)
	case *ast.FuncLit:
		fw.anon(e)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			fw.chanOp(e.X, "recv")
		}
		fw.expr(e.X, false)
	case *ast.ParenExpr:
		fw.expr(e.X, stmtPos)
	case *ast.SelectorExpr:
		fw.expr(e.X, false)
	case *ast.BinaryExpr:
		fw.expr(e.X, false)
		fw.expr(e.Y, false)
	case *ast.StarExpr:
		fw.expr(e.X, false)
	case *ast.IndexExpr:
		fw.expr(e.X, false)
		fw.expr(e.Index, false)
	case *ast.SliceExpr:
		fw.expr(e.X, false)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				fw.expr(idx, false)
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fw.expr(kv.Value, false)
			} else {
				fw.expr(el, false)
			}
		}
	case *ast.TypeAssertExpr:
		fw.expr(e.X, false)
	case *ast.KeyValueExpr:
		fw.expr(e.Key, false)
		fw.expr(e.Value, false)
	}
}

// anon walks a function literal as its own anonymous function: empty held
// set (it may run on another goroutine), edges shared with the package,
// summary discarded.
func (fw *funcWalker) anon(lit *ast.FuncLit) {
	fw.anonSum(lit)
}

func (fw *funcWalker) anonSum(lit *ast.FuncLit) *FuncSummary {
	inner := &funcWalker{
		w:        fw.w,
		name:     fw.name + ".func",
		root:     lit.Body,
		sum:      &FuncSummary{},
		held:     make(map[string]heldLock),
		deferred: make(map[string]bool),
	}
	inner.stmts(lit.Body.List)
	return inner.sum
}

func (fw *funcWalker) call(call *ast.CallExpr, stmtPos bool) {
	info := fw.w.pass.TypesInfo
	fun := analysis.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			fw.chanOp(call.Args[0], "close")
			fw.expr(call.Args[0], false)
			return
		}
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok {
			if isLockMethod(sel.Sel.Name) && lockType(tv.Type) {
				// A lock call in value position (`if mu.TryLock()`) proves
				// nothing; only statement-position calls mutate held state.
				if stmtPos {
					fw.lockOp(sel)
				}
				fw.expr(sel.X, false)
				return
			}
			if isWgMethod(sel.Sel.Name) && wgType(tv.Type) {
				fw.wgOp(sel.X, strings.ToLower(sel.Sel.Name))
				fw.expr(sel.X, false)
				for _, a := range call.Args {
					fw.expr(a, false)
				}
				return
			}
		}
	}

	if callee := calleeOf(info, call); callee != nil {
		fw.splice(call, callee)
	}
	fw.expr(call.Fun, false)
	for _, a := range call.Args {
		fw.expr(a, false)
	}
}

// lockOp applies a statement-position Lock/Unlock-family call.
func (fw *funcWalker) lockOp(sel *ast.SelectorExpr) {
	class, field := fw.classOf(sel.X)
	if class == "" {
		return // local lock: instance-scoped, no class
	}
	pos := posStr(fw.w.pass.Fset, sel.Pos())
	switch sel.Sel.Name {
	case "Lock", "RLock":
		level := "write"
		if sel.Sel.Name == "RLock" {
			level = "read"
		}
		step := fmt.Sprintf("%s: %s acquires %s", pos, fw.name, class)
		for _, h := range sortedHeld(fw.held) {
			fw.w.edge(h, class, []string{step}, sel.Pos())
		}
		fw.held[class] = heldLock{class: class, level: level, must: true, field: field, at: step}
		fw.addAcquire(class, []string{step})
	case "Unlock", "RUnlock":
		if _, ok := fw.held[class]; ok {
			delete(fw.held, class)
			return
		}
		level := "write"
		if sel.Sel.Name == "RUnlock" {
			level = "read"
		}
		fw.addRelease(HeldLock{Class: class, Field: field, Level: level})
	}
}

// deferCall handles defer statements: a deferred unlock releases at
// return (the lock stays held for the rest of the walk), a deferred call
// contributes its releases and join events, a deferred literal is scanned
// for the same.
func (fw *funcWalker) deferCall(call *ast.CallExpr) {
	info := fw.w.pass.TypesInfo
	fun := analysis.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			fw.addExitSignal(fw.chanOp(call.Args[0], "close"))
			return
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok {
			if isLockMethod(sel.Sel.Name) && lockType(tv.Type) {
				if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
					fw.deferRelease(sel)
				}
				return
			}
			if isWgMethod(sel.Sel.Name) && wgType(tv.Type) {
				class := fw.wgOp(sel.X, strings.ToLower(sel.Sel.Name))
				if sel.Sel.Name == "Done" {
					fw.addExitSignal(class)
				}
				return
			}
		}
	}
	if lit, ok := fun.(*ast.FuncLit); ok {
		fw.deferLit(lit)
		return
	}
	if callee := calleeOf(info, call); callee != nil {
		if calleeSum := fw.w.lookup(callee); calleeSum != nil {
			for _, rel := range calleeSum.Releases {
				if _, ok := fw.held[rel.Class]; ok {
					fw.deferred[rel.Class] = true
				} else {
					fw.addRelease(HeldLock{Class: rel.Class, Field: fw.rebase(call, callee, rel.Field), Level: rel.Level})
				}
			}
			fw.mergeOps(calleeSum)
			for _, c := range calleeSum.ChanOps {
				if c.Op == "send" || c.Op == "close" {
					fw.addExitSignal(c.Class)
				}
			}
			for _, g := range calleeSum.WgOps {
				if g.Op == "done" {
					fw.addExitSignal(g.Class)
				}
			}
		}
	}
	for _, a := range call.Args {
		fw.expr(a, false)
	}
}

func (fw *funcWalker) deferRelease(sel *ast.SelectorExpr) {
	class, field := fw.classOf(sel.X)
	if class == "" {
		return
	}
	if _, ok := fw.held[class]; ok {
		fw.deferred[class] = true
		return
	}
	level := "write"
	if sel.Sel.Name == "RUnlock" {
		level = "read"
	}
	fw.addRelease(HeldLock{Class: class, Field: field, Level: level})
}

// deferLit scans a deferred func literal for unlocks and exit signals
// (the common `defer func() { mu.Unlock(); close(done) }()` shapes).
func (fw *funcWalker) deferLit(lit *ast.FuncLit) {
	info := fw.w.pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == lit
		case *ast.CallExpr:
			fun := analysis.Unparen(n.Fun)
			if id, ok := fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					fw.addExitSignal(fw.chanOp(n.Args[0], "close"))
				}
			}
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				if tv, ok := info.Types[sel.X]; ok && lockType(tv.Type) &&
					(sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock") {
					fw.deferRelease(sel)
				}
				if tv, ok := info.Types[sel.X]; ok && wgType(tv.Type) && sel.Sel.Name == "Done" {
					fw.addExitSignal(fw.wgOp(sel.X, "done"))
				}
			}
		case *ast.SendStmt:
			fw.addExitSignal(fw.chanOp(n.Chan, "send"))
		}
		return true
	})
}

// splice folds a callee's summary into the walk at a call site: its
// possible acquisitions extend ours (and order against everything held
// here), its net-held locks join the held set, its releases leave it.
func (fw *funcWalker) splice(call *ast.CallExpr, callee *types.Func) {
	calleeSum := fw.w.lookup(callee)
	if calleeSum == nil {
		return
	}
	callStep := fmt.Sprintf("%s: %s calls %s", posStr(fw.w.pass.Fset, call.Pos()), fw.name, callee.Name())

	for _, acq := range calleeSum.Acquires {
		path := append([]string{callStep}, acq.Path...)
		for _, h := range sortedHeld(fw.held) {
			fw.w.edge(h, acq.Class, path, call.Pos())
		}
		fw.addAcquire(acq.Class, path)
	}
	for _, nh := range calleeSum.NetHeld {
		if _, ok := fw.held[nh.Class]; !ok {
			fw.held[nh.Class] = heldLock{class: nh.Class, level: nh.Level, must: true,
				field: fw.rebase(call, callee, nh.Field), at: callStep}
		}
	}
	for _, rel := range calleeSum.Releases {
		if _, ok := fw.held[rel.Class]; ok {
			delete(fw.held, rel.Class)
		} else {
			fw.addRelease(HeldLock{Class: rel.Class, Field: fw.rebase(call, callee, rel.Field), Level: rel.Level})
		}
	}
	fw.mergeOps(calleeSum)
}

// rebase translates a callee's receiver-relative lock field onto this
// function's receiver: calling e.bt.helper() whose NetHeld field is "mu"
// yields "bt.mu" when e is our receiver. Empty when the chain does not
// root at our receiver.
func (fw *funcWalker) rebase(call *ast.CallExpr, callee *types.Func, field string) string {
	if field == "" || fw.recv == nil {
		return ""
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	rp, ok := relPath(fw.w.pass.TypesInfo, sel.X, fw.recv)
	if !ok {
		return ""
	}
	if rp == "" {
		return field
	}
	return rp + "." + field
}

func (fw *funcWalker) mergeOps(calleeSum *FuncSummary) {
	for _, c := range calleeSum.ChanOps {
		fw.addChanOp(c.Class, c.Op)
	}
	for _, g := range calleeSum.WgOps {
		fw.addWgOp(g.Class, g.Op)
	}
}

// ---- go statements --------------------------------------------------------

func (fw *funcWalker) goStmt(s *ast.GoStmt) {
	call := s.Call
	info := fw.w.pass.TypesInfo
	l := Launch{Pos: posStr(fw.w.pass.Fset, s.Pos())}

	if lit, ok := analysis.Unparen(call.Fun).(*ast.FuncLit); ok {
		l.JoinClasses = fw.anonSum(lit).ExitSignals
		l.Proof = fw.joinProof(lit)
	} else if callee := calleeOf(info, call); callee != nil {
		l.Callee = displayName(callee)
		if calleeSum := fw.w.lookup(callee); calleeSum != nil {
			l.JoinClasses = calleeSum.ExitSignals
		}
		fw.expr(call.Fun, false)
	} else {
		fw.expr(call.Fun, false)
	}
	for _, a := range call.Args {
		fw.expr(a, false)
	}

	l.JoinClasses = append([]string(nil), l.JoinClasses...) // sorted below; the summary keeps walk order
	sort.Strings(l.JoinClasses)
	fw.sum.Launches = append(fw.sum.Launches, l)
	fw.w.launches = append(fw.w.launches, LocalLaunch{Launch: l, Pos: s.Pos(), FuncName: fw.name})
}

// joinProof looks for launch-site join evidence: the literal signals on a
// WaitGroup or channel expression the enclosing function waits on or
// receives from.
func (fw *funcWalker) joinProof(lit *ast.FuncLit) string {
	info := fw.w.pass.TypesInfo
	wgSignals := make(map[string]bool)
	chSignals := make(map[string]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := analysis.Unparen(n.Fun)
			if id, ok := fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					chSignals[types.ExprString(analysis.Unparen(n.Args[0]))] = true
				}
			}
			if sel, ok := fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if tv, ok := info.Types[sel.X]; ok && wgType(tv.Type) {
					wgSignals[types.ExprString(analysis.Unparen(sel.X))] = true
				}
			}
		case *ast.SendStmt:
			chSignals[types.ExprString(analysis.Unparen(n.Chan))] = true
		}
		return true
	})
	if len(wgSignals) == 0 && len(chSignals) == 0 {
		return ""
	}
	proof := ""
	ast.Inspect(fw.root, func(n ast.Node) bool {
		if proof != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := analysis.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if tv, ok := info.Types[sel.X]; ok && wgType(tv.Type) &&
					wgSignals[types.ExprString(analysis.Unparen(sel.X))] {
					proof = "waitgroup"
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && chSignals[types.ExprString(analysis.Unparen(n.X))] {
				proof = "channel"
			}
		case *ast.RangeStmt:
			if chSignals[types.ExprString(analysis.Unparen(n.X))] {
				proof = "channel"
			}
		}
		return true
	})
	return proof
}

// ---- channel / waitgroup events -------------------------------------------

// chanOp records op on e's class and returns the class, "" for a local.
func (fw *funcWalker) chanOp(e ast.Expr, op string) string {
	class, _ := fw.classOf(e)
	if class != "" {
		fw.addChanOp(class, op)
	}
	return class
}

// wgOp records op on e's class and returns the class, "" for a local.
func (fw *funcWalker) wgOp(e ast.Expr, op string) string {
	class, _ := fw.classOf(e)
	if class != "" {
		fw.addWgOp(class, op)
	}
	return class
}

// ---- summary accumulation (deduplicated, walk order) ----------------------

func (fw *funcWalker) addAcquire(class string, path []string) {
	for _, a := range fw.sum.Acquires {
		if a.Class == class {
			return
		}
	}
	if len(path) > maxPath {
		path = append(path[:maxPath:maxPath], "...")
	}
	fw.sum.Acquires = append(fw.sum.Acquires, Acquire{Class: class, Path: path})
}

func (fw *funcWalker) addRelease(h HeldLock) {
	for _, r := range fw.sum.Releases {
		if r.Class == h.Class {
			return
		}
	}
	fw.sum.Releases = append(fw.sum.Releases, h)
}

func (fw *funcWalker) addChanOp(class, op string) {
	for _, c := range fw.sum.ChanOps {
		if c.Class == class && c.Op == op {
			return
		}
	}
	fw.sum.ChanOps = append(fw.sum.ChanOps, ChanOp{Class: class, Op: op})
}

func (fw *funcWalker) addExitSignal(class string) {
	if class == "" || slices.Contains(fw.sum.ExitSignals, class) {
		return
	}
	fw.sum.ExitSignals = append(fw.sum.ExitSignals, class)
}

func (fw *funcWalker) addWgOp(class, op string) {
	for _, g := range fw.sum.WgOps {
		if g.Class == class && g.Op == op {
			return
		}
	}
	fw.sum.WgOps = append(fw.sum.WgOps, WgOp{Class: class, Op: op})
}

// ---- classification helpers -----------------------------------------------

// classOf abstracts a lock/chan/WaitGroup expression to its global class:
// pkgpath.Type.field for struct fields, pkgpath.name for package-level
// vars, "" for locals. The second result is the receiver-relative selector
// path when the expression roots at the current function's receiver.
func (fw *funcWalker) classOf(e ast.Expr) (string, string) {
	info := fw.w.pass.TypesInfo
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), ""
		}
	case *ast.SelectorExpr:
		fobj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok {
			return "", ""
		}
		if !fobj.IsField() {
			// pkg.Var: a package-level lock reached through a qualifier.
			if fobj.Pkg() != nil && fobj.Parent() == fobj.Pkg().Scope() {
				return fobj.Pkg().Path() + "." + fobj.Name(), ""
			}
			return "", ""
		}
		tv, ok := info.Types[e.X]
		if !ok {
			return "", ""
		}
		named, ok := derefNamed(tv.Type)
		if !ok || named.Obj().Pkg() == nil {
			return "", ""
		}
		class := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
		field := ""
		if rp, ok := relPath(info, e, fw.recv); ok {
			field = rp
		}
		return class, field
	}
	return "", ""
}

// relPath returns the selector path from recv to e ("" when e is recv
// itself), or ok=false when e does not root at recv.
func relPath(info *types.Info, e ast.Expr, recv types.Object) (string, bool) {
	if recv == nil {
		return "", false
	}
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		if info.Uses[e] == recv {
			return "", true
		}
	case *ast.SelectorExpr:
		if p, ok := relPath(info, e.X, recv); ok {
			if p == "" {
				return e.Sel.Name, true
			}
			return p + "." + e.Sel.Name, true
		}
	}
	return "", false
}

func sortedHeld(held map[string]heldLock) []heldLock {
	out := make([]heldLock, 0, len(held))
	for _, h := range held {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// CalleeOf resolves the statically-known callee of a call expression, or
// nil (builtin, conversion, or dynamic call). Shared by the summary
// consumers.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	return calleeOf(info, call)
}

func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func isLockMethod(name string) bool {
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

func isWgMethod(name string) bool {
	switch name {
	case "Add", "Done", "Wait":
		return true
	}
	return false
}

func lockType(t types.Type) bool {
	return namedFrom(t, "sync", "Mutex") || namedFrom(t, "sync", "RWMutex")
}

func wgType(t types.Type) bool {
	return namedFrom(t, "sync", "WaitGroup")
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

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

func displayName(obj *types.Func) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefNamed(sig.Recv().Type()); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Name()
}

func posStr(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// terminates reports whether a block always leaves the enclosing statement
// on its final statement (shared shape with lockguard's walk).
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
