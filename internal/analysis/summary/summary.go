// Package summary computes per-function concurrency summaries: which lock
// classes a function may acquire (transitively, through calls), which locks
// it returns still holding or releases on behalf of its caller, which
// goroutines it launches, and which channel/WaitGroup join edges it
// participates in. The summaries are exported as gob facts, so both drivers
// — the standalone loader and the `go vet -vettool` unitchecker — see them
// across package boundaries; the lockorder and goroutinelife analyzers, and
// the summary-aware half of lockguard, are layered on top.
//
// # The model
//
// Locks are abstracted to classes: `pkgpath.Type.field` for a mutex field
// (whatever expression it is reached through) and `pkgpath.name` for a
// package-level mutex. Locks held in local variables have no class and are
// invisible — they are instance-scoped and cannot participate in a global
// order. Mutexes embedded anonymously (promoted Lock methods) are likewise
// not classified, matching lockguard.
//
// Within one function the walk tracks the held set path-sensitively the
// same way lockguard does (branch merge, terminator heuristic, deferred
// unlocks releasing at return). Every acquisition while other classes are
// held emits a lock-order edge; every call site splices the callee's
// summary — its possible acquisitions extend the caller's, with the call
// step prepended to the acquisition path, and its net-held and released
// locks update the caller's held set. A `go` statement deliberately does
// NOT splice: the launched code runs concurrently, so its acquisitions
// order against nothing in the launcher (they still produce edges of their
// own, from the goroutine's internal nesting).
package summary

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer computes the summaries. It reports no diagnostics itself; it
// exists for its facts and its Result.
var Analyzer = &analysis.Analyzer{
	Name:      "summary",
	Doc:       "computes per-function concurrency summaries (lock classes, goroutine launches, join edges) for the interprocedural analyzers",
	FactTypes: []analysis.Fact{(*FuncFact)(nil), (*PkgFact)(nil)},
	Run:       run,
}

// Acquire is one lock class a function may (transitively) acquire, with a
// human-readable acquisition path from the function's entry.
type Acquire struct {
	Class string
	// Path lists the steps from the function's entry to the acquisition,
	// each "file:line: who does what"; capped, with "..." marking truncation.
	Path []string
}

// HeldLock names a lock class with the receiver-relative selector path to
// reach it (empty when the lock is not a field of the receiver) and how
// strongly it is held ("read" or "write").
type HeldLock struct {
	Class string
	// Field is the selector path from the function's receiver ("mu",
	// "bt.mu"), letting a caller rebase the lock onto its own expression
	// for the callee's receiver; empty for package-level locks or locks
	// not reached through the receiver.
	Field string
	Level string
}

// Launch is one `go` statement in a function.
type Launch struct {
	Pos    string // "file:line" of the go statement
	Callee string // launched named function, "" for a func literal
	// Proof is the join evidence found at the launch site itself:
	// "waitgroup" (Done inside, Wait in the launcher), "channel" (send or
	// close inside, receive in the launcher), or "" when the site alone
	// proves nothing.
	Proof string
	// JoinClasses lists the chan/WaitGroup classes the launched code
	// signals on (send, close, or Done); goroutinelife matches them against
	// receivers elsewhere — the graceful-shutdown drain pattern.
	JoinClasses []string
}

// ChanOp is a send/close/recv on a classifiable channel (a struct field or
// package-level var).
type ChanOp struct {
	Class string
	Op    string // "send", "close", "recv"
}

// WgOp is an Add/Done/Wait on a classifiable sync.WaitGroup.
type WgOp struct {
	Class string
	Op    string // "add", "done", "wait"
}

// FuncSummary is the concurrency behavior of one function, as visible to
// its callers.
type FuncSummary struct {
	// Acquires lists every lock class the function may acquire, directly
	// or through calls.
	Acquires []Acquire
	// NetHeld lists locks held on return that were not held on entry
	// (a lock-and-return helper).
	NetHeld []HeldLock
	// Releases lists locks the function unlocks without acquiring — it
	// releases them on behalf of the caller.
	Releases []HeldLock
	// Launches lists the function's go statements.
	Launches []Launch
	// ChanOps and WgOps record join-protocol events on classifiable
	// channels and WaitGroups, including those of callees.
	ChanOps []ChanOp
	WgOps   []WgOp
}

func (s *FuncSummary) empty() bool {
	return len(s.Acquires) == 0 && len(s.NetHeld) == 0 && len(s.Releases) == 0 &&
		len(s.Launches) == 0 && len(s.ChanOps) == 0 && len(s.WgOps) == 0
}

// FuncFact exports a function's summary across package boundaries.
type FuncFact struct{ S FuncSummary }

func (*FuncFact) AFact() {}

// Edge is one lock-order observation: From was held when To was acquired.
type Edge struct {
	From, To string
	// Path is the acquisition path: where From was taken, then the steps
	// (calls and acquisitions) leading to To.
	Path []string
}

// PkgFact aggregates a package's contribution to the global concurrency
// picture: its lock-order edges and the join classes its functions receive
// from or wait on (the other half of a cross-function drain edge).
type PkgFact struct {
	Edges []Edge
	Joins []string
}

func (*PkgFact) AFact() {}

// LocalEdge is an Edge with a live position for reporting.
type LocalEdge struct {
	Edge
	Pos token.Pos
}

// LocalLaunch is a Launch with a live position and its enclosing function.
type LocalLaunch struct {
	Launch
	Pos      token.Pos
	FuncName string
}

// Result is the in-memory view dependent analyzers read via Pass.ResultOf.
type Result struct {
	// Funcs maps this package's functions to their summaries.
	Funcs map[*types.Func]*FuncSummary
	// Edges are the lock-order edges observed in this package (including
	// edges spliced through calls into other packages).
	Edges []LocalEdge
	// Launches are this package's go statements.
	Launches []LocalLaunch
	// Joins are the chan/WaitGroup classes some function in this package
	// receives from or waits on.
	Joins map[string]bool
}

func run(pass *analysis.Pass) (any, error) {
	w := newWork(pass)

	// Summaries of mutually-recursive or forward-referenced functions feed
	// each other, so iterate Jacobi-style to a fixpoint: each round reads
	// the previous round's summaries and rebuilds everything from scratch
	// (edges and launches included, so nothing is double-counted).
	prev := ""
	for iter := 0; iter <= len(w.decls)+1; iter++ {
		w.reset()
		for _, d := range w.decls {
			w.walkFunc(d)
		}
		w.sums = w.next
		sig := signature(w.sums)
		if sig == prev {
			break
		}
		prev = sig
	}

	sort.Slice(w.edges, func(i, j int) bool {
		a, b := w.edges[i], w.edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})

	joins := make(map[string]bool)
	for _, sum := range w.sums {
		for _, c := range sum.ChanOps {
			if c.Op == "recv" {
				joins[c.Class] = true
			}
		}
		for _, g := range sum.WgOps {
			if g.Op == "wait" {
				joins[g.Class] = true
			}
		}
	}

	for obj, sum := range w.sums {
		if !sum.empty() {
			pass.ExportObjectFact(obj, &FuncFact{S: *sum})
		}
	}
	pkgEdges := make([]Edge, len(w.edges))
	for i, e := range w.edges {
		pkgEdges[i] = e.Edge
	}
	joinList := make([]string, 0, len(joins))
	for c := range joins {
		joinList = append(joinList, c)
	}
	sort.Strings(joinList)
	if len(pkgEdges) > 0 || len(joinList) > 0 {
		pass.ExportPackageFact(&PkgFact{Edges: pkgEdges, Joins: joinList})
	}

	return &Result{Funcs: w.sums, Edges: w.edges, Launches: w.launches, Joins: joins}, nil
}

// signature renders the summary map deterministically, for fixpoint
// comparison. Within one round every slice is appended in walk order, so
// equal behavior yields equal strings.
func signature(sums map[*types.Func]*FuncSummary) string {
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
