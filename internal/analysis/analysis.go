// Package analysis is a self-contained reimplementation of the
// golang.org/x/tools/go/analysis core on the standard library alone: the
// Analyzer/Pass/Diagnostic/Fact vocabulary — including Requires/ResultOf
// chaining, object and package facts — enough of it for propviewlint's
// invariant checkers and their drivers (driver: whole-module source
// mode, one package at a time in dependency order, and the
// `go vet -vettool` unitchecker protocol). The container this repo builds
// in has no module proxy access, so depending on x/tools is not an
// option; the API mirrors it closely enough that swapping the real
// package in later is a find-and-replace.
//
// # The invariant vocabulary
//
// This package is also the one documented home of the source-level
// contracts the analyzers enforce. Diagnostics reference the markers below;
// the markers are ordinary comments attached to declarations.
//
//   - `propview:read-only` (doc comment of a function or method): every
//     value the function returns aliases snapshot storage owned by the
//     callee and MUST NOT be mutated by the caller — no element writes, no
//     field writes, no append, however many assignments removed from the
//     call. This is the engine's aliasing contract: Relation.ReadOnly,
//     Relation.Tuples, Database.Freeze and Engine.Query all return views of
//     published copy-on-write snapshots whose safety depends on readers
//     staying readers. Functions that merely forward such a result (the
//     propview facade) inherit the contract automatically via facts.
//     Enforced by the snapshotaliasing analyzer.
//
//   - `guarded-by: <field>` (comment on a struct field): the field may be
//     read only while the named sibling lock is held (RLock or Lock for a
//     sync.RWMutex) and written only while it is held exclusively, on an
//     enclosing path of the accessing function. Two special guard names are
//     recognized: `guarded-by: atomic` asserts the field is itself a
//     sync/atomic type (the analyzer verifies the type and requires no
//     lock), and a sibling sync.Once field names the once-initialization
//     discipline — accesses are legal inside the Once.Do callback.
//     Locks taken or released by a helper the function calls count, via
//     the concurrency summaries. Accesses to objects freshly allocated in
//     the same function (not yet published) are exempt. Enforced by the
//     lockguard analyzer.
//
//   - `propview:no-retain` (doc comment of a function or method taking a
//     callback): values yielded to the callback are only valid for the
//     duration of the call — the iterator may reuse cursor or buffer state
//     — so the callback must not let a yielded value escape (no append to
//     an outer slice, no assignment to an outer variable or field, no
//     channel send) without an explicit copy. Relation.Each and the
//     frozen-store walk behind it carry this contract. Enforced by the
//     eachretain analyzer.
//
//   - `propview:generation` (comment on a field): the field is a monotone
//     generation or sequence counter. It may only be advanced — atomic
//     .Add, or a write whose value derives from a generation field
//     (carry-forward or carry+1) — and only reset or arbitrarily stored by
//     functions marked `propview:publish` in their doc comment (the
//     commit/publish path). Reader code must never write it. Enforced by
//     the genmonotonic analyzer.
//
//   - `propview:deterministic` (doc comment of a function or method):
//     the function's observable results are a pure function of its
//     inputs — what makes the paper's answers (a chosen deletion, its
//     side effects, witness lists, an annotation's placement) independent
//     of the run. It sits on the delta evaluator's step and its helpers
//     (internal/annotree), the witness-basis maintenance that drives them
//     (provenance Result.ApplyDeletion and ApplyInsertion) and
//     Engine.Views.
//     Enforced by the maporder analyzer: no returned value whose element
//     order derives from a range over a map unless sorted or gathered
//     into keyed slots first, and no clock or RNG root — time.Now,
//     math/rand, crypto/rand — reachable transitively; callees carrying
//     the marker are trusted here and checked at their own definition.
//     JSON encoding is an order-sensitive sink in every function, marked
//     or not.
//
// A worked maporder diagnostic, from a copy of the tree in which
// annotree.Step returned its delta rows by ranging over the node's new
// annotation map instead of in candidate order:
//
//	internal/annotree/annotree.go:455:2: propview:deterministic function
//	  Step returns a map-ordered value (ordered by range over map at
//	  annotree.go:452); sort it or gather into keyed slots (maporder)
//
// Building the rows in the candidates' first-appearance order, as Step
// does, or sorting them clears the taint and the diagnostic.
//
// # Concurrency summaries
//
// The summary analyzer (internal/analysis/summary) computes a
// per-function concurrency summary: the lock classes the function may
// acquire, directly or transitively through calls, each with a
// human-readable acquisition path; the locks it returns still holding
// (lock helpers) or releases on the caller's behalf (unlock helpers); the
// goroutines it launches with the join evidence found at the launch site;
// and the channel/WaitGroup operations that form join edges. Locks are
// abstracted to classes — `pkgpath.Type.field` for a mutex field,
// `pkgpath.name` for a package-level mutex; locks in local variables are
// instance-scoped and deliberately unclassified. Summaries are exported
// as gob facts, so both drivers see them across package boundaries, and
// two analyzers consume them:
//
//   - lockorder folds every "A held while acquiring B" edge, local and
//     imported, into a global acquisition order and reports any cycle as
//     a potential deadlock, with the full acquisition path of the edge
//     closing the cycle and of the reverse path. Edges flow along import
//     edges only (the vettool fact model), so a cycle split between two
//     packages neither of which imports the other is out of reach by
//     design — in this codebase all shared locks sit below the packages
//     acquiring them.
//   - goroutinelife requires every `go` statement to have a provable
//     join: a WaitGroup Done/Wait balance, a channel hand-off the
//     launcher receives, or a drain registration — the launched code
//     signals on a classifiable channel/WaitGroup some function
//     (anywhere in the fact-visible world) receives from or waits on.
//
// lockguard also consumes the summaries: a callee that acquires or
// releases a guard's mutex (a lock()/unlock() helper) updates the held
// set at the call site, so guarded accesses bracketed by helpers are no
// longer a blind spot.
//
// # Ordering summaries
//
// A second analyzer in the same package, ordersummary, computes the
// determinism-relevant behavior of each function: which results carry
// map-iteration order, which nondeterminism roots (clock, RNG) the
// function reaches transitively, and its deterministic marker. These are
// exported as gob facts alongside the concurrency summaries, and maporder
// reports from them.
//
// A finding that is intentional is suppressed in place with
//
//	//lint:ignore <analyzer> <one-line justification>
//
// on the flagged line or the line above it; the justification is
// mandatory. Suppressions are handled uniformly by the drivers: a
// malformed directive (missing justification), an unknown analyzer
// name, and a directive that suppresses nothing (for instance parked on
// a blank line away from the offending statement) are each reported
// under the synthetic lintdirective name, never silently accepted.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: its name (as used in
// diagnostics and //lint:ignore), documentation, the fact types it
// exchanges across packages, and the per-package Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions.
	Name string
	// Doc is the one-paragraph description printed by -help.
	Doc string
	// Requires lists analyzers whose Run must complete on the same package
	// first; their facts are then in the store and their results available
	// through Pass.ResultOf. The drivers expand a requested analyzer set to
	// include requirements transitively, in dependency order.
	Requires []*Analyzer
	// FactTypes lists the concrete types of facts this analyzer produces
	// and consumes; each must be gob-encodable for the vettool driver.
	FactTypes []Fact
	// Run analyzes one package and reports diagnostics via pass.Report.
	Run func(*Pass) (any, error)
}

// Fact is a serializable observation about a package-level object,
// exported by the analysis of the declaring package and imported by the
// analyses of its dependents — how a contract like "this method's result
// is read-only" crosses package boundaries. Implementations must be
// pointer types registered in FactTypes.
type Fact interface{ AFact() }

// PackageFact pairs a package path with one of its package-level facts,
// as returned by Pass.AllPackageFacts.
type PackageFact struct {
	// Path is the import path of the package the fact describes.
	Path string
	// Fact is the stored fact; its concrete type is the queried type.
	Fact Fact
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries the per-package inputs and sinks of one analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ResultOf holds the Run results of this analyzer's Requires, computed
	// earlier in the same per-package pass — in-memory values (with live
	// token.Pos and types.Object references), unlike facts, which must
	// survive gob serialization.
	ResultOf map[*Analyzer]any

	// Report records one diagnostic; the driver filters suppressions.
	Report func(Diagnostic)

	// ImportObjectFact copies the fact of the given type previously
	// exported for obj into fact, reporting whether one existed.
	ImportObjectFact func(obj types.Object, fact Fact) bool
	// ExportObjectFact records a fact about obj, visible to this pass and
	// to later analyses of packages importing this one.
	ExportObjectFact func(obj types.Object, fact Fact)

	// ImportPackageFact copies the package-level fact of the given type
	// previously exported for pkg into fact, reporting whether one existed.
	ImportPackageFact func(pkg *types.Package, fact Fact) bool
	// ExportPackageFact records a package-level fact about the package
	// under analysis, visible to later analyses of importing packages.
	ExportPackageFact func(fact Fact)
	// AllPackageFacts returns every stored package fact with the same
	// concrete type as fact, from the packages this one transitively
	// imports (never the package under analysis itself). The visible set
	// is deliberately identical in both drivers — the vettool protocol
	// only carries facts along import edges, so the standalone driver
	// restricts itself the same way; a property spanning two packages
	// neither of which imports the other is out of reach for both.
	AllPackageFacts func(fact Fact) []PackageFact
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
