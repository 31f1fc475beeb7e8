// Package propview is the public facade of the reproduction of Buneman,
// Khanna and Tan, "On Propagation of Deletions and Annotations Through
// Views" (PODS 2002). It re-exports the data model, the monotone
// relational algebra, and the three routed problem solvers:
//
//	db, _ := propview.ReadDatabaseString(src)
//	q, _  := propview.ParseQuery("project(user, file; join(UserGroup, GroupFile))")
//	rep, _ := propview.Delete(q, db, target, propview.MinimizeViewSideEffects, propview.DeleteOptions{})
//	ann, _ := propview.Annotate(q, db, target, "file")
//
// The full machinery (witness bases, reductions, workload generators)
// lives in the internal packages; this facade covers the operations a
// downstream user of the paper's results needs.
package propview

import (
	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// Data model re-exports.
type (
	// Database is a named collection of relations (the source S).
	Database = relation.Database
	// Relation is a named set of tuples over a schema.
	Relation = relation.Relation
	// Schema is an ordered list of attribute names.
	Schema = relation.Schema
	// Tuple is a positional list of values.
	Tuple = relation.Tuple
	// Value is a single attribute value.
	Value = relation.Value
	// Location is an annotatable (relation, tuple, attribute) triple.
	Location = relation.Location
	// SourceTuple names one tuple of one source relation.
	SourceTuple = relation.SourceTuple
	// Attribute names a column.
	Attribute = relation.Attribute
)

// Query model re-exports.
type (
	// Query is a monotone SPJRU relational-algebra expression.
	Query = algebra.Query
	// Condition is a selection predicate.
	Condition = algebra.Condition
	// Problem identifies one of the paper's three problems.
	Problem = algebra.Problem
	// Class is P or NP-hard.
	Class = algebra.Class
)

// Solver re-exports.
type (
	// DeleteReport is a routed deletion outcome.
	DeleteReport = core.DeleteReport
	// DeleteOptions tunes the NP-hard solvers.
	DeleteOptions = core.DeleteOptions
	// Objective picks view- or source-side minimization.
	Objective = core.Objective
	// AnnotateReport is a routed annotation placement outcome.
	AnnotateReport = core.AnnotateReport
	// Placement is a solved annotation placement.
	Placement = annotation.Placement
	// DeletionResult is a solved deletion instance.
	DeletionResult = deletion.Result
	// Witness is a minimal source subset supporting a view tuple.
	Witness = provenance.Witness
)

// The two deletion objectives.
const (
	MinimizeViewSideEffects = core.MinimizeViewSideEffects
	MinimizeSourceDeletions = core.MinimizeSourceDeletions
)

// The three problems, for Classify and DichotomyTable.
const (
	ProblemViewSideEffect      = algebra.ProblemViewSideEffect
	ProblemSourceSideEffect    = algebra.ProblemSourceSideEffect
	ProblemAnnotationPlacement = algebra.ProblemAnnotationPlacement
)

// Database construction and IO.
var (
	// NewDatabase creates an empty database.
	NewDatabase = relation.NewDatabase
	// NewRelation creates an empty relation with a schema.
	NewRelation = relation.New
	// NewSchema builds a schema from attribute names.
	NewSchema = relation.NewSchema
	// StringTuple builds a tuple of string constants.
	StringTuple = relation.StringTuple
	// String and Int build single values.
	String = relation.String
	Int    = relation.Int
	// ReadDatabaseString parses the text database format.
	ReadDatabaseString = relation.ReadDatabaseString
	// WriteDatabaseString renders a database in the text format.
	WriteDatabaseString = relation.WriteDatabaseString
)

// Query construction and evaluation.
var (
	// ParseQuery parses the textual query syntax.
	ParseQuery = algebra.Parse
	// FormatQuery renders a query in the textual syntax.
	FormatQuery = algebra.Format
	// Eval evaluates a query, returning the view.
	Eval = algebra.Eval
	// Normalize rewrites a query to the Theorem 3.1 normal form.
	Normalize = algebra.Normalize
	// OptimizeJoins reorders join operands (view- and propagation-
	// preserving).
	OptimizeJoins = algebra.OptimizeJoins
	// EvalWithStats evaluates with per-operator work counters.
	EvalWithStats = algebra.EvalWithStats
	// Classify applies the dichotomy tables to a query.
	Classify = algebra.Classify
	// Fragment names the operator fragment of a query ("PJ", "SPU", ...).
	Fragment = algebra.Fragment
)

// Problem solvers.
var (
	// Delete removes a view tuple via source deletions, routed by class.
	Delete = core.Delete
	// Annotate places an annotation on a view location, routed by class.
	Annotate = core.Annotate
	// Witnesses computes the minimal witnesses (why-provenance) of every
	// view tuple.
	Witnesses = provenance.Compute
	// Proofs enumerates proof trees (why-provenance in its original form)
	// of a view tuple.
	Proofs = provenance.Proofs
	// ForwardPropagate computes the view locations annotated from one
	// source location (where-provenance, forward direction).
	ForwardPropagate = annotation.ForwardPropagate
	// PlaceAll solves annotation placement for every view cell at once.
	PlaceAll = annotation.PlaceAll
	// NewAnnotationStore creates a separate-database annotation store
	// supporting annotations on annotations.
	NewAnnotationStore = annotation.NewStore
	// NewView wraps a query and database into a stateful view with cached
	// provenance and routed updates.
	NewView = core.NewView
	// DichotomyTable computes a complexity table from the classifier.
	DichotomyTable = core.DichotomyTable
	// FormatTable renders a dichotomy table.
	FormatTable = core.FormatTable
)

// Prepared-view serving layer (internal/engine): the long-lived object a
// server holds when the solvers must answer sustained traffic. Prepare
// runs the algebra layer once and caches the witness basis and
// where-provenance index; deletions are solved on the cached basis, and
// both deletions (Engine.Delete/DeleteGroup) and source-side insertions
// (Engine.Insert — including restoring exactly the tuples a previous
// delete removed) are maintained incrementally; readers and writers are
// safe to run concurrently. Writes enter one bounded queue that commits
// batch by batch in order (Engine.Close drains it): deletes queued back to
// back against the same view share one group solve, queued inserts share
// one source extension, and a commit maintains its views one after
// another. EngineOptions tunes the batch cap and the write queue bound.
type (
	// Engine serves prepared views with cached provenance.
	Engine = engine.Engine
	// EngineOptions tunes the engine's write pipeline (max batch size,
	// write queue bound); the zero value means defaults.
	EngineOptions = engine.Options
	// EngineStats summarizes an engine's cached state and traffic.
	EngineStats = engine.Stats
	// StoreStats summarizes the versioned source store inside EngineStats
	// (structure sharing, overlay shape, compactions) — read it via
	// Engine.Stats().Store. Database.StoreStats reports the chain of a
	// database you version yourself; note Engine.Database() returns a
	// freshly frozen snapshot whose lifetime counters start at zero.
	StoreStats = relation.StoreStats
	// EngineViewStats describes one prepared view inside EngineStats.
	EngineViewStats = engine.ViewStats
	// TreeStats summarizes one prepared view's provenance-tree store
	// (node-overlay shape, structure sharing, O(Δ) maintenance work and
	// compactions) — read it via EngineViewStats.Tree.
	TreeStats = provenance.TreeStats
	// ViewPage is one lexicographically sorted page of a prepared view,
	// served by Engine.QueryPage off the per-snapshot sorted cache.
	ViewPage = engine.ViewPage
	// InsertReport is the outcome of a committed Engine.Insert.
	InsertReport = engine.InsertReport
	// InsertViewUpdate is one view's post-insert size and generation.
	InsertViewUpdate = engine.InsertViewUpdate
	// WitnessLimit caps witness-basis computation (Engine.PrepareLimited,
	// Witnesses via ComputeLimited).
	WitnessLimit = provenance.Limit
)

var (
	// NewEngine creates a prepared-view engine over a private copy of db;
	// an optional EngineOptions tunes the write pipeline.
	NewEngine = engine.New
)

// Engine sentinel errors.
var (
	// ErrUnknownView reports a request against a view that was never
	// prepared.
	ErrUnknownView = engine.ErrUnknownView
	// ErrUnknownRelation reports an Insert naming a source relation the
	// engine's database does not have.
	ErrUnknownRelation = engine.ErrUnknownRelation
	// ErrPrepareConflict reports a Prepare reusing a name for a different
	// query.
	ErrPrepareConflict = engine.ErrConflict
	// ErrWitnessLimit reports a WitnessLimit exceeded (wrapped).
	ErrWitnessLimit = provenance.ErrLimit
	// ErrOverloaded reports a write refused by a full write queue
	// (wrapped; EngineOptions.MaxQueue).
	ErrOverloaded = engine.ErrOverloaded
	// ErrEngineClosed reports a write that arrived after Engine.Close.
	ErrEngineClosed = engine.ErrClosed
)

// Higher-level types.
type (
	// View is the stateful query+database wrapper.
	View = core.View
	// AnnotationStore holds annotations separately from the data.
	AnnotationStore = annotation.Store
	// Annotation is one stored annotation.
	Annotation = annotation.Annotation
	// ProofTree is a single derivation of a view tuple.
	ProofTree = provenance.ProofTree
	// CellPlacement pairs a view cell with its optimal placement.
	CellPlacement = annotation.CellPlacement
)
