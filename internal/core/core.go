// Package core is the top-level API of the reproduction: it routes each of
// the paper's three problems — view side-effect deletion, source
// side-effect deletion, annotation placement — to the right algorithm
// according to the dichotomy tables, and reports which complexity class
// and algorithm applied.
//
// The three dichotomies (§2.1, §2.2, §3.1):
//
//	problem            PJ        JU        SPU   SJ/SJU
//	view side-effect   NP-hard   NP-hard   P     P (SJ)
//	source side-effect NP-hard   NP-hard   P     P (SJ)
//	annotation         NP-hard   P (SJU)   P     P
//
// An annotation placement goes to annotation.Place, which routes itself:
// SPU queries take Theorem 3.3's linear scan, every other query the
// candidate scan of its where-provenance.
//
// A deletion builds the view's witness basis at most once and routes on
// it: the polynomial cases — SPU, SJ, and views whose every tuple has one
// witness — go to deletion.PolyBasis, and the NP-hard ones to SolveBasis,
// which the prepared-view engine (internal/engine) calls on its maintained
// basis too: exact solvers (worst-case exponential, with caps) or, for
// source minimization, an optional greedy H_n-approximation. Chain joins
// minimizing source deletions take Theorem 2.6's min cut and build no
// basis.
package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/deletion"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// Objective selects which quantity a deletion minimizes.
type Objective uint8

// The two objectives of §2.
const (
	// MinimizeViewSideEffects is the view side-effect problem (§2.1).
	MinimizeViewSideEffects Objective = iota
	// MinimizeSourceDeletions is the source side-effect problem (§2.2).
	MinimizeSourceDeletions
)

// String names the objective.
func (o Objective) String() string {
	if o == MinimizeViewSideEffects {
		return "minimize view side-effects"
	}
	return "minimize source deletions"
}

// DeleteOptions tunes the solvers used on NP-hard inputs.
type DeleteOptions struct {
	// MaxWitnesses caps the witness basis per view tuple on the NP-hard
	// routes (0 = unlimited); the SPU and SJ bases are built uncapped.
	MaxWitnesses int
	// MaxCandidates caps the view-side exact search (0 = unlimited).
	MaxCandidates int
	// Greedy switches the source objective on NP-hard inputs to the
	// greedy hitting-set approximation instead of the exact solver.
	Greedy bool
}

// DeleteReport is the outcome of a routed deletion request.
type DeleteReport struct {
	// Class is the complexity class of the query for the problem.
	Class algebra.Class
	// Fragment is the query's operator fragment (e.g. "PJ", "SPU").
	Fragment string
	// Algorithm names the algorithm that ran.
	Algorithm string
	// Result is the computed deletion.
	Result *deletion.Result
	// Exact reports whether the result is certified optimal.
	Exact bool
	// ViewSize and Generation describe the committed snapshot of the view
	// the deletion was served against, captured inside the commit — so a
	// server composing a response never pairs this report with a LATER
	// generation's view size. Filled by the prepared-view engine
	// (internal/engine); zero for the one-shot router below, which has no
	// generation to report.
	ViewSize   int
	Generation int64
}

// Delete removes the target tuple from the view Q(S) by deleting source
// tuples, minimizing the requested objective. The algorithm is chosen by
// the dichotomy:
//
//   - chain-join PJ queries minimizing source deletions use the min-cut
//     algorithm of Theorem 2.6, which needs no witness basis;
//   - every other route builds the witness basis once: SPU queries (whose
//     witnesses are singletons, Theorems 2.3/2.8), SJ queries (one witness
//     per tuple, Theorems 2.4/2.9) and, for the view objective, queries
//     whose every view tuple has one witness (joins on keys, the §2.1.1
//     remark) use deletion.PolyBasis; everything else uses SolveBasis.
//
// opts.MaxWitnesses caps the basis on the NP-hard routes only; the SPU and
// SJ bases are polynomial and built uncapped.
func Delete(q algebra.Query, db *relation.Database, target relation.Tuple, obj Objective, opts DeleteOptions) (*DeleteReport, error) {
	return deleteWith(q, db, target, obj, opts, nil)
}

// computeBasis builds a view's witness basis; a package variable so tests
// can count the builds.
var computeBasis = provenance.ComputeLimited

// deleteWith is Delete. A route that needs the uncapped witness basis
// takes it from uncapped when that is non-nil, instead of building its
// own; a capped route always builds its own, so ErrLimit behaves as in
// Delete.
func deleteWith(q algebra.Query, db *relation.Database, target relation.Tuple, obj Objective, opts DeleteOptions, uncapped func() (*provenance.Result, error)) (*DeleteReport, error) {
	ops := algebra.OperatorsOf(q)
	var problem algebra.Problem
	if obj == MinimizeViewSideEffects {
		problem = algebra.ProblemViewSideEffect
	} else {
		problem = algebra.ProblemSourceSideEffect
	}
	report := &DeleteReport{
		Class:    algebra.ClassifyOps(ops, problem),
		Fragment: algebra.Fragment(q),
	}

	isSPU := !ops.HasAny(algebra.OpJoin | algebra.OpRename)
	isSJ := !ops.HasAny(algebra.OpProject | algebra.OpUnion | algebra.OpRename)
	lim := provenance.Limit{}
	if !isSPU && !isSJ {
		if obj == MinimizeSourceDeletions {
			if _, err := deletion.DetectChain(q, db); err == nil {
				res, err := deletion.SourceChainMinCut(q, db, target)
				if err != nil {
					return nil, err
				}
				report.Algorithm = "chain-join min cut (Thm 2.6)"
				report.Result = res
				report.Exact = true
				return report, nil
			}
		}
		lim.MaxWitnesses = opts.MaxWitnesses
	}
	var res *provenance.Result
	var err error
	if lim.MaxWitnesses == 0 && uncapped != nil {
		res, err = uncapped()
	} else {
		res, err = computeBasis(q, db, lim)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case isSPU:
		report.Algorithm = "SPU unique solution (Thm 2.3/2.8)"
	case isSJ:
		report.Algorithm = "SJ single witness (Thm 2.4/2.9)"
	case obj == MinimizeViewSideEffects && res.WitnessCount() == res.View.Len():
		report.Algorithm = "unique-witness key join (§2.1.1 remark)"
	default:
		if err := SolveBasis(report, res, []relation.Tuple{target}, obj, opts); err != nil {
			return nil, err
		}
		return report, nil
	}
	report.Result, err = deletion.PolyBasis(res, target)
	if err != nil {
		return nil, err
	}
	report.Exact = true
	return report, nil
}

// SolveBasis fills report's Algorithm, Result and Exact from the witness
// basis solver that obj and opts select for the NP-hard classes: the exact
// minimal-hitting-set search for the view objective (exact unless
// opts.MaxCandidates cut it short), and for the source objective the exact
// minimum hitting set or, with opts.Greedy, the greedy H_n-approximation.
// One solve covers every target.
func SolveBasis(report *DeleteReport, res *provenance.Result, targets []relation.Tuple, obj Objective, opts DeleteOptions) error {
	switch {
	case obj == MinimizeViewSideEffects:
		r, err := deletion.ViewExactGroupBasis(res, targets, deletion.ViewOptions{MaxCandidates: opts.MaxCandidates})
		if err != nil {
			return err
		}
		report.Algorithm = "exact minimal-hitting-set search"
		report.Result = &r.Result
		report.Exact = r.Exhausted
	case opts.Greedy:
		r, err := deletion.SourceGreedyGroupBasis(res, targets)
		if err != nil {
			return err
		}
		report.Algorithm = "greedy hitting set (H_n-approx)"
		report.Result = &r.Result
		report.Exact = false
	default:
		r, err := deletion.SourceExactGroupBasis(res, targets)
		if err != nil {
			return err
		}
		report.Algorithm = "exact minimum hitting set"
		report.Result = &r.Result
		report.Exact = true
	}
	return nil
}

// AnnotateReport is the outcome of a routed annotation placement request.
type AnnotateReport struct {
	Class     algebra.Class
	Fragment  string
	Algorithm string
	Placement *annotation.Placement
}

// Annotate places an annotation on view location (target, attr) with
// minimal side-effects through annotation.Place, which routes by the §3.1
// dichotomy (annotation.Route), and reports the class, fragment and
// algorithm.
func Annotate(q algebra.Query, db *relation.Database, target relation.Tuple, attr relation.Attribute) (*AnnotateReport, error) {
	p, err := annotation.Place(q, db, target, attr)
	if err != nil {
		return nil, err
	}
	ops := algebra.OperatorsOf(q)
	_, alg := annotation.Route(ops)
	return &AnnotateReport{
		Class:     algebra.ClassifyOps(ops, algebra.ProblemAnnotationPlacement),
		Fragment:  algebra.Fragment(q),
		Algorithm: alg,
		Placement: p,
	}, nil
}

// TableRow is one line of a dichotomy table.
type TableRow struct {
	Fragment string
	Class    algebra.Class
}

// DichotomyTable returns the paper's table for the given problem, computed
// from the live classifier (not hard-coded) over representative queries of
// each fragment.
func DichotomyTable(p algebra.Problem) []TableRow {
	fragments := []struct {
		name string
		ops  algebra.Ops
	}{
		{"queries involving PJ", algebra.OpProject | algebra.OpJoin},
		{"queries involving JU", algebra.OpJoin | algebra.OpUnion},
		{"SPU", algebra.OpSelect | algebra.OpProject | algebra.OpUnion},
		{"SJ", algebra.OpSelect | algebra.OpJoin},
		{"SJU", algebra.OpSelect | algebra.OpJoin | algebra.OpUnion},
	}
	rows := make([]TableRow, 0, len(fragments))
	for _, f := range fragments {
		rows = append(rows, TableRow{
			Fragment: f.name,
			Class:    algebra.ClassifyOps(f.ops, p),
		})
	}
	return rows
}

// FormatTable renders a dichotomy table in the paper's layout.
func FormatTable(p algebra.Problem) string {
	out := fmt.Sprintf("%-24s %s\n", "Query class", p)
	for _, row := range DichotomyTable(p) {
		out += fmt.Sprintf("%-24s %s\n", row.Fragment, row.Class)
	}
	return out
}
