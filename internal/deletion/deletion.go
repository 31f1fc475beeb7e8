// Package deletion implements the paper's two view-deletion problems over
// monotone SPJRU queries:
//
//   - the view side-effect problem (§2.1): find source deletions that
//     remove a given view tuple while deleting as few other view tuples as
//     possible (and decide whether a side-effect-free deletion exists);
//   - the source side-effect problem (§2.2): remove the view tuple with as
//     few source deletions as possible.
//
// Every solver but one takes the view's witness basis (*provenance.Result),
// because every result of the paper is a property of a view tuple's
// witnesses: PolyBasis solves the polynomial cases, where the target's
// witnesses are all singletons (SPU, Theorems 2.3/2.8) or the target has
// one witness (SJ and key joins, Theorems 2.4/2.9 and the §2.1.1 remark);
// ViewExactGroupBasis, SourceExactGroupBasis and SourceGreedyGroupBasis
// solve the NP-hard classes (PJ, JU) as hitting-set problems over the
// witnesses, the greedy one within the O(log n) factor of Theorems 2.5 and
// 2.7; ViewHeuristicBasis is a polynomial fallback without a guarantee.
// Side effects are read off the basis: a view tuple dies iff every one of
// its witnesses meets the deleted set.
//
// SourceChainMinCut (Theorem 2.6) works on the query and the instance,
// because a chain join's basis can be exponential while its minimum cut is
// polynomial; CuiWidom, the lineage-enumeration baseline the paper compares
// against, and the SideEffectsOf oracle re-evaluate the query.
package deletion

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// Result is a solved deletion-propagation instance.
type Result struct {
	// T is the set of source tuples to delete, sorted.
	T []relation.SourceTuple
	// SideEffects lists the view tuples other than the target that
	// disappear when T is deleted, sorted.
	SideEffects []relation.Tuple
}

// SideEffectFree reports whether only the target view tuple is removed.
func (r *Result) SideEffectFree() bool { return len(r.SideEffects) == 0 }

// String renders the result compactly.
func (r *Result) String() string {
	return fmt.Sprintf("delete %d source tuple(s), %d view side-effect(s)", len(r.T), len(r.SideEffects))
}

// ErrNotInView is returned when the target tuple is not in Q(S).
var ErrNotInView = fmt.Errorf("deletion: target tuple not in view")

// ErrNotPoly is returned by PolyBasis when the target's witnesses are
// neither all singletons nor a single witness.
var ErrNotPoly = fmt.Errorf("deletion: target's witnesses are neither all singletons nor unique")

// SideEffectsOf computes, by direct re-evaluation, the view tuples other
// than target that are lost when T is deleted from db. It also reports
// whether the target itself was removed. This is the ground-truth checker
// used by tests and by SourceChainMinCut, which builds no witness basis.
func SideEffectsOf(q algebra.Query, db *relation.Database, T []relation.SourceTuple, target relation.Tuple) (effects []relation.Tuple, targetGone bool, err error) {
	before, err := algebra.Eval(q, db)
	if err != nil {
		return nil, false, err
	}
	return sideEffectsFrom(before, q, db, T, target)
}

// sideEffectsFrom is SideEffectsOf given before, the view q(db).
func sideEffectsFrom(before *relation.Relation, q algebra.Query, db *relation.Database, T []relation.SourceTuple, target relation.Tuple) (effects []relation.Tuple, targetGone bool, err error) {
	after, err := algebra.Eval(q, db.DeleteAll(T))
	if err != nil {
		return nil, false, err
	}
	for _, t := range before.Minus(after) {
		if t.Equal(target) {
			targetGone = true
			continue
		}
		effects = append(effects, t)
	}
	sortTuples(effects)
	return effects, targetGone, nil
}

func sortTuples(ts []relation.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}

func finishResult(T []relation.SourceTuple, effects []relation.Tuple) *Result {
	relation.SortSourceTuples(T)
	sortTuples(effects)
	return &Result{T: T, SideEffects: effects}
}

// destroyedBy reports whether deleting the tuples in hit (a key set)
// destroys every witness of a view tuple.
func destroyedBy(witnesses []provenance.Witness, hit map[string]bool) bool {
	for _, w := range witnesses {
		intersects := false
		for _, k := range w.Keys() {
			if hit[k] {
				intersects = true
				break
			}
		}
		if !intersects {
			return false
		}
	}
	return true
}

// deadRows returns the view tuples outside isTarget that deleting the
// tuples in deleted (a key set) destroys: those whose every witness is hit.
// Equivalent to SideEffectsOf but without re-evaluating the query.
func deadRows(res *provenance.Result, deleted, isTarget map[string]bool) []relation.Tuple {
	var out []relation.Tuple
	for _, vt := range res.View.Tuples() {
		if destroyedBy(res.Witnesses(vt), deleted) && !isTarget[vt.Key()] {
			out = append(out, vt)
		}
	}
	return out
}

func keySet(ts []relation.SourceTuple) map[string]bool {
	m := make(map[string]bool, len(ts))
	for _, t := range ts {
		m[t.Key()] = true
	}
	return m
}
