package deletion

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// GroupTargets dedups and validates a target list against the view.
func GroupTargets(view *relation.Relation, targets []relation.Tuple) ([]relation.Tuple, error) {
	seen := make(map[string]bool, len(targets))
	var out []relation.Tuple
	for _, t := range targets {
		if !view.Contains(t) {
			return nil, fmt.Errorf("%w: %v", ErrNotInView, t)
		}
		if !seen[t.Key()] {
			seen[t.Key()] = true
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("deletion: empty target set")
	}
	return out, nil
}

// groupWitnesses validates targets against res's view and returns their
// key set and the concatenation of their witness bases: a group deletion
// must hit every witness of every target (Cui–Widom translate batches of
// view deletions the same way).
func groupWitnesses(res *provenance.Result, targets []relation.Tuple) (map[string]bool, []provenance.Witness, error) {
	targets, err := GroupTargets(res.View, targets)
	if err != nil {
		return nil, nil, err
	}
	isTarget := make(map[string]bool, len(targets))
	var ws []provenance.Witness
	for _, t := range targets {
		isTarget[t.Key()] = true
		ws = append(ws, res.Witnesses(t)...)
	}
	return isTarget, ws, nil
}

// PolyBasis solves both deletion problems exactly, in polynomial time, when
// the target's witnesses have one of the two shapes behind the paper's
// polynomial cases:
//
//   - every witness is a single source tuple, as for SPU queries
//     (Theorems 2.3/2.8): the only minimal deletion is all of them;
//   - the target has one witness, as for SJ queries and joins on keys
//     (Theorems 2.4/2.9, §2.1.1 remark): every minimal deletion is one
//     component, and the component that destroys the fewest other view
//     tuples (the first in witness order on a tie) is optimal for both
//     objectives.
//
// It returns ErrNotPoly for any other basis.
func PolyBasis(res *provenance.Result, target relation.Tuple) (*Result, error) {
	ws := res.Witnesses(target)
	if len(ws) == 0 {
		return nil, fmt.Errorf("%w: %v", ErrNotInView, target)
	}
	isTarget := map[string]bool{target.Key(): true}
	singletons := make([]relation.SourceTuple, 0, len(ws))
	for _, w := range ws {
		if w.Len() != 1 {
			break
		}
		singletons = append(singletons, w.Tuples()[0])
	}
	if len(singletons) == len(ws) {
		return finishResult(singletons, deadRows(res, keySet(singletons), isTarget)), nil
	}
	if len(ws) != 1 {
		return nil, fmt.Errorf("%w: %v has %d witnesses", ErrNotPoly, target, len(ws))
	}
	var best *Result
	for _, comp := range ws[0].Tuples() {
		T := []relation.SourceTuple{comp}
		dead := deadRows(res, keySet(T), isTarget)
		if best == nil || len(dead) < len(best.SideEffects) {
			best = &Result{T: T, SideEffects: dead}
		}
		if len(dead) == 0 {
			break
		}
	}
	return finishResult(best.T, best.SideEffects), nil
}
