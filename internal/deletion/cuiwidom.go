package deletion

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// CuiWidomResult reports the outcome of the lineage-enumeration baseline.
type CuiWidomResult struct {
	Result
	// Evaluations counts how many times the query was re-evaluated on a
	// candidate deletion — the cost driver of the baseline. The unchanged
	// view is evaluated once more, up front, and not counted.
	Evaluations int
	// Found reports whether any translation within the caps removed the
	// target.
	Found bool
}

// CuiWidomOptions bounds the baseline's search.
type CuiWidomOptions struct {
	// MaxSubsetSize caps the size of candidate deletion sets
	// (0 = up to the full lineage).
	MaxSubsetSize int
	// MaxEvaluations caps query re-evaluations (0 = unlimited).
	MaxEvaluations int
}

// CuiWidom is the baseline deletion translator after Cui and Widom [14,15]:
// it computes the lineage of the target (their per-relation "lineage
// tables") and then enumerates candidate source deletions drawn from it in
// increasing size, re-evaluating the view for each candidate, until it
// finds a side-effect-free translation; failing that, it returns the
// candidate with the fewest side-effects among those that remove the
// target. The paper (§1, Related Work) points out the intrinsic cost of
// this scheme: enumerating all witnesses is NP-hard, which surfaces here
// as the exponential candidate enumeration.
func CuiWidom(q algebra.Query, db *relation.Database, target relation.Tuple, opt CuiWidomOptions) (*CuiWidomResult, error) {
	lin, err := provenance.LineageOf(q, db, target)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotInView, err)
	}
	cand := lin.Tuples()
	maxSize := opt.MaxSubsetSize
	if maxSize <= 0 || maxSize > len(cand) {
		maxSize = len(cand)
	}
	before, err := algebra.Eval(q, db)
	if err != nil {
		return nil, err
	}
	out := &CuiWidomResult{}
	bestEffects := -1

	evalCandidate := func(T []relation.SourceTuple) (stop bool, err error) {
		out.Evaluations++
		effects, gone, err := sideEffectsFrom(before, q, db, T, target)
		if err != nil {
			return true, err
		}
		if gone {
			if bestEffects < 0 || len(effects) < bestEffects ||
				(len(effects) == bestEffects && len(T) < len(out.T)) {
				bestEffects = len(effects)
				cp := append([]relation.SourceTuple(nil), T...)
				out.Result = *finishResult(cp, effects)
				out.Found = true
			}
			if bestEffects == 0 {
				return true, nil
			}
		}
		if opt.MaxEvaluations > 0 && out.Evaluations >= opt.MaxEvaluations {
			return true, nil
		}
		return false, nil
	}

	// Enumerate subsets of the lineage in increasing size.
	idx := make([]int, 0, maxSize)
	var rec func(start, size int) (bool, error)
	rec = func(start, size int) (bool, error) {
		if len(idx) == size {
			T := make([]relation.SourceTuple, size)
			for i, j := range idx {
				T[i] = cand[j]
			}
			return evalCandidate(T)
		}
		for j := start; j < len(cand); j++ {
			idx = append(idx, j)
			stop, err := rec(j+1, size)
			idx = idx[:len(idx)-1]
			if err != nil || stop {
				return stop, err
			}
		}
		return false, nil
	}
	for size := 1; size <= maxSize; size++ {
		stop, err := rec(0, size)
		if err != nil {
			return nil, err
		}
		if stop {
			break
		}
	}
	if !out.Found {
		return out, fmt.Errorf("deletion: Cui–Widom search found no translation within caps (evaluations=%d)", out.Evaluations)
	}
	return out, nil
}
