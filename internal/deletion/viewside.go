package deletion

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// ViewOptions tunes the exact solver for the NP-hard classes.
type ViewOptions struct {
	// MaxCandidates caps the number of minimal hitting sets explored
	// (0 = unlimited). When the cap is hit the result is the best found
	// so far and Result is still valid, but optimality is not guaranteed;
	// Exhausted on the result reports this.
	MaxCandidates int
}

// ViewExactResult extends Result with solver metadata.
type ViewExactResult struct {
	Result
	// Candidates is the number of minimal witness-hitting sets examined.
	Candidates int
	// Exhausted reports whether the search space was fully explored; if
	// false the result is the best found within the candidate cap.
	Exhausted bool
}

// ViewExactGroupBasis solves the view side-effect problem exactly for any
// monotone query and any set of targets: it enumerates the minimal hitting
// sets of the targets' combined witnesses and scores each by the non-target
// view tuples it destroys, keeping the first strict minimum. Monotonicity
// makes the optimum a minimal hitting set (deleting more source tuples
// never removes fewer view tuples), so the enumeration is complete.
// Worst-case exponential — Theorems 2.1/2.2 show this is unavoidable.
func ViewExactGroupBasis(res *provenance.Result, targets []relation.Tuple, opt ViewOptions) (*ViewExactResult, error) {
	isTarget, ws, err := groupWitnesses(res, targets)
	if err != nil {
		return nil, err
	}
	out := &ViewExactResult{Exhausted: true}
	bestScore := -1
	consider := func(hs []relation.SourceTuple) bool {
		if opt.MaxCandidates > 0 && out.Candidates == opt.MaxCandidates {
			return false // a candidate beyond the cap: the search is cut short
		}
		out.Candidates++
		effects := deadRows(res, keySet(hs), isTarget)
		if bestScore < 0 || len(effects) < bestScore {
			bestScore = len(effects)
			cp := append([]relation.SourceTuple(nil), hs...)
			out.Result = *finishResult(cp, effects)
		}
		return bestScore != 0
	}
	if !enumerateMinimalHittingSets(ws, consider) {
		out.Exhausted = bestScore == 0
	}
	if bestScore < 0 {
		return nil, fmt.Errorf("deletion: no hitting set for group of %d targets", len(isTarget))
	}
	return out, nil
}

// enumerateMinimalHittingSets visits every minimal hitting set of the
// witness list (as sets of source tuples), calling consider for each; if
// consider returns false enumeration stops early and the function returns
// false. Duplicates are suppressed.
func enumerateMinimalHittingSets(ws []provenance.Witness, consider func([]relation.SourceTuple) bool) bool {
	seen := make(map[string]bool)
	var cur []relation.SourceTuple
	curKeys := make(map[string]bool)

	// isMinimal: every chosen element is the sole hitter of some witness.
	isMinimal := func() bool {
		for _, e := range cur {
			soleSomewhere := false
			for _, w := range ws {
				if !w.Contains(e) {
					continue
				}
				sole := true
				for _, f := range cur {
					if f.Key() != e.Key() && w.Contains(f) {
						sole = false
						break
					}
				}
				if sole {
					soleSomewhere = true
					break
				}
			}
			if !soleSomewhere {
				return false
			}
		}
		return true
	}

	canonical := func() string {
		keys := make([]string, len(cur))
		for i, e := range cur {
			keys[i] = e.Key()
		}
		sortStrings(keys)
		return joinStrings(keys)
	}

	var rec func() bool
	rec = func() bool {
		// Find the first witness not yet hit.
		var pending *provenance.Witness
		for i := range ws {
			hit := false
			for _, st := range ws[i].Tuples() {
				if curKeys[st.Key()] {
					hit = true
					break
				}
			}
			if !hit {
				pending = &ws[i]
				break
			}
		}
		if pending == nil {
			if !isMinimal() {
				return true
			}
			key := canonical()
			if seen[key] {
				return true
			}
			seen[key] = true
			return consider(cur)
		}
		for _, st := range pending.Tuples() {
			if curKeys[st.Key()] {
				continue
			}
			cur = append(cur, st)
			curKeys[st.Key()] = true
			ok := rec()
			cur = cur[:len(cur)-1]
			delete(curKeys, st.Key())
			if !ok {
				return false
			}
		}
		return true
	}
	return rec()
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func joinStrings(ss []string) string {
	n := 0
	for _, s := range ss {
		n += len(s) + 1
	}
	b := make([]byte, 0, n)
	for _, s := range ss {
		b = append(b, s...)
		b = append(b, 1)
	}
	return string(b)
}
