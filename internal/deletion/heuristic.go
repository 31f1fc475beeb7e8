package deletion

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// ViewHeuristicBasis is a best-effort polynomial heuristic for the view
// side-effect problem on NP-hard inputs: it builds a hitting set of the
// target's witnesses greedily, at each step choosing the source tuple that
// hits the most remaining witnesses while (tie-break) destroying the
// fewest additional view tuples.
//
// No quality guarantee is possible — the paper shows even deciding
// side-effect-freeness is NP-hard, so the problem is inapproximable — but
// the heuristic is a practical fallback when ViewExactGroupBasis's search
// space explodes, and the ablation bench quantifies the quality gap.
func ViewHeuristicBasis(res *provenance.Result, target relation.Tuple) (*Result, error) {
	ws := res.Witnesses(target)
	if len(ws) == 0 {
		return nil, fmt.Errorf("%w: %v", ErrNotInView, target)
	}
	isTarget := map[string]bool{target.Key(): true}
	remaining := make([]provenance.Witness, len(ws))
	copy(remaining, ws)
	chosen := make(map[string]relation.SourceTuple)

	for len(remaining) > 0 {
		// Candidate tuples: anything in a remaining witness.
		hitCount := make(map[string]int)
		byKey := make(map[string]relation.SourceTuple)
		for _, w := range remaining {
			for _, st := range w.Tuples() {
				k := st.Key()
				hitCount[k]++
				byKey[k] = st
			}
		}
		// Pick max hits; tie-break on marginal view damage, then key.
		bestKey := ""
		bestHits := -1
		bestDamage := -1
		for k, hits := range hitCount {
			if hits < bestHits {
				continue
			}
			hit := make(map[string]bool, len(chosen)+1)
			for c := range chosen {
				hit[c] = true
			}
			hit[k] = true
			damage := len(deadRows(res, hit, isTarget))
			if hits > bestHits ||
				(hits == bestHits && (damage < bestDamage || (damage == bestDamage && k < bestKey))) {
				bestKey, bestHits, bestDamage = k, hits, damage
			}
		}
		chosen[bestKey] = byKey[bestKey]
		// Drop hit witnesses.
		var next []provenance.Witness
		for _, w := range remaining {
			if !w.Contains(byKey[bestKey]) {
				next = append(next, w)
			}
		}
		remaining = next
	}

	T := make([]relation.SourceTuple, 0, len(chosen))
	for _, st := range chosen {
		T = append(T, st)
	}
	return finishResult(T, deadRows(res, keySet(T), isTarget)), nil
}
