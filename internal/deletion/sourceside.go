package deletion

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/setcover"
)

// SourceExactResult extends Result with the optimum certificate.
type SourceExactResult struct {
	Result
	// Witnesses is the number of witnesses of the targets that had to be
	// hit.
	Witnesses int
}

// SourceExactGroupBasis solves the source side-effect problem exactly for
// any monotone query and any set of targets: the minimum source deletion
// is precisely a minimum hitting set of the targets' combined witnesses,
// solved by branch and bound. Worst-case exponential (Theorems 2.5/2.7:
// set-cover hard).
func SourceExactGroupBasis(res *provenance.Result, targets []relation.Tuple) (*SourceExactResult, error) {
	return sourceBasis(res, targets, setcover.ExactHittingSet)
}

// SourceGreedyGroupBasis approximates the source side-effect problem with
// the greedy hitting-set algorithm, guaranteeing a deletion of size at most
// H(#witnesses) times the optimum — the approximation the paper's
// set-cover connection (Theorems 2.5, 2.7 and the Feige threshold) shows
// is essentially best possible for the NP-hard classes.
func SourceGreedyGroupBasis(res *provenance.Result, targets []relation.Tuple) (*SourceExactResult, error) {
	return sourceBasis(res, targets, setcover.GreedyHittingSet)
}

// sourceBasis hits every witness of every target with the given hitting-set
// solver and reads side-effects off the basis.
func sourceBasis(res *provenance.Result, targets []relation.Tuple, solve func(*setcover.Instance) ([]int, error)) (*SourceExactResult, error) {
	isTarget, ws, err := groupWitnesses(res, targets)
	if err != nil {
		return nil, err
	}
	in, elems, err := witnessesToInstance(ws)
	if err != nil {
		return nil, err
	}
	chosen, err := solve(in)
	if err != nil {
		return nil, fmt.Errorf("deletion: %w", err)
	}
	T := make([]relation.SourceTuple, len(chosen))
	for i, e := range chosen {
		T[i] = elems[e]
	}
	return &SourceExactResult{
		Result:    *finishResult(T, deadRows(res, keySet(T), isTarget)),
		Witnesses: len(ws),
	}, nil
}

// witnessesToInstance converts a witness list into a hitting-set instance:
// elements are the distinct source tuples, sets the witnesses.
func witnessesToInstance(ws []provenance.Witness) (*setcover.Instance, []relation.SourceTuple, error) {
	index := make(map[string]int)
	var elems []relation.SourceTuple
	sets := make([][]int, len(ws))
	for i, w := range ws {
		for _, st := range w.Tuples() {
			k := st.Key()
			id, ok := index[k]
			if !ok {
				id = len(elems)
				index[k] = id
				elems = append(elems, st)
			}
			sets[i] = append(sets[i], id)
		}
	}
	in, err := setcover.NewInstance(len(elems), sets...)
	if err != nil {
		return nil, nil, err
	}
	return in, elems, nil
}
