package deletion

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestSolversAgainstOracles runs every solver on random small instances of
// the fragments it serves and checks each answer against the oracles: T
// removes the target, SideEffects equals SideEffectsOf's re-evaluation, and
// the answer is optimal for the objectives its theorem covers (and never
// better than optimal for the rest), by brute force over every subset of
// the source.
func TestSolversAgainstOracles(t *testing.T) {
	type solver struct {
		name               string
		viewOpt, sourceOpt bool // the objectives the answer is optimal for
		solve              func(q algebra.Query, db *relation.Database, target relation.Tuple) (*Result, error)
	}
	poly := solver{"PolyBasis", true, true, func(q algebra.Query, db *relation.Database, target relation.Tuple) (*Result, error) {
		return PolyBasis(basisOf(t, q, db), target)
	}}
	minCut := solver{"SourceChainMinCut", false, true, SourceChainMinCut}
	hard := []solver{
		{"ViewExactGroupBasis", true, false, func(q algebra.Query, db *relation.Database, target relation.Tuple) (*Result, error) {
			r, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target}, ViewOptions{})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}},
		{"SourceExactGroupBasis", false, true, func(q algebra.Query, db *relation.Database, target relation.Tuple) (*Result, error) {
			r, err := SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}},
		{"SourceGreedyGroupBasis", false, false, func(q algebra.Query, db *relation.Database, target relation.Tuple) (*Result, error) {
			r, err := SourceGreedyGroupBasis(basisOf(t, q, db), []relation.Tuple{target})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}},
		{"ViewHeuristicBasis", false, false, func(q algebra.Query, db *relation.Database, target relation.Tuple) (*Result, error) {
			return ViewHeuristicBasis(basisOf(t, q, db), target)
		}},
	}
	cases := []struct {
		fragment string
		build    func(r *rand.Rand) (*relation.Database, algebra.Query)
		solvers  []solver
	}{
		{"SPU", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SPU(r, 2, 4, 3) }, []solver{poly}},
		{"SJ", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SJ(r, 4, 2) }, []solver{poly}},
		{"key join", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.Curation(r, 3, 2) }, []solver{poly, minCut}},
		{"chain", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.Chain(r, 3, 3, 2) }, append([]solver{minCut}, hard...)},
		{"PJ", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.TwoRelationPJ(r, 4, 2) }, hard},
		{"JU", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SJU(r, 2, 2) }, hard},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			db, q := c.build(r)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				continue
			}
			viewOpt, _ := bruteForceViewOptimum(q, db, target)
			sourceOpt := bruteForceSourceOptimum(q, db, target)
			for _, s := range c.solvers {
				at := fmt.Sprintf("%s seed %d, %s on %v", c.fragment, seed, s.name, target)
				res, err := s.solve(q, db, target)
				if err != nil {
					t.Errorf("%s: %v", at, err)
					continue
				}
				effects, gone, err := SideEffectsOf(q, db, res.T, target)
				if err != nil || !gone {
					t.Errorf("%s: T=%v leaves the target (err %v)", at, res.T, err)
					continue
				}
				if fmt.Sprint(effects) != fmt.Sprint(res.SideEffects) {
					t.Errorf("%s: side effects %v, re-evaluation %v", at, res.SideEffects, effects)
				}
				if n := len(res.SideEffects); n < viewOpt || (s.viewOpt && n != viewOpt) {
					t.Errorf("%s: %d side effects, optimum %d", at, n, viewOpt)
				}
				if n := len(res.T); n < sourceOpt || (s.sourceOpt && n != sourceOpt) {
					t.Errorf("%s: %d source deletions, optimum %d", at, n, sourceOpt)
				}
			}
		}
	}
}
