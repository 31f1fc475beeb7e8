package annotation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestViewOrderMatchesEvalAndAcrossAnnotations pins the order of the view
// rows, not just their set. A built witness basis and a built where index
// list the view in algebra.Eval's order (Eval is the independent
// evaluator; it shares no code with the annotated trees). Under a random
// delete/restore script, the two maintained views keep listing the same
// rows in the same order after every step, and those rows are Eval's.
func TestViewOrderMatchesEvalAndAcrossAnnotations(t *testing.T) {
	gens := []struct {
		name string
		gen  func(r *rand.Rand) (*relation.Database, algebra.Query)
	}{
		{"UserGroupFile", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.UserGroupFile(r, 8, 4, 6, 2, 2)
		}},
		{"TwoRelationPJ", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.TwoRelationPJ(r, 12, 4) }},
		{"Chain", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.Chain(r, 3, 8, 4) }},
		{"SPU", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SPU(r, 3, 10, 4) }},
		{"SJ", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SJ(r, 10, 4) }},
		{"SJU", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SJU(r, 10, 4) }},
		{"Curation", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.Curation(r, 8, 3) }},
	}
	const seeds, steps = 20, 10
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				r := rand.New(rand.NewSource(seed))
				db, q := g.gen(r)
				res, err := provenance.Compute(q, db)
				if err != nil {
					t.Fatal(err)
				}
				wv, err := ComputeWhere(q, db)
				if err != nil {
					t.Fatal(err)
				}
				want, err := algebra.Eval(q, db)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d built", seed)
				sameOrder(t, label+" witness view vs Eval", res.View.Tuples(), want.Tuples())
				sameOrder(t, label+" where view vs Eval", wv.View.Tuples(), want.Tuples())

				var graveyard []relation.SourceTuple
				for step := 0; step < steps; step++ {
					label := fmt.Sprintf("seed %d step %d", seed, step)
					if len(graveyard) > 0 && r.Intn(2) == 0 {
						k := 1 + r.Intn(len(graveyard))
						I := graveyard[:k:k]
						graveyard = graveyard[k:]
						if db, err = db.InsertAll(I); err != nil {
							t.Fatal(err)
						}
						if res, err = res.ApplyInsertion(I); err != nil {
							t.Fatal(err)
						}
						wv = wv.ApplyInsertion(I)
					} else {
						all := db.AllSourceTuples()
						if len(all) == 0 {
							continue
						}
						var T []relation.SourceTuple
						for i, n := 0, 1+r.Intn(3); i < n; i++ {
							T = append(T, all[r.Intn(len(all))])
						}
						db = db.DeleteAll(T)
						res = res.ApplyDeletion(T)
						wv = wv.ApplyDeletion(T)
						graveyard = append(graveyard, T...)
						graveyard = dedupSource(graveyard)
					}
					sameOrder(t, label+" witness view vs where view", res.View.Tuples(), wv.View.Tuples())
					want, err := algebra.Eval(q, db)
					if err != nil {
						t.Fatal(err)
					}
					sameOrder(t, label+" sorted witness view vs Eval", res.View.SortedTuples(), want.SortedTuples())
				}
			}
		})
	}
}

// dedupSource drops repeated source tuples, keeping first occurrences.
func dedupSource(ts []relation.SourceTuple) []relation.SourceTuple {
	seen := make(map[string]bool, len(ts))
	out := ts[:0]
	for _, st := range ts {
		if k := st.Key(); !seen[k] {
			seen[k] = true
			out = append(out, st)
		}
	}
	return out
}

// sameOrder fails unless got and want list the same rows in the same
// order.
func sameOrder(t *testing.T, label string, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: row %d is %v, want %v\n got: %v\nwant: %v", label, i, got[i], want[i], got, want)
		}
	}
}
