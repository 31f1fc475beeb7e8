package annotree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/workload"
)

// presence is the smallest algebra: a row's annotation says only that the
// row is there. Insertions add a candidate the node lacks; deletions
// recompute from the live pre-images, so projections keep a pre-image
// index. Under it a tree's rows are the query's rows, which makes
// algebra.Eval an independent oracle for the evaluator's candidates,
// probes, indexes and sharing, with no witness or location algebra
// involved.
type presence struct{}

func (presence) Scan(string, []relation.Attribute, relation.Tuple, string) bool { return true }
func (presence) Lift(_ []int, a bool) bool                                      { return a }
func (presence) Join(_ []SrcPos, l, r bool) bool                                { return l && r }
func (presence) Add(acc, c bool) bool                                           { return acc || c }
func (presence) Grow(_ bool, had bool, acc bool) (bool, bool, bool, error) {
	return true, true, !had, nil
}
func (presence) Shrink(_, _ bool, live bool) (bool, bool, bool) { return live, live, false }
func (presence) Recomputes() bool                               { return true }

// sameRows fails unless root holds exactly want's rows.
func sameRows(t *testing.T, label string, root *Node[bool], want *relation.Relation) {
	t.Helper()
	if got := root.ann.Size(); got != want.Len() {
		t.Fatalf("%s: tree root holds %d rows, Eval %d", label, got, want.Len())
	}
	for _, r := range want.Tuples() {
		if _, ok := root.Get(r.Key()); !ok {
			t.Fatalf("%s: tree root lacks Eval row %v", label, r)
		}
	}
}

// TestStepMatchesEvalUnderPresence builds trees by an insertion from the
// empty instance and maintains them under a random delete/restore script,
// checking every generation's rows against algebra.Eval, the added rows'
// order on the build, and that a write disjoint from the query shares the
// whole tree.
func TestStepMatchesEvalUnderPresence(t *testing.T) {
	gens := map[string]func(r *rand.Rand) (*relation.Database, algebra.Query){
		"UserGroupFile": func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.UserGroupFile(r, 8, 4, 6, 2, 2)
		},
		"Chain": func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.Chain(r, 3, 8, 4) },
		"SPU":   func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SPU(r, 3, 10, 4) },
		"SJU":   func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SJU(r, 10, 4) },
	}
	for _, name := range []string{"UserGroupFile", "Chain", "SPU", "SJU"} {
		for seed := int64(1); seed <= 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			db, q := gens[name](r)
			met := &Metrics{}
			root, rows, err := Empty[bool](q, db, true).Step(NewWrite(db.SourceTuplesOf(algebra.BaseRelations(q)), true, met), presence{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := algebra.Eval(q, db)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("%s seed %d built", name, seed), root, want)
			if len(rows) != want.Len() {
				t.Fatalf("%s seed %d: build delta has %d rows, Eval %d", name, seed, len(rows), want.Len())
			}
			for i, w := range want.Tuples() {
				if rows[i].S != Added || !rows[i].T.Equal(w) {
					t.Fatalf("%s seed %d: build row %d is %v, want added %v in Eval's order", name, seed, i, rows[i].T, w)
				}
			}
			if same, _, _ := root.Step(NewWrite([]relation.SourceTuple{{Rel: "Elsewhere", Tuple: relation.StringTuple("x")}}, false, met), presence{}); same != root {
				t.Fatalf("%s seed %d: a write to no base relation rebuilt the tree", name, seed)
			}
			var graveyard []relation.SourceTuple
			for step := 0; step < 12; step++ {
				var w *Write
				if len(graveyard) > 0 && r.Intn(2) == 0 {
					I := graveyard
					graveyard = nil
					if db, err = db.InsertAll(I); err != nil {
						t.Fatal(err)
					}
					w = NewWrite(I, true, met)
				} else {
					all := db.AllSourceTuples()
					T := []relation.SourceTuple{all[r.Intn(len(all))]}
					db = db.DeleteAll(T)
					graveyard = append(graveyard, T...)
					w = NewWrite(T, false, met)
				}
				if root, _, err = root.Step(w, presence{}); err != nil {
					t.Fatal(err)
				}
				want, err := algebra.Eval(q, db)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s seed %d step %d", name, seed, step), root, want)
			}
			if met.Touched() == 0 || met.Shared() == 0 || met.Rewritten() == 0 {
				t.Fatalf("%s seed %d: counters did not move: touched %d shared %d rewritten %d", name, seed, met.Touched(), met.Shared(), met.Rewritten())
			}
		}
	}
}
