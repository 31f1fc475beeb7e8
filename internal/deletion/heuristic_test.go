package deletion

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/relation"
)

func TestViewHeuristicRemovesTarget(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	target := relation.StringTuple("john", "f1")
	res, err := ViewHeuristicBasis(basisOf(t, q, db), target)
	if err != nil {
		t.Fatal(err)
	}
	effects, gone, err := SideEffectsOf(q, db, res.T, target)
	if err != nil || !gone {
		t.Fatalf("heuristic deletion invalid: gone=%v err=%v", gone, err)
	}
	if len(effects) != len(res.SideEffects) {
		t.Errorf("reported effects %d, actual %d", len(res.SideEffects), len(effects))
	}
}

func TestViewHeuristicFindsFreeDeletion(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	// (john,f2) has the single witness; its UG component is a free pick,
	// and the damage tie-break should find it.
	res, err := ViewHeuristicBasis(basisOf(t, q, db), relation.StringTuple("john", "f2"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() {
		t.Errorf("heuristic missed the free deletion: %v deleting %v", res.SideEffects, res.T)
	}
}

func TestViewHeuristicMissingTarget(t *testing.T) {
	db := userGroupDB()
	if _, err := ViewHeuristicBasis(basisOf(t, userFileQuery(), db), relation.StringTuple("no", "pe")); !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
}

// Property: the heuristic always produces a valid deletion, and never
// beats the exact optimum.
func TestViewHeuristicValidQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	q := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := relation.NewDatabase()
		r1 := relation.New("R1", relation.NewSchema("A", "B"))
		r2 := relation.New("R2", relation.NewSchema("B", "C"))
		for i := 0; i < 2+r.Intn(4); i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		view := algebra.MustEval(q, db)
		if view.Len() == 0 {
			return true
		}
		target := view.Tuples()[r.Intn(view.Len())]
		h, err := ViewHeuristicBasis(basisOf(t, q, db), target)
		if err != nil {
			return false
		}
		_, gone, err := SideEffectsOf(q, db, h.T, target)
		if err != nil || !gone {
			t.Logf("heuristic failed to delete %v", target)
			return false
		}
		exact, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target}, ViewOptions{})
		if err != nil {
			return false
		}
		if len(h.SideEffects) < len(exact.SideEffects) {
			t.Logf("heuristic %d beat exact %d — impossible", len(h.SideEffects), len(exact.SideEffects))
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestSourceGreedyGroup(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	targets := []relation.Tuple{
		relation.StringTuple("john", "f1"),
		relation.StringTuple("john", "f2"),
	}
	g, err := SourceGreedyGroupBasis(basisOf(t, q, db), targets)
	if err != nil {
		t.Fatal(err)
	}
	after := algebra.MustEval(q, db.DeleteAll(g.T))
	for _, target := range targets {
		if after.Contains(target) {
			t.Errorf("greedy group left %v alive", target)
		}
	}
	exact, err := SourceExactGroupBasis(basisOf(t, q, db), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.T) < len(exact.T) {
		t.Error("greedy cannot beat exact")
	}
}
