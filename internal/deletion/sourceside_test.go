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

func TestSourceSPU(t *testing.T) {
	db := userGroupDB()
	q := algebra.Pi([]relation.Attribute{"group"}, algebra.R("UserGroup"))
	res, err := PolyBasis(basisOf(t, q, db), relation.StringTuple("admin"))
	if err != nil {
		t.Fatal(err)
	}
	// john-admin and mary-admin both project to admin: both must go —
	// the unique solution of Theorem 2.8.
	if len(res.T) != 2 {
		t.Errorf("T=%v want 2 tuples", res.T)
	}
}

func TestSourceSJDeletesOneTuple(t *testing.T) {
	db := userGroupDB()
	q := algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile"))
	res, err := PolyBasis(basisOf(t, q, db), relation.StringTuple("john", "staff", "f1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 1 {
		t.Errorf("Theorem 2.9: one deletion suffices, got %v", res.T)
	}
	_, gone, err := SideEffectsOf(q, db, res.T, relation.StringTuple("john", "staff", "f1"))
	if err != nil || !gone {
		t.Errorf("target not removed: %v", err)
	}
}

func TestSourceExactUserFile(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	// (john,f1) has two witnesses (staff and admin paths); the minimum
	// hitting set has size... witnesses: {UG(j,s),GF(s,f1)} and
	// {UG(j,a),GF(a,f1)}: disjoint, so 2 deletions minimum.
	res, err := SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("john", "f1")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 2 {
		t.Errorf("minimum source deletion=%d want 2 (T=%v)", len(res.T), res.T)
	}
	if res.Witnesses != 2 {
		t.Errorf("witness count=%d want 2", res.Witnesses)
	}
	// (john,f2) has a single witness: 1 deletion suffices.
	res, err = SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("john", "f2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 1 {
		t.Errorf("minimum source deletion=%d want 1", len(res.T))
	}
}

func TestSourceGreedyValid(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	res, err := SourceGreedyGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("john", "f1")})
	if err != nil {
		t.Fatal(err)
	}
	_, gone, err := SideEffectsOf(q, db, res.T, relation.StringTuple("john", "f1"))
	if err != nil || !gone {
		t.Errorf("greedy deletion invalid: gone=%v err=%v", gone, err)
	}
}

func TestSourceExactMissingTarget(t *testing.T) {
	db := userGroupDB()
	if _, err := SourceExactGroupBasis(basisOf(t, userFileQuery(), db), []relation.Tuple{relation.StringTuple("no", "pe")}); !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
}

// bruteForceSourceOptimum finds the true minimum |T| removing the target.
func bruteForceSourceOptimum(q algebra.Query, db *relation.Database, target relation.Tuple) int {
	all := db.AllSourceTuples()
	best := len(all) + 1
	for mask := 1; mask < 1<<len(all); mask++ {
		size := 0
		var T []relation.SourceTuple
		for i, st := range all {
			if mask&(1<<i) != 0 {
				T = append(T, st)
				size++
			}
		}
		if size >= best {
			continue
		}
		_, gone, err := SideEffectsOf(q, db, T, target)
		if err == nil && gone {
			best = size
		}
	}
	return best
}

// Property: SourceExactGroupBasis is optimal and SourceGreedyGroupBasis
// feasible on random small PJ instances; greedy never beats exact.
func TestSourceExactOptimalQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
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
		for i := 0; i < 2+r.Intn(3); i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
		}
		for i := 0; i < 2+r.Intn(3); i++ {
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		view := algebra.MustEval(q, db)
		if view.Len() == 0 {
			return true
		}
		target := view.Tuples()[r.Intn(view.Len())]
		exact, err := SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target})
		if err != nil {
			t.Log(err)
			return false
		}
		want := bruteForceSourceOptimum(q, db, target)
		if len(exact.T) != want {
			t.Logf("exact=%d brute=%d", len(exact.T), want)
			return false
		}
		greedy, err := SourceGreedyGroupBasis(basisOf(t, q, db), []relation.Tuple{target})
		if err != nil {
			t.Log(err)
			return false
		}
		if len(greedy.T) < len(exact.T) {
			t.Logf("greedy %d beat exact %d — impossible", len(greedy.T), len(exact.T))
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCuiWidomFindsFreeTranslation(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	res, err := CuiWidom(q, db, relation.StringTuple("john", "f2"), CuiWidomOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.SideEffectFree() {
		t.Errorf("baseline should find the side-effect-free deletion: %+v", res)
	}
	if res.Evaluations == 0 {
		t.Error("baseline must count evaluations")
	}
}

func TestCuiWidomBestEffort(t *testing.T) {
	// No side-effect-free deletion exists (see TestViewExactUnavoidable).
	db := relation.NewDatabase()
	r := relation.New("R", relation.NewSchema("A", "B"))
	r.InsertStrings("a", "x")
	r.InsertStrings("b", "x")
	db.MustAdd(r)
	s := relation.New("S", relation.NewSchema("B", "C"))
	s.InsertStrings("x", "c1")
	s.InsertStrings("x", "c2")
	db.MustAdd(s)
	q := algebra.Pi([]relation.Attribute{"A", "C"}, algebra.NatJoin(algebra.R("R"), algebra.R("S")))
	res, err := CuiWidom(q, db, relation.StringTuple("a", "c1"), CuiWidomOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("baseline should find some translation")
	}
	if len(res.SideEffects) != 1 {
		t.Errorf("best-effort side-effects=%d want 1", len(res.SideEffects))
	}
}

func TestCuiWidomEvaluationCap(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	res, err := CuiWidom(q, db, relation.StringTuple("john", "f1"), CuiWidomOptions{MaxEvaluations: 2})
	// With only 2 evaluations the search may or may not find a
	// translation; either way the cap must be respected.
	if res != nil && res.Evaluations > 2 {
		t.Errorf("evaluations=%d exceeds cap", res.Evaluations)
	}
	_ = err
}

func TestCuiWidomMissingTarget(t *testing.T) {
	db := userGroupDB()
	if _, err := CuiWidom(userFileQuery(), db, relation.StringTuple("no", "pe"), CuiWidomOptions{}); !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
}
