package deletion

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/relation"
)

func userGroupDB() *relation.Database {
	db := relation.NewDatabase()
	ug := relation.New("UserGroup", relation.NewSchema("user", "group"))
	ug.InsertStrings("john", "staff")
	ug.InsertStrings("john", "admin")
	ug.InsertStrings("mary", "admin")
	db.MustAdd(ug)
	gf := relation.New("GroupFile", relation.NewSchema("group", "file"))
	gf.InsertStrings("staff", "f1")
	gf.InsertStrings("admin", "f1")
	gf.InsertStrings("admin", "f2")
	db.MustAdd(gf)
	return db
}

func userFileQuery() algebra.Query {
	return algebra.Pi([]relation.Attribute{"user", "file"},
		algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
}

func TestSideEffectsOf(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	// Deleting UG(john,admin) and UG(john,staff) removes john entirely:
	// (john,f1) and (john,f2) both disappear.
	T := []relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("john", "admin")},
		{Rel: "UserGroup", Tuple: relation.StringTuple("john", "staff")},
	}
	effects, gone, err := SideEffectsOf(q, db, T, relation.StringTuple("john", "f2"))
	if err != nil {
		t.Fatal(err)
	}
	if !gone {
		t.Error("target should be gone")
	}
	if len(effects) != 1 || !effects[0].Equal(relation.StringTuple("john", "f1")) {
		t.Errorf("effects=%v want [(john,f1)]", effects)
	}
}

func TestViewSPU(t *testing.T) {
	db := userGroupDB()
	q := algebra.Un(
		algebra.Pi([]relation.Attribute{"group"}, algebra.R("UserGroup")),
		algebra.Pi([]relation.Attribute{"group"}, algebra.R("GroupFile")),
	)
	res, err := PolyBasis(basisOf(t, q, db), relation.StringTuple("admin"))
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 2.3: always side-effect-free.
	if !res.SideEffectFree() {
		t.Errorf("SPU deletion has side-effects: %v", res.SideEffects)
	}
	// Removing "admin" needs all four admin tuples (2 in UserGroup, 2 in
	// GroupFile).
	if len(res.T) != 4 {
		t.Errorf("T=%v want 4 tuples", res.T)
	}
	effects, gone, err := SideEffectsOf(q, db, res.T, relation.StringTuple("admin"))
	if err != nil || !gone || len(effects) != 0 {
		t.Errorf("verification failed: gone=%v effects=%v err=%v", gone, effects, err)
	}
}

func TestViewSPURejectsJoin(t *testing.T) {
	db := userGroupDB()
	_, err := PolyBasis(basisOf(t, userFileQuery(), db), relation.StringTuple("john", "f1"))
	if !errors.Is(err, ErrNotPoly) {
		t.Errorf("expected ErrNotPoly, got %v", err)
	}
}

func TestViewSPUMissingTuple(t *testing.T) {
	db := userGroupDB()
	q := algebra.Pi([]relation.Attribute{"group"}, algebra.R("UserGroup"))
	if _, err := PolyBasis(basisOf(t, q, db), relation.StringTuple("nope")); !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
}

func TestViewSJ(t *testing.T) {
	db := userGroupDB()
	q := algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile"))
	// (mary, admin, f2): components UG(mary,admin) and GF(admin,f2).
	// UG(mary,admin) also witnesses (mary,admin,f1); GF(admin,f2) also
	// witnesses (john,admin,f2). Either way 1 side-effect; no free lunch.
	res, err := PolyBasis(basisOf(t, q, db), relation.StringTuple("mary", "admin", "f2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 1 {
		t.Fatalf("SJ deletes one component, got %v", res.T)
	}
	if len(res.SideEffects) != 1 {
		t.Errorf("side-effects=%v want exactly 1", res.SideEffects)
	}
}

func TestViewSJSideEffectFree(t *testing.T) {
	db := userGroupDB()
	// Add a tuple participating in exactly one join result.
	db.Relation("UserGroup").InsertStrings("zoe", "guests")
	db.Relation("GroupFile").InsertStrings("guests", "f9")
	q := algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile"))
	res, err := PolyBasis(basisOf(t, q, db), relation.StringTuple("zoe", "guests", "f9"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() {
		t.Errorf("unique join partner must allow side-effect-free deletion: %v", res.SideEffects)
	}
}

func TestViewSJRejectsProject(t *testing.T) {
	db := userGroupDB()
	if _, err := PolyBasis(basisOf(t, userFileQuery(), db), relation.StringTuple("john", "f1")); !errors.Is(err, ErrNotPoly) {
		t.Errorf("expected ErrNotPoly, got %v", err)
	}
}

func TestViewExactUserFile(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	// Delete (john, f2): witnesses {UG(john,admin), GF(admin,f2)}.
	// Deleting GF(admin,f2) also kills (mary,f2); deleting UG(john,admin)
	// also kills (john,f1)? No — (john,f1) also derives via staff, so it
	// survives! Deleting UG(john,admin) is side-effect-free.
	res, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("john", "f2")}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() {
		t.Fatalf("expected side-effect-free deletion, got %v deleting %v", res.SideEffects, res.T)
	}
	if len(res.T) != 1 || res.T[0].Rel != "UserGroup" {
		t.Errorf("T=%v want [UserGroup(john,admin)]", res.T)
	}
	if !res.Exhausted {
		t.Error("small instance should be fully explored")
	}
	// Ground truth re-check.
	effects, gone, err := SideEffectsOf(q, db, res.T, relation.StringTuple("john", "f2"))
	if err != nil || !gone || len(effects) != 0 {
		t.Errorf("verification: gone=%v effects=%v err=%v", gone, effects, err)
	}
}

func TestViewExactUnavoidableSideEffect(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", relation.NewSchema("A", "B"))
	r.InsertStrings("a", "x")
	db.MustAdd(r)
	s := relation.New("S", relation.NewSchema("B", "C"))
	s.InsertStrings("x", "c1")
	s.InsertStrings("x", "c2")
	db.MustAdd(s)
	q := algebra.Pi([]relation.Attribute{"A", "C"}, algebra.NatJoin(algebra.R("R"), algebra.R("S")))
	// Deleting (a,c1) forces either R(a,x) (killing (a,c2)) or S(x,c1)
	// (side-effect-free!). S(x,c1) only feeds (a,c1).
	res, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("a", "c1")}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() {
		t.Errorf("S(x,c1) deletion should be free: got %v", res.SideEffects)
	}
	// Now make it unavoidable: target (a,c1) where S(x,c1) also feeds
	// another output.
	db2 := relation.NewDatabase()
	r2 := relation.New("R", relation.NewSchema("A", "B"))
	r2.InsertStrings("a", "x")
	r2.InsertStrings("b", "x")
	db2.MustAdd(r2)
	s2 := relation.New("S", relation.NewSchema("B", "C"))
	s2.InsertStrings("x", "c1")
	s2.InsertStrings("x", "c2")
	db2.MustAdd(s2)
	// View: (a,c1),(a,c2),(b,c1),(b,c2). Deleting (a,c1): R(a,x) kills
	// (a,c2) too; S(x,c1) kills (b,c1) too. Min side-effects = 1.
	res, err = ViewExactGroupBasis(basisOf(t, q, db2), []relation.Tuple{relation.StringTuple("a", "c1")}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SideEffects) != 1 {
		t.Errorf("side-effects=%v want exactly 1", res.SideEffects)
	}
	if res.SideEffectFree() {
		t.Error("no side-effect-free deletion exists here")
	}
}

func TestViewExactMissingTarget(t *testing.T) {
	db := userGroupDB()
	if _, err := ViewExactGroupBasis(basisOf(t, userFileQuery(), db), []relation.Tuple{relation.StringTuple("no", "pe")}, ViewOptions{}); !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
}

func TestViewExactCandidateCap(t *testing.T) {
	db := userGroupDB()
	res, err := ViewExactGroupBasis(basisOf(t, userFileQuery(), db), []relation.Tuple{relation.StringTuple("john", "f1")}, ViewOptions{MaxCandidates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates > 1 && !res.SideEffectFree() {
		t.Errorf("cap not respected: %d candidates", res.Candidates)
	}
}

// bruteForceViewOptimum finds the true minimum view side-effects over all
// subsets of source tuples that remove the target.
func bruteForceViewOptimum(q algebra.Query, db *relation.Database, target relation.Tuple) (int, bool) {
	all := db.AllSourceTuples()
	best := -1
	for mask := 1; mask < 1<<len(all); mask++ {
		var T []relation.SourceTuple
		for i, st := range all {
			if mask&(1<<i) != 0 {
				T = append(T, st)
			}
		}
		effects, gone, err := SideEffectsOf(q, db, T, target)
		if err != nil || !gone {
			continue
		}
		if best < 0 || len(effects) < best {
			best = len(effects)
		}
	}
	return best, best >= 0
}

// Property: ViewExactGroupBasis matches brute force on random small PJ
// instances.
func TestViewExactOptimalQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
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
		res, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target}, ViewOptions{})
		if err != nil {
			t.Log(err)
			return false
		}
		want, feasible := bruteForceViewOptimum(q, db, target)
		if !feasible {
			t.Log("brute force found no deletion (impossible for monotone queries)")
			return false
		}
		if len(res.SideEffects) != want {
			t.Logf("exact=%d brute=%d on %s", len(res.SideEffects), want, relation.WriteDatabaseString(db))
			return false
		}
		// The reported deletion must actually achieve the reported effects.
		effects, gone, err := SideEffectsOf(q, db, res.T, target)
		if err != nil || !gone || len(effects) != len(res.SideEffects) {
			t.Logf("reported effects mismatch: %v vs %v", effects, res.SideEffects)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: for SJ queries PolyBasis's one-witness case agrees with the
// generic exact solver.
func TestViewSJAgreesWithExactQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	q := algebra.NatJoin(algebra.R("R1"), algebra.R("R2"))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := relation.NewDatabase()
		r1 := relation.New("R1", relation.NewSchema("A", "B"))
		r2 := relation.New("R2", relation.NewSchema("B", "C"))
		for i := 0; i < 2+r.Intn(4); i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(2)))))
		}
		for i := 0; i < 2+r.Intn(4); i++ {
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(3)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		view := algebra.MustEval(q, db)
		if view.Len() == 0 {
			return true
		}
		target := view.Tuples()[r.Intn(view.Len())]
		sj, err := PolyBasis(basisOf(t, q, db), target)
		if err != nil {
			t.Log(err)
			return false
		}
		exact, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target}, ViewOptions{})
		if err != nil {
			t.Log(err)
			return false
		}
		if len(sj.SideEffects) != len(exact.SideEffects) {
			t.Logf("SJ=%d exact=%d", len(sj.SideEffects), len(exact.SideEffects))
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// (john, f1) has exactly four minimal hitting sets: a cap below four cuts
// the search short, a cap of four or more lets it finish.
func TestViewExactCandidateCapExhausted(t *testing.T) {
	res, err := provenance.Compute(userFileQuery(), userGroupDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		maxCandidates, candidates int
		exhausted                 bool
	}{{3, 3, false}, {4, 4, true}, {5, 4, true}} {
		r, err := ViewExactGroupBasis(res, []relation.Tuple{relation.StringTuple("john", "f1")}, ViewOptions{MaxCandidates: c.maxCandidates})
		if err != nil {
			t.Fatal(err)
		}
		if r.Candidates != c.candidates || r.Exhausted != c.exhausted {
			t.Errorf("cap %d: Candidates=%d Exhausted=%v, want %d and %v", c.maxCandidates, r.Candidates, r.Exhausted, c.candidates, c.exhausted)
		}
	}
}
