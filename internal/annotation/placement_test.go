package annotation

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/workload"
)

func TestPlaceOnScan(t *testing.T) {
	db := userGroupDB()
	p, err := Place(algebra.R("UserGroup"), db, relation.StringTuple("john", "staff"), "user")
	if err != nil {
		t.Fatal(err)
	}
	if !p.SideEffectFree() {
		t.Errorf("scan placement has side-effects: %v", p.Affected.Sorted())
	}
	if p.Source.Rel != "UserGroup" || p.Source.Attr != "user" {
		t.Errorf("source %v", p.Source)
	}
}

func TestPlaceUserFileView(t *testing.T) {
	db := userGroupDB()
	q := algebra.Pi([]relation.Attribute{"user", "file"},
		algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
	// Target: annotate file attribute of (john, f2). Only GroupFile(admin,f2).file
	// propagates there... but that location also reaches (mary, f2).
	p, err := Place(q, db, relation.StringTuple("john", "f2"), "file")
	if err != nil {
		t.Fatal(err)
	}
	if p.Source.Rel != "GroupFile" || p.Source.Attr != "file" {
		t.Errorf("source %v", p.Source)
	}
	if p.SideEffects != 1 {
		t.Errorf("side-effects=%d want 1 (mary,f2 also annotated): %v", p.SideEffects, p.Affected.Sorted())
	}
	// Target: user attribute of (john, f2): UserGroup(john,admin).user also
	// reaches (john,f1) — 1 side-effect and it is unavoidable.
	p, err = Place(q, db, relation.StringTuple("john", "f2"), "user")
	if err != nil {
		t.Fatal(err)
	}
	if p.SideEffects != 1 {
		t.Errorf("user side-effects=%d want 1: %v", p.SideEffects, p.Affected.Sorted())
	}
}

func TestPlacePicksMinimum(t *testing.T) {
	// Two ways to reach (x).A: R(x) scans through both branches of a
	// union; S(x) reaches only one view location, R(x) reaches two (the
	// second branch adds (y) for R only). Place must pick S's location.
	db := relation.NewDatabase()
	r := relation.New("R", relation.NewSchema("A", "B"))
	r.InsertStrings("x", "b")
	db.MustAdd(r)
	s := relation.New("S", relation.NewSchema("A", "B"))
	s.InsertStrings("x", "b")
	db.MustAdd(s)
	// Branch 1: Π_A(R) ∪ Π_A(S) — both produce (x).
	// Branch 2: Π_B(R) renamed to A — produces (b) from R only.
	q := algebra.Un(
		algebra.Pi([]relation.Attribute{"A"}, algebra.R("R")),
		algebra.Pi([]relation.Attribute{"A"}, algebra.R("S")),
	)
	p, err := Place(q, db, relation.StringTuple("x"), "A")
	if err != nil {
		t.Fatal(err)
	}
	if !p.SideEffectFree() {
		t.Errorf("expected side-effect-free placement, got %d", p.SideEffects)
	}
}

func TestPlaceErrors(t *testing.T) {
	db := userGroupDB()
	q := algebra.R("UserGroup")
	if _, err := Place(q, db, relation.StringTuple("ghost", "none"), "user"); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("missing tuple: %v", err)
	}
	if _, err := Place(q, db, relation.StringTuple("john", "staff"), "nope"); !errors.Is(err, ErrNoPlacement) {
		t.Errorf("missing attr: %v", err)
	}
	if _, err := Place(algebra.R("Ghost"), db, relation.StringTuple("x"), "A"); err == nil {
		t.Error("unknown relation must error")
	}
}

func TestPlaceSPU(t *testing.T) {
	db := userGroupDB()
	q := algebra.Un(
		algebra.Pi([]relation.Attribute{"group"}, algebra.R("UserGroup")),
		algebra.Pi([]relation.Attribute{"group"}, algebra.R("GroupFile")),
	)
	p, err := Place(q, db, relation.StringTuple("admin"), "group")
	if err != nil {
		t.Fatal(err)
	}
	if !p.SideEffectFree() {
		t.Error("Theorem 3.3: SPU placement must be side-effect-free")
	}
	// Four tuples across both branches project onto (admin); the least
	// location wins, whatever the branch order.
	if want := relation.Loc("GroupFile", relation.StringTuple("admin", "f1"), "group"); p.Source.Key() != want.Key() {
		t.Errorf("source %v, want %v", p.Source, want)
	}
}

func TestPlaceSPUWithSelection(t *testing.T) {
	db := userGroupDB()
	q := algebra.Pi([]relation.Attribute{"user"},
		algebra.Sigma(algebra.Eq("group", "admin"), algebra.R("UserGroup")))
	p, err := Place(q, db, relation.StringTuple("mary"), "user")
	if err != nil {
		t.Fatal(err)
	}
	if p.Source.Rel != "UserGroup" || !p.Source.Tuple.Equal(relation.StringTuple("mary", "admin")) {
		t.Errorf("source %v", p.Source)
	}
	if !p.SideEffectFree() {
		t.Error("must be side-effect-free")
	}
}

func TestPlaceSPUNoBranch(t *testing.T) {
	db := userGroupDB()
	q := algebra.Pi([]relation.Attribute{"user"}, algebra.R("UserGroup"))
	for _, target := range []relation.Tuple{relation.StringTuple("ghost"), relation.StringTuple("john", "staff")} {
		if _, err := Place(q, db, target, "user"); !errors.Is(err, ErrNoPlacement) {
			t.Errorf("%v: expected ErrNoPlacement, got %v", target, err)
		}
	}
}

// TestPlaceSPUScanMatchesWhere checks Theorem 3.3's scan against the
// candidate scan of the where-provenance, which makes no use of the SPU
// structure: on random SPU instances both must return the same source,
// side effects and affected set for every view cell.
func TestPlaceSPUScanMatchesWhere(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		db, q := workload.SPU(rand.New(rand.NewSource(seed)), 3, 12, 4)
		wv, err := ComputeWhere(q, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range wv.View.Tuples() {
			for _, attr := range wv.View.Schema().Attrs() {
				got, err := placeSPU(q, db, tu, attr)
				if err != nil {
					t.Fatalf("seed %d (%v).%s: %v", seed, tu, attr, err)
				}
				want, err := placeOn(wv, tu, attr)
				if err != nil {
					t.Fatal(err)
				}
				if got.Source.Key() != want.Source.Key() || got.SideEffects != want.SideEffects || !got.Affected.Equal(want.Affected) {
					t.Fatalf("seed %d (%v).%s: scan %v (%d) %v, where %v (%d) %v", seed, tu, attr,
						got.Source, got.SideEffects, got.Affected.Sorted(), want.Source, want.SideEffects, want.Affected.Sorted())
				}
			}
		}
	}
}

func TestPlaceSJU(t *testing.T) {
	db := userGroupDB()
	q := algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile"))
	p, err := Place(q, db, relation.StringTuple("john", "staff", "f1"), "group")
	if err != nil {
		t.Fatal(err)
	}
	// group occurs in both relations; UserGroup(john,staff).group feeds
	// only this join tuple, GroupFile(staff,f1).group likewise — both are
	// side-effect-free here, and the least location wins the tie.
	if !p.SideEffectFree() {
		t.Errorf("side-effects=%d, affected=%v", p.SideEffects, p.Affected.Sorted())
	}
	if p.Source.Rel != "GroupFile" {
		t.Errorf("source %v, want GroupFile's", p.Source)
	}
}

func TestPlaceSJUMinimizesAcrossComponents(t *testing.T) {
	// john is in two groups; (john, admin, f2): annotating user from
	// UserGroup(john,admin) also reaches (john,admin,f1); there is no
	// better option, so side-effects must be exactly 1.
	db := userGroupDB()
	q := algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile"))
	p, err := Place(q, db, relation.StringTuple("john", "admin", "f2"), "user")
	if err != nil {
		t.Fatal(err)
	}
	if p.SideEffects != 1 {
		t.Errorf("side-effects=%d want 1: %v", p.SideEffects, p.Affected.Sorted())
	}
}

// TestRoute pins the route and the theorem each class's label names.
func TestRoute(t *testing.T) {
	for _, c := range []struct {
		ops   algebra.Ops
		spu   bool
		label string
	}{
		{0, true, "Thm 3.3"},
		{algebra.OpSelect | algebra.OpProject | algebra.OpUnion, true, "Thm 3.3"},
		{algebra.OpProject | algebra.OpRename, false, "Thm 3.3"},
		{algebra.OpSelect | algebra.OpJoin | algebra.OpUnion | algebra.OpRename, false, "Thm 3.4"},
		{algebra.OpProject | algebra.OpJoin, false, "Thm 3.2"},
	} {
		spu, alg := Route(c.ops)
		if spu != c.spu || !strings.Contains(alg, c.label) {
			t.Errorf("Route(%s) = %v, %q; want %v and a label naming %s", c.ops, spu, alg, c.spu, c.label)
		}
	}
}

func TestPlaceAll(t *testing.T) {
	db := userGroupDB()
	q := algebra.Pi([]relation.Attribute{"user", "file"},
		algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
	cells, err := PlaceAll(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// 4 view tuples × 2 attributes, all reachable.
	if len(cells) != 8 {
		t.Fatalf("cells=%d want 8", len(cells))
	}
	// Every batch answer must agree with the single-cell solver.
	for _, c := range cells {
		single, err := Place(q, db, c.ViewTuple, c.Attr)
		if err != nil {
			t.Fatalf("Place(%v,%s): %v", c.ViewTuple, c.Attr, err)
		}
		if single.SideEffects != c.Placement.SideEffects {
			t.Errorf("(%v).%s: batch=%d single=%d side-effects",
				c.ViewTuple, c.Attr, c.Placement.SideEffects, single.SideEffects)
		}
	}
}

func TestPlaceAllSkipsUnreachableCells(t *testing.T) {
	// A view over an empty relation: no cells at all.
	db := relation.NewDatabase()
	db.MustAdd(relation.New("R", relation.NewSchema("A")))
	cells, err := PlaceAll(algebra.R("R"), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Errorf("cells=%v want none", cells)
	}
}

// Property: the exact placement really is optimal — no other source
// location reaching the target has fewer side-effects — verified by brute
// force over all source locations on random small instances.
func TestPlaceOptimalQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
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
		for i := 0; i < 2+r.Intn(5); i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(3)))))
		}
		for i := 0; i < 2+r.Intn(5); i++ {
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(2)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		wv, err := ComputeWhere(q, db)
		if err != nil {
			return false
		}
		if wv.View.Len() == 0 {
			return true
		}
		target := wv.View.Tuples()[r.Intn(wv.View.Len())]
		attr := wv.View.Schema().Attrs()[r.Intn(2)]
		p, err := Place(q, db, target, attr)
		if err != nil {
			return errors.Is(err, ErrNoPlacement)
		}
		// Brute force: every source location that reaches the target.
		tloc := relation.Loc(algebra.DefaultViewName, target, attr)
		for _, src := range db.AllLocations() {
			aff := wv.Affected(src)
			if !aff.Has(tloc) {
				continue
			}
			if aff.Len()-1 < p.SideEffects {
				t.Logf("suboptimal: chose %v (%d), but %v gives %d",
					p.Source, p.SideEffects, src, aff.Len()-1)
				return false
			}
		}
		// Consistency: Affected must contain the target.
		if !p.Affected.Has(tloc) {
			t.Logf("placement does not reach target")
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
