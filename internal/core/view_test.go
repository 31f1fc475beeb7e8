package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/relation"
)

func viewFixture(t *testing.T) *View {
	t.Helper()
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
	q := algebra.Pi([]relation.Attribute{"user", "file"},
		algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
	v, err := NewView(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewViewValidates(t *testing.T) {
	db := relation.NewDatabase()
	if _, err := NewView(algebra.R("Ghost"), db); err == nil {
		t.Error("invalid query must be rejected")
	}
}

func TestViewEvalAndCaches(t *testing.T) {
	v := viewFixture(t)
	if n, err := v.Len(); err != nil || n != 4 {
		t.Fatalf("Len=%d err=%v", n, err)
	}
	ok, err := v.Contains(relation.StringTuple("john", "f1"))
	if err != nil || !ok {
		t.Error("Contains(john,f1) should hold")
	}
	ws, err := v.Witnesses(relation.StringTuple("john", "f1"))
	if err != nil || len(ws) != 2 {
		t.Errorf("witnesses=%d err=%v", len(ws), err)
	}
	locs, err := v.WhereProvenance(relation.StringTuple("john", "f1"), "file")
	if err != nil || len(locs) != 2 {
		t.Errorf("where=%d err=%v", len(locs), err)
	}
	if v.Fragment() != "PJ" {
		t.Errorf("fragment %q", v.Fragment())
	}
}

func TestViewDeleteApply(t *testing.T) {
	v := viewFixture(t)
	target := relation.StringTuple("john", "f2")
	rep, err := v.Delete(target, MinimizeViewSideEffects, DeleteOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.SideEffectFree() {
		t.Errorf("expected free deletion: %v", rep.Result.SideEffects)
	}
	// The view must reflect the applied deletion.
	ok, err := v.Contains(target)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("target still visible after applied deletion")
	}
	if n, _ := v.Len(); n != 3 {
		t.Errorf("view size after deletion=%d want 3", n)
	}
	// Source actually changed.
	if v.Database().Relation("UserGroup").Len() != 2 {
		t.Error("source deletion not applied")
	}
}

func TestViewDeleteWithoutApply(t *testing.T) {
	v := viewFixture(t)
	target := relation.StringTuple("john", "f2")
	if _, err := v.Delete(target, MinimizeViewSideEffects, DeleteOptions{}, false); err != nil {
		t.Fatal(err)
	}
	if ok, _ := v.Contains(target); !ok {
		t.Error("without apply the view must be unchanged")
	}
}

// TestViewDeleteReusesCachedBasis: after Witnesses, a Delete whose route
// takes the uncapped basis builds none of its own and reports what the
// one-shot Delete reports; a capped route still builds its own basis.
func TestViewDeleteReusesCachedBasis(t *testing.T) {
	orig := computeBasis
	defer func() { computeBasis = orig }()
	builds := 0
	computeBasis = func(q algebra.Query, db *relation.Database, lim provenance.Limit) (*provenance.Result, error) {
		builds++
		return orig(q, db, lim)
	}
	v := viewFixture(t)
	target := relation.StringTuple("john", "f1")
	if _, err := v.Witnesses(target); err != nil {
		t.Fatal(err)
	}
	got, err := v.Delete(target, MinimizeViewSideEffects, DeleteOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("Witnesses then Delete built the basis %d times, want 1", builds)
	}
	want, err := Delete(v.Query(), v.Database(), target, MinimizeViewSideEffects, DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("View.Delete = %+v, Delete = %+v", got, want)
	}
	builds = 0
	if _, err := v.Delete(target, MinimizeViewSideEffects, DeleteOptions{MaxWitnesses: 8}, false); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("a capped Delete built %d bases, want its own one", builds)
	}
}

func TestViewAnnotate(t *testing.T) {
	v := viewFixture(t)
	rep, err := v.Annotate(relation.StringTuple("john", "f2"), "file")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placement.Source.Rel != "GroupFile" {
		t.Errorf("placement %v", rep.Placement.Source)
	}
}

func TestViewExplain(t *testing.T) {
	v := viewFixture(t)
	target := relation.StringTuple("john", "f2")
	rep, err := v.Delete(target, MinimizeViewSideEffects, DeleteOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := v.Explain(target, rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"witness", "source deletions", "no view side-effects"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestViewInvalidate(t *testing.T) {
	v := viewFixture(t)
	if _, err := v.Eval(); err != nil {
		t.Fatal(err)
	}
	// Mutate behind the wrapper's back, then invalidate manually.
	v.Database().Relation("GroupFile").InsertStrings("staff", "f9")
	v.Invalidate()
	if n, _ := v.Len(); n != 5 {
		t.Errorf("after invalidate Len=%d want 5", n)
	}
}
