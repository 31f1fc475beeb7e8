package propview_test

import (
	"errors"
	"testing"

	propview "repro"
)

const exampleDB = `
relation UserGroup(user, group)
john, staff
john, admin
mary, admin

relation GroupFile(group, file)
staff, f1
admin, f1
admin, f2
`

func TestFacadeEndToEnd(t *testing.T) {
	db, err := propview.ReadDatabaseString(exampleDB)
	if err != nil {
		t.Fatal(err)
	}
	q, err := propview.ParseQuery("project(user, file; join(UserGroup, GroupFile))")
	if err != nil {
		t.Fatal(err)
	}
	view, err := propview.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 4 {
		t.Fatalf("view size %d want 4", view.Len())
	}

	// Delete (john, f2) minimizing view side-effects: UG(john,admin) is
	// free because (john,f1) still derives via staff.
	target := propview.StringTuple("john", "f2")
	rep, err := propview.Delete(q, db, target, propview.MinimizeViewSideEffects, propview.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.SideEffectFree() {
		t.Errorf("expected side-effect-free deletion, got %v", rep.Result.SideEffects)
	}
	if rep.Fragment != "PJ" {
		t.Errorf("fragment %q want PJ", rep.Fragment)
	}

	// Annotate the file cell of (john, f2).
	ann, err := propview.Annotate(q, db, target, "file")
	if err != nil {
		t.Fatal(err)
	}
	if ann.Placement.Source.Rel != "GroupFile" {
		t.Errorf("annotation source %v", ann.Placement.Source)
	}

	// Witnesses of (john, f1): two derivations.
	wr, err := propview.Witnesses(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wr.Witnesses(propview.StringTuple("john", "f1"))); got != 2 {
		t.Errorf("witnesses=%d want 2", got)
	}
}

func TestFacadeClassify(t *testing.T) {
	q, err := propview.ParseQuery("project(A; join(R, S))")
	if err != nil {
		t.Fatal(err)
	}
	if propview.Classify(q, propview.ProblemViewSideEffect).String() != "NP-hard" {
		t.Error("PJ must classify NP-hard for deletions")
	}
	if propview.Fragment(q) != "PJ" {
		t.Errorf("fragment %q", propview.Fragment(q))
	}
}

func TestFacadeViewAndStore(t *testing.T) {
	db, err := propview.ReadDatabaseString(exampleDB)
	if err != nil {
		t.Fatal(err)
	}
	q, err := propview.ParseQuery("project(user, file; join(UserGroup, GroupFile))")
	if err != nil {
		t.Fatal(err)
	}
	v, err := propview.NewView(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := v.Len(); n != 4 {
		t.Errorf("view len=%d", n)
	}
	trees, err := propview.Proofs(q, db, propview.StringTuple("john", "f1"), 0)
	if err != nil || len(trees) != 2 {
		t.Errorf("proofs=%d err=%v", len(trees), err)
	}
	cells, err := propview.PlaceAll(q, db)
	if err != nil || len(cells) != 8 {
		t.Errorf("cells=%d err=%v", len(cells), err)
	}
	store := propview.NewAnnotationStore()
	_, id, err := store.PlaceAndStore(q, db, propview.StringTuple("john", "f2"), "file", "check", "me")
	if err != nil || id == 0 {
		t.Errorf("PlaceAndStore id=%d err=%v", id, err)
	}
	av, err := store.Materialize(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(av.AnnotatedCells()) == 0 {
		t.Error("no annotated cells materialized")
	}
}

func TestFacadeTables(t *testing.T) {
	for _, p := range []propview.Problem{
		propview.ProblemViewSideEffect,
		propview.ProblemSourceSideEffect,
		propview.ProblemAnnotationPlacement,
	} {
		rows := propview.DichotomyTable(p)
		if len(rows) == 0 {
			t.Errorf("empty table for %v", p)
		}
		if propview.FormatTable(p) == "" {
			t.Errorf("empty rendering for %v", p)
		}
	}
}

func TestFacadeEngine(t *testing.T) {
	db, err := propview.ReadDatabaseString(exampleDB)
	if err != nil {
		t.Fatal(err)
	}
	// The facade passes write-pipeline options through to the engine.
	e := propview.NewEngine(db, propview.EngineOptions{MaxBatchSize: 4})
	if err := e.PrepareText("access", "project(user, file; join(UserGroup, GroupFile))"); err != nil {
		t.Fatal(err)
	}
	view, err := e.Query("access")
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 4 {
		t.Fatalf("prepared view has %d tuples, want 4", view.Len())
	}
	if _, err := e.Query("nope"); !errors.Is(err, propview.ErrUnknownView) {
		t.Fatalf("got %v, want ErrUnknownView", err)
	}
	if err := e.PrepareText("access", "project(user; UserGroup)"); !errors.Is(err, propview.ErrPrepareConflict) {
		t.Fatalf("got %v, want ErrPrepareConflict", err)
	}
	rep, err := e.Delete("access", propview.StringTuple("john", "f2"), propview.MinimizeViewSideEffects, propview.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.T) == 0 {
		t.Fatal("no source deletions chosen")
	}
	var st propview.EngineStats = e.Stats()
	if st.Deletes != 1 || len(st.Views) != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.CommitBatches != 1 {
		t.Fatalf("one delete should commit as one batch, got %d", st.CommitBatches)
	}
}
