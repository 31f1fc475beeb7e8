package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/workload"
)

const srcDB = `
relation UserGroup(user, group)
john, staff
john, admin
mary, admin

relation GroupFile(group, file)
staff, f1
admin, f1
admin, f2
`

const srcQuery = "project(user, file; join(UserGroup, GroupFile))"

func mustEngine(t *testing.T) *Engine {
	t.Helper()
	db, err := relation.ReadDatabaseString(srcDB)
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	if err := e.PrepareText("access", srcQuery); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPrepareAndQuery(t *testing.T) {
	e := mustEngine(t)
	view, err := e.Query("access")
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 4 {
		t.Fatalf("view has %d tuples, want 4", view.Len())
	}
	for _, want := range [][]string{{"john", "f1"}, {"john", "f2"}, {"mary", "f1"}, {"mary", "f2"}} {
		if !view.Contains(relation.StringTuple(want...)) {
			t.Errorf("view missing %v", want)
		}
	}
	ws, err := e.Witnesses("access", relation.StringTuple("john", "f1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Errorf("(john,f1) has %d witnesses, want 2 (staff and admin routes)", len(ws))
	}
}

func TestPrepareConflicts(t *testing.T) {
	e := mustEngine(t)
	// Same (name, query) is idempotent.
	if err := e.PrepareText("access", srcQuery); err != nil {
		t.Fatalf("re-preparing same query: %v", err)
	}
	// Same name, different query conflicts.
	err := e.PrepareText("access", "project(user; UserGroup)")
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting prepare: got %v, want ErrConflict", err)
	}
	// Unknown relations are rejected.
	if err := e.PrepareText("bad", "project(x; Nope)"); err == nil {
		t.Fatal("prepare of a query over a missing relation must fail")
	}
	// Empty name is rejected.
	if err := e.PrepareText("", srcQuery); err == nil {
		t.Fatal("prepare with empty name must fail")
	}
}

func TestPrepareLimited(t *testing.T) {
	db, err := relation.ReadDatabaseString(srcDB)
	if err != nil {
		t.Fatal(err)
	}
	// (john, f1) has two witnesses (staff and admin routes), so a cap of 1
	// must refuse the prepare...
	e := New(db)
	if err := e.PrepareLimited("v", mustParse(t, srcQuery), provenance.Limit{MaxWitnesses: 1}); !errors.Is(err, provenance.ErrLimit) {
		t.Fatalf("got %v, want ErrLimit", err)
	}
	// ...and the failed prepare must not register the view.
	if _, err := e.Query("v"); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("failed prepare leaked a view: %v", err)
	}
	// A sufficient cap prepares and serves normally.
	if err := e.PrepareLimited("v", mustParse(t, srcQuery), provenance.Limit{MaxWitnesses: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete("v", relation.StringTuple("john", "f2"), core.MinimizeViewSideEffects, core.DeleteOptions{}); err != nil {
		t.Fatal(err)
	}
}

// A failing where-index computation fails only Annotate: Prepare never
// computes the index, the first Annotate does and surfaces the error (and
// every later Annotate on that generation gets it cached), while
// deletion-only serving goes on. A later generation, having no index to
// catch up from, computes it afresh and can recover.
func TestPrepareServesWhenWhereIndexFails(t *testing.T) {
	injected := errors.New("injected where-index failure")
	orig := computeWhere
	computeWhere = func(q algebra.Query, db *relation.Database) (*annotation.WhereView, error) {
		return nil, injected
	}
	restored := false
	defer func() {
		if !restored {
			computeWhere = orig
		}
	}()

	db, err := relation.ReadDatabaseString(srcDB)
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	if err := e.PrepareText("access", srcQuery); err != nil {
		t.Fatalf("Prepare failed on a where-index error: %v", err)
	}
	// The first Annotate runs the computation and surfaces its error, and
	// the failed index is not ready.
	for i := 0; i < 2; i++ {
		if _, err := e.Annotate("access", relation.StringTuple("john", "f1"), "file"); !errors.Is(err, injected) {
			t.Fatalf("Annotate %d: got %v, want the where error", i, err)
		}
	}
	vs, err := e.Describe("access")
	if err != nil {
		t.Fatal(err)
	}
	if vs.WhereReady {
		t.Error("WhereReady true for a failed where index")
	}
	// Deletion-only serving still works.
	if _, err := e.Delete("access", relation.StringTuple("john", "f2"), core.MinimizeViewSideEffects, core.DeleteOptions{}); err != nil {
		t.Fatalf("Delete after a where-index failure: %v", err)
	}
	// The post-deletion generation rebuilds the index lazily; with the
	// computation healthy again, Annotate recovers.
	computeWhere = orig
	restored = true
	view, err := e.Query("access")
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() == 0 {
		t.Skip("view emptied")
	}
	if _, err := e.Annotate("access", view.Tuple(0), "file"); err != nil {
		t.Fatalf("Annotate on the rebuilt index: %v", err)
	}
	if vs, err := e.Describe("access"); err != nil || !vs.WhereReady {
		t.Fatalf("where index not ready after recovery: %+v, %v", vs, err)
	}
}

func mustParse(t *testing.T, src string) algebra.Query {
	t.Helper()
	q, err := algebra.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestUnknownView(t *testing.T) {
	e := mustEngine(t)
	if _, err := e.Query("nope"); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("Query(nope): got %v, want ErrUnknownView", err)
	}
	if _, err := e.Delete("nope", relation.StringTuple("a"), core.MinimizeViewSideEffects, core.DeleteOptions{}); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("Delete(nope): got %v, want ErrUnknownView", err)
	}
	if _, err := e.Annotate("nope", relation.StringTuple("a"), "x"); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("Annotate(nope): got %v, want ErrUnknownView", err)
	}
}

func TestDeleteMaintainsView(t *testing.T) {
	e := mustEngine(t)
	target := relation.StringTuple("john", "f2")
	rep, err := e.Delete("access", target, core.MinimizeViewSideEffects, core.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.T) == 0 {
		t.Fatal("no source deletions chosen")
	}
	view, err := e.Query("access")
	if err != nil {
		t.Fatal(err)
	}
	if view.Contains(target) {
		t.Fatal("target still in the maintained view")
	}
	// The maintained view must equal re-evaluating the query over the
	// engine's current source.
	q, err := algebra.Parse(srcQuery)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := algebra.Eval(q, e.Database())
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(fresh) {
		t.Fatalf("maintained view %v != re-evaluated view %v", view, fresh)
	}
	// Deleting a tuple that is gone now fails cleanly, without state change.
	before := view.Len()
	if _, err := e.Delete("access", target, core.MinimizeViewSideEffects, core.DeleteOptions{}); err == nil {
		t.Fatal("deleting an absent view tuple must fail")
	}
	view, _ = e.Query("access")
	if view.Len() != before {
		t.Fatal("failed delete changed the view")
	}
}

// A deletion through one prepared view must maintain every other prepared
// view over the same source.
func TestDeleteMaintainsAllViews(t *testing.T) {
	e := mustEngine(t)
	if err := e.PrepareText("groups", "project(user, group; UserGroup)"); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Delete("access", relation.StringTuple("john", "f2"), core.MinimizeSourceDeletions, core.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := e.Query("groups")
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Parse("project(user, group; UserGroup)")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := algebra.Eval(q, e.Database())
	if err != nil {
		t.Fatal(err)
	}
	if !groups.Equal(fresh) {
		t.Fatalf("sibling view not maintained after deleting %v", rep.Result.T)
	}
}

func TestAnnotateBeforeAndAfterDelete(t *testing.T) {
	e := mustEngine(t)
	rep, err := e.Annotate("access", relation.StringTuple("john", "f1"), "file")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placement == nil || rep.Placement.Source.Rel == "" {
		t.Fatal("placement missing a source location")
	}
	// After a deletion the where-provenance index is rebuilt lazily; the
	// answer must reflect the new source.
	if _, err := e.Delete("access", relation.StringTuple("john", "f2"), core.MinimizeViewSideEffects, core.DeleteOptions{}); err != nil {
		t.Fatal(err)
	}
	view, _ := e.Query("access")
	if view.Len() == 0 {
		t.Skip("view emptied")
	}
	again, err := e.Annotate("access", view.Tuple(0), "file")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Database().Contains(relation.SourceTuple{Rel: again.Placement.Source.Rel, Tuple: again.Placement.Source.Tuple}) {
		t.Fatalf("placement %v names a deleted source tuple", again.Placement.Source)
	}
}

// DeleteGroup removes every target with one solve and matches the one-shot
// group solver's optimum size.
func TestDeleteGroup(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	db, q := workload.UserGroupFile(r, 10, 5, 8, 2, 2)
	e := New(db)
	if err := e.Prepare("v", q); err != nil {
		t.Fatal(err)
	}
	view, _ := e.Query("v")
	if view.Len() < 3 {
		t.Skip("small view")
	}
	targets := []relation.Tuple{view.Tuple(0), view.Tuple(1), view.Tuple(2)}
	rep, err := e.DeleteGroup("v", targets, core.MinimizeSourceDeletions, core.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := e.Query("v")
	for _, tg := range targets {
		if after.Contains(tg) {
			t.Errorf("target %v survived the group deletion", tg)
		}
	}
	if !rep.Exact {
		t.Error("exact group deletion not marked exact")
	}
	fresh, err := algebra.Eval(q, e.Database())
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(fresh) {
		t.Fatal("maintained view diverged from re-evaluation after group delete")
	}
}

func TestStats(t *testing.T) {
	e := mustEngine(t)
	if _, err := e.Query("access"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Annotate("access", relation.StringTuple("john", "f1"), "file"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete("access", relation.StringTuple("john", "f2"), core.MinimizeViewSideEffects, core.DeleteOptions{}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Prepares != 1 || st.Queries < 1 || st.Deletes != 1 || st.Annotates != 1 {
		t.Fatalf("unexpected counters: %+v", st)
	}
	if st.IncrementalMaintenances < 1 {
		t.Fatalf("no incremental maintenance recorded: %+v", st)
	}
	if len(st.Views) != 1 || st.Views[0].Name != "access" || st.Views[0].Generation != 1 {
		t.Fatalf("unexpected view stats: %+v", st.Views)
	}
	if !st.Views[0].WhereReady {
		t.Error("post-delete generation should carry an incrementally maintained where index")
	}
	if got := e.Views(); len(got) != 1 || got[0] != "access" {
		t.Fatalf("Views() = %v", got)
	}
}

// The engine's cached-basis answers must agree with the one-shot routed
// solvers on optimum sizes.
func TestEngineMatchesOneShot(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		db, q := workload.UserGroupFile(r, 8, 4, 6, 2, 2)
		target, ok := workload.PickViewTuple(r, q, db)
		if !ok {
			continue
		}
		for _, obj := range []core.Objective{core.MinimizeViewSideEffects, core.MinimizeSourceDeletions} {
			oneShot, err := core.Delete(q, db.Clone(), target, obj, core.DeleteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e := New(db)
			if err := e.Prepare("v", q); err != nil {
				t.Fatal(err)
			}
			cached, err := e.Delete("v", target, obj, core.DeleteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if obj == core.MinimizeViewSideEffects && len(cached.Result.SideEffects) != len(oneShot.Result.SideEffects) {
				t.Errorf("seed %d view objective: cached %d side-effects, one-shot %d", seed, len(cached.Result.SideEffects), len(oneShot.Result.SideEffects))
			}
			if obj == core.MinimizeSourceDeletions && len(cached.Result.T) != len(oneShot.Result.T) {
				t.Errorf("seed %d source objective: cached |T|=%d, one-shot |T|=%d", seed, len(cached.Result.T), len(oneShot.Result.T))
			}
		}
	}
}

// The engine's cached where-index placements must equal the one-shot
// routed ones cell for cell, the SPU scan's tie rule included.
func TestAnnotateMatchesOneShot(t *testing.T) {
	gens := []struct {
		name string
		gen  func(*rand.Rand) (*relation.Database, algebra.Query)
	}{
		{"SPU", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SPU(r, 3, 12, 6) }},
		{"SJU", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.SJU(r, 8, 4) }},
		{"TwoRelationPJ", func(r *rand.Rand) (*relation.Database, algebra.Query) { return workload.TwoRelationPJ(r, 8, 4) }},
	}
	for _, g := range gens {
		for seed := int64(0); seed < 60; seed++ {
			db, q := g.gen(rand.New(rand.NewSource(seed)))
			e := New(db)
			if err := e.Prepare("v", q); err != nil {
				t.Fatal(err)
			}
			view := algebra.MustEval(q, db)
			for _, tu := range view.Tuples() {
				for _, attr := range view.Schema().Attrs() {
					oneShot, err := core.Annotate(q, db, tu, attr)
					if err != nil {
						t.Fatal(err)
					}
					cached, err := e.Annotate("v", tu, attr)
					if err != nil {
						t.Fatal(err)
					}
					if !samePlacement(oneShot.Placement, cached.Placement) {
						t.Errorf("%s seed %d (%v).%s: one-shot %v (%d), cached %v (%d)", g.name, seed, tu, attr,
							oneShot.Placement.Source, oneShot.Placement.SideEffects, cached.Placement.Source, cached.Placement.SideEffects)
					}
				}
			}
		}
	}

	// Π_A(S) ∪ Π_A(R): two side-effect-free sources in different branches.
	db := relation.NewDatabase()
	for _, rel := range []struct {
		name string
		b    int64
	}{{"S", 1}, {"R", 2}} {
		r := relation.New(rel.name, relation.NewSchema("A", "B"))
		r.Insert(relation.NewTuple(relation.String("x"), relation.Int(rel.b)))
		db.MustAdd(r)
	}
	a := []relation.Attribute{"A"}
	q := algebra.Un(algebra.Pi(a, algebra.R("S")), algebra.Pi(a, algebra.R("R")))
	e := New(db)
	if err := e.Prepare("tie", q); err != nil {
		t.Fatal(err)
	}
	want := relation.Loc("R", relation.NewTuple(relation.String("x"), relation.Int(2)), "A")
	oneShot, err := core.Annotate(q, db, relation.StringTuple("x"), "A")
	if err != nil {
		t.Fatal(err)
	}
	cached, err := e.Annotate("tie", relation.StringTuple("x"), "A")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*annotation.Placement{oneShot.Placement, cached.Placement} {
		if p.Source.Key() != want.Key() {
			t.Errorf("tie: source %v, want %v", p.Source, want)
		}
	}
}

func samePlacement(a, b *annotation.Placement) bool {
	return a.Source.Key() == b.Source.Key() && a.SideEffects == b.SideEffects && a.Affected.Equal(b.Affected)
}
