package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/relation"
)

// countWhere replaces computeWhere with a counting wrapper for the test's
// duration.
func countWhere(t *testing.T) *int {
	t.Helper()
	var mu sync.Mutex
	calls := 0
	orig := computeWhere
	computeWhere = func(q algebra.Query, db *relation.Database) (*annotation.WhereView, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return orig(q, db)
	}
	t.Cleanup(func() { computeWhere = orig })
	return &calls
}

// reuseEngine prepares the user/file access view over a source large
// enough that a script of writes leaves it well populated.
func reuseEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	db := relation.NewDatabase()
	ug := relation.New("UserGroup", relation.NewSchema("user", "group"))
	for u := 0; u < 12; u++ {
		ug.InsertStrings(fmt.Sprintf("u%d", u), fmt.Sprintf("g%d", u%4))
		ug.InsertStrings(fmt.Sprintf("u%d", u), fmt.Sprintf("g%d", (u+1)%4))
	}
	db.MustAdd(ug)
	gf := relation.New("GroupFile", relation.NewSchema("group", "file"))
	for f := 0; f < 8; f++ {
		gf.InsertStrings(fmt.Sprintf("g%d", f%4), fmt.Sprintf("f%d", f))
	}
	db.MustAdd(gf)
	e := New(db, opts)
	if err := e.PrepareText("access", srcQuery); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkPlacements compares the engine's placement of every view cell with
// annotation.Place over the engine's current source — a from-scratch
// where-provenance evaluation that bypasses the engine's index.
func checkPlacements(t *testing.T, e *Engine, label string) {
	t.Helper()
	p, err := e.lookup("access")
	if err != nil {
		t.Fatal(err)
	}
	view, err := e.Query("access")
	if err != nil {
		t.Fatal(err)
	}
	db := e.Database()
	for _, tu := range view.SortedTuples() {
		for _, attr := range view.Schema().Attrs() {
			got, err := e.Annotate("access", tu, attr)
			if err != nil {
				t.Fatalf("%s: Annotate(%v, %s): %v", label, tu, attr, err)
			}
			want, err := annotation.Place(p.plan, db, tu, attr)
			if err != nil {
				t.Fatalf("%s: Place(%v, %s): %v", label, tu, attr, err)
			}
			if got.Placement.Source.Key() != want.Source.Key() || got.Placement.SideEffects != want.SideEffects ||
				!got.Placement.Affected.Equal(want.Affected) {
				t.Fatalf("%s: engine places (%v, %s) at %v with %d side effects, fresh evaluation at %v with %d",
					label, tu, attr, got.Placement.Source, got.Placement.SideEffects, want.Source, want.SideEffects)
			}
		}
	}
}

func whereReady(t *testing.T, e *Engine) bool {
	t.Helper()
	vs, err := e.Describe("access")
	if err != nil {
		t.Fatal(err)
	}
	return vs.WhereReady
}

// TestWhereIndexReuseAcrossDeletes pins the lazy, catch-up design of the
// where-provenance index: Prepare builds none, the view's first Annotate
// computes it once, and from then on no mix of deletes, group deletes,
// inserts and coalesced insert batches makes an Annotate compute it again
// — each generation replays the writes since the last annotated one, and
// its placements match a from-scratch evaluation. WhereReady is true on
// every generation after the first Annotate.
func TestWhereIndexReuseAcrossDeletes(t *testing.T) {
	calls := countWhere(t)
	e := reuseEngine(t, Options{})
	if *calls != 0 {
		t.Fatalf("Prepare ran computeWhere %d times, want 0 (the index is built lazily)", *calls)
	}
	if whereReady(t, e) {
		t.Fatal("WhereReady true before the first Annotate")
	}
	checkPlacements(t, e, "first annotate")
	if *calls != 1 {
		t.Fatalf("first Annotates ran computeWhere %d times, want 1", *calls)
	}

	view, _ := e.Query("access")
	rep, err := e.Delete("access", view.Tuple(0), core.MinimizeViewSideEffects, core.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !whereReady(t, e) {
		t.Fatal("WhereReady false after a delete of an annotated view")
	}
	checkPlacements(t, e, "after delete")

	view, _ = e.Query("access")
	group, err := e.DeleteGroup("access", []relation.Tuple{view.Tuple(0), view.Tuple(view.Len() - 1)},
		core.MinimizeSourceDeletions, core.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Restore the first delete, then insert fresh tuples in one coalesced
	// batch of concurrent requests, with no Annotate in between.
	if _, err := e.Insert(rep.Result.T); err != nil {
		t.Fatal(err)
	}
	if !whereReady(t, e) {
		t.Fatal("WhereReady false after an insert commit")
	}
	var wg sync.WaitGroup
	fresh := []relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("zoe", "g1")},
		{Rel: "UserGroup", Tuple: relation.StringTuple("u3", "g2")},
		{Rel: "GroupFile", Tuple: relation.StringTuple("g2", "f9")},
		group.Result.T[0],
	}
	errs := make([]error, len(fresh))
	e.wmu.Lock()
	for i := range fresh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Insert([]relation.SourceTuple{fresh[i]})
		}(i)
	}
	releaseWhenQueued(t, e, len(fresh))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CoalescedInserts == 0 {
		t.Fatalf("no insert requests coalesced: %+v", st)
	}
	if !whereReady(t, e) {
		t.Fatal("WhereReady false after a coalesced insert batch")
	}
	checkPlacements(t, e, "after deletes, inserts and a coalesced batch")
	if *calls != 1 {
		t.Fatalf("computeWhere ran %d times after the write mix, want still 1 — the index was rebuilt instead of caught up", *calls)
	}
}

// TestWhereIndexRebuildsAfterLongLog pins the catch-up rule's other side:
// once the writes pending on a view outnumber the rows of the index they
// would be replayed onto, the generation drops its base — WhereReady goes
// false — and the next Annotate computes the index from scratch, once.
func TestWhereIndexRebuildsAfterLongLog(t *testing.T) {
	calls := countWhere(t)
	e := reuseEngine(t, Options{})
	checkPlacements(t, e, "first annotate")
	if *calls != 1 {
		t.Fatalf("first Annotates ran computeWhere %d times, want 1", *calls)
	}
	view, _ := e.Query("access")
	rows := view.Len()
	pending := 0
	for i := 0; whereReady(t, e); i++ {
		if i > 4*rows {
			t.Fatalf("WhereReady still true after %d pending tuples over a %d-row base", pending, rows)
		}
		cur, _ := e.Query("access")
		rep, err := e.Delete("access", cur.Tuple(i%cur.Len()), core.MinimizeSourceDeletions, core.DeleteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Insert(rep.Result.T); err != nil {
			t.Fatal(err)
		}
		pending += 2 * len(rep.Result.T)
	}
	if pending <= rows {
		t.Fatalf("base dropped after %d pending tuples, want more than the base's %d rows", pending, rows)
	}
	if *calls != 1 {
		t.Fatalf("computeWhere ran %d times before any further Annotate", *calls)
	}
	checkPlacements(t, e, "after the rebuild")
	if *calls != 2 {
		t.Fatalf("computeWhere ran %d times, want exactly one rebuild", *calls)
	}
}

// TestWhereIndexInternerStaysBounded churns ever-new source tuples through
// Insert, Annotate and DeleteGroup: each round adds a user never seen
// before, annotates one of its cells and deletes it again, so the view and
// the live source locations stay the same size while every round interns
// two new locations. The caught-up index must be replaced by a from-scratch
// one whenever its interner outgrows twice the live locations, and its
// placements must match a fresh ComputeWhere's throughout.
func TestWhereIndexInternerStaysBounded(t *testing.T) {
	calls := countWhere(t)
	e := reuseEngine(t, Options{})
	p, err := e.lookup("access")
	if err != nil {
		t.Fatal(err)
	}
	checkFresh := func(label string) {
		t.Helper()
		fresh, err := annotation.ComputeWhere(p.plan, e.Database())
		if err != nil {
			t.Fatal(err)
		}
		view, _ := e.Query("access")
		for _, tu := range view.SortedTuples() {
			for _, attr := range view.Schema().Attrs() {
				got, err := e.Annotate("access", tu, attr)
				if err != nil {
					t.Fatalf("%s: Annotate(%v, %s): %v", label, tu, attr, err)
				}
				want, err := annotation.PlaceOn(fresh, tu, attr)
				if err != nil {
					t.Fatal(err)
				}
				if got.Placement.Source.Key() != want.Source.Key() || got.Placement.SideEffects != want.SideEffects ||
					!got.Placement.Affected.Equal(want.Affected) {
					t.Fatalf("%s: engine places (%v, %s) at %v with %d side effects, fresh index at %v with %d",
						label, tu, attr, got.Placement.Source, got.Placement.SideEffects, want.Source, want.SideEffects)
				}
			}
		}
	}
	checkFresh("first annotate")
	const rounds = 200
	for i := 0; i < rounds; i++ {
		user := fmt.Sprintf("n%d", i)
		st := relation.SourceTuple{Rel: "UserGroup", Tuple: relation.StringTuple(user, "g1")}
		if _, err := e.Insert([]relation.SourceTuple{st}); err != nil {
			t.Fatal(err)
		}
		// g1 holds files f1 and f5.
		targets := []relation.Tuple{relation.StringTuple(user, "f1"), relation.StringTuple(user, "f5")}
		if _, err := e.Annotate("access", targets[0], "user"); err != nil {
			t.Fatal(err)
		}
		wv := p.snap.Load().where.Load()
		if wv == nil {
			t.Fatalf("round %d: Annotate left no index on the current generation", i)
		}
		if in, live := wv.InternedLocations(), wv.LiveLocations(); in > 2*live {
			t.Fatalf("round %d: index interns %d locations over %d live, want at most twice", i, in, live)
		}
		rep, err := e.DeleteGroup("access", targets, core.MinimizeSourceDeletions, core.DeleteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Result.T) != 1 || rep.Result.T[0].Key() != st.Key() {
			t.Fatalf("round %d: deleting %s's rows removed %v, want only %v", i, user, rep.Result.T, st)
		}
		if i%50 == 49 {
			checkFresh(fmt.Sprintf("round %d", i))
		}
	}
	// Each round interns two locations over 64 live ones, so a rebuild is
	// due about every 32 rounds.
	if *calls < 1+rounds/40 {
		t.Fatalf("computeWhere ran %d times over %d rounds, want the interner bound to rebuild the index at least %d times", *calls, rounds, rounds/40)
	}
}
