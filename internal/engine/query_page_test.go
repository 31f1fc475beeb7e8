package engine

import (
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// TestQueryPageBasics pins the pagination contract: lexicographic order,
// effective-offset clamping, limit slicing, totals, and the generation
// pairing.
func TestQueryPageBasics(t *testing.T) {
	e := mustEngine(t)
	page, err := e.QueryPage("access", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 4 || len(page.Tuples) != 4 {
		t.Fatalf("total %d, rows %d, want 4/4", page.Total, len(page.Tuples))
	}
	if !sort.SliceIsSorted(page.Tuples, func(i, j int) bool { return page.Tuples[i].Less(page.Tuples[j]) }) {
		t.Fatalf("page not lexicographically sorted: %v", page.Tuples)
	}
	if page.Generation != 0 {
		t.Fatalf("generation = %d, want 0", page.Generation)
	}

	mid, err := e.QueryPage("access", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Tuples) != 2 || mid.Offset != 1 {
		t.Fatalf("mid page: %d rows at offset %d, want 2 at 1", len(mid.Tuples), mid.Offset)
	}
	for i, tp := range mid.Tuples {
		if tp.Key() != page.Tuples[1+i].Key() {
			t.Fatalf("mid page row %d = %v, want %v", i, tp, page.Tuples[1+i])
		}
	}

	past, err := e.QueryPage("access", 99, 5)
	if err != nil {
		t.Fatal(err)
	}
	if past.Offset != 4 || len(past.Tuples) != 0 {
		t.Fatalf("past-the-end page: offset %d rows %d, want 4/0", past.Offset, len(past.Tuples))
	}

	if _, err := e.QueryPage("nope", 0, 1); err == nil {
		t.Fatal("unknown view must fail")
	}
	if _, err := e.QueryPage("access", -1, 1); err == nil {
		t.Fatal("negative offset must fail")
	}
}

// TestQueryPageSortedCachePerSnapshot pins the bugfix itself: within one
// published generation every page is cut from the SAME cached sorted row
// slice (the sort runs once per snapshot, not once per request), and a
// commit — which publishes a fresh snapshot — invalidates it.
func TestQueryPageSortedCachePerSnapshot(t *testing.T) {
	e := mustEngine(t)
	p1, err := e.QueryPage("access", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.QueryPage("access", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Tuples) == 0 || &p1.Tuples[0] != &p2.Tuples[0] {
		t.Fatal("two pages of one generation did not share the cached sorted slice")
	}
	// A sub-page aliases the same backing array.
	sub, err := e.QueryPage("access", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Tuples) != 1 || &sub.Tuples[0] != &p1.Tuples[2] {
		t.Fatal("sub-page was not sliced from the cached sorted rows")
	}

	if _, err := e.Delete("access", p1.Tuples[0], core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
		t.Fatal(err)
	}
	p3, err := e.QueryPage("access", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Generation != p1.Generation+1 {
		t.Fatalf("post-commit generation = %d, want %d", p3.Generation, p1.Generation+1)
	}
	if p3.Total >= p1.Total {
		t.Fatalf("post-commit total = %d, want < %d", p3.Total, p1.Total)
	}
	for _, tp := range p3.Tuples {
		if tp.Key() == p1.Tuples[0].Key() {
			t.Fatal("deleted tuple served from a stale sorted cache")
		}
	}
}

// TestDeleteCommitStaysDeltaBounded is the regression test for the
// commit-lock flush bug: the old maintenance filtered only the basis root
// per delete and, past a 64-deletion backlog, rebuilt EVERY tree node
// inside ApplyDeletion — which runs on the engine's commit path, under
// the commit lock — so one unlucky delete (the threshold crossing)
// stalled every writer for a full O(|tree|) pass. With the node overlays
// every delete propagates eagerly in O(|Δ|). The test drives a long
// single-delete stream well past the old threshold through a large
// prepared view and asserts the total maintenance work stays far under
// one tree scan — a single legacy flush already exceeded it — so no
// commit can have paid a full-tree rebuild.
func TestDeleteCommitStaysDeltaBounded(t *testing.T) {
	const rows = 3000
	const deletions = 100 // well past the old 64-deletion flush threshold
	db := relation.NewDatabase()
	r := relation.New("R", relation.NewSchema("A", "B"))
	for i := 0; i < rows; i++ {
		r.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i%7))
	}
	s := relation.New("S", relation.NewSchema("B", "C"))
	for i := 0; i < 7; i++ {
		s.InsertStrings("b"+strconv.Itoa(i), "c"+strconv.Itoa(i))
	}
	db.MustAdd(r)
	db.MustAdd(s)
	e := New(db)
	if err := e.PrepareText("v", "project(A, C; join(R, S))"); err != nil {
		t.Fatal(err)
	}
	treeSize := e.Stats().Views[0].Tree.NodeTuples
	if treeSize < 2*rows {
		t.Fatalf("tree unexpectedly small: %d node tuples", treeSize)
	}
	for i := 0; i < deletions; i++ {
		// Minimizing view side-effects forces the solver onto the R tuple
		// (deleting the S side would wipe ~rows/7 view tuples), so every
		// round deletes exactly one source tuple and one view tuple.
		target := relation.StringTuple("a"+strconv.Itoa(i), "c"+strconv.Itoa(i%7))
		if _, err := e.Delete("v", target, core.MinimizeViewSideEffects, core.DeleteOptions{}); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	st := e.Stats().Views[0]
	if st.Generation != deletions {
		t.Fatalf("generation %d, want %d", st.Generation, deletions)
	}
	if st.Tree.TouchedTuples >= int64(treeSize) {
		t.Fatalf("%d deletions touched %d node tuples — a commit paid full-tree work (tree size %d)",
			deletions, st.Tree.TouchedTuples, treeSize)
	}
	if st.Tree.Derives != deletions {
		t.Fatalf("tree derives %d, want %d", st.Tree.Derives, deletions)
	}
	if st.Tree.SharedNodes == 0 || st.Tree.RewrittenNodes == 0 {
		t.Fatalf("tree sharing counters did not move: %+v", st.Tree)
	}
}

// TestUntouchedViewCarriesCachesAcrossCommits pins the cross-view cache
// contract: a commit that cannot affect a view (its base relations are
// disjoint from the write) must NOT discard that view's per-snapshot
// caches — the sorted page rows keep their backing array and the
// where-provenance index stays built — while a commit that does touch
// the view leaves both pending catch-up from the commit's write.
func TestUntouchedViewCarriesCachesAcrossCommits(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", relation.NewSchema("A", "B"))
	for i := 0; i < 50; i++ {
		r.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	s := relation.New("S", relation.NewSchema("X", "Y"))
	for i := 0; i < 50; i++ {
		s.InsertStrings("x"+strconv.Itoa(i), "y"+strconv.Itoa(i))
	}
	db.MustAdd(r)
	db.MustAdd(s)
	e := New(db)
	if err := e.PrepareText("vr", "R"); err != nil {
		t.Fatal(err)
	}
	if err := e.PrepareText("vs", "S"); err != nil {
		t.Fatal(err)
	}

	before, err := e.QueryPage("vs", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Build vs's where index, which is built lazily on the first Annotate.
	if _, err := e.Annotate("vs", relation.StringTuple("x0", "y0"), "X"); err != nil {
		t.Fatal(err)
	}
	// A write stream into R only: vs is provably unaffected each commit.
	for i := 0; i < 3; i++ {
		target := relation.StringTuple("a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
		rep, err := e.Delete("vr", target, core.MinimizeSourceDeletions, core.DeleteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Insert(rep.Result.T); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.QueryPage("vs", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if &after.Tuples[0] != &before.Tuples[0] {
		t.Fatal("commits disjoint from the view discarded its sorted cache")
	}
	if info, _ := e.Describe("vs"); !info.WhereReady {
		t.Fatal("commits disjoint from the view discarded its where index")
	}
	// The touched view's sorted rows are caught up from its own commits.
	vr, err := e.QueryPage("vr", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Generation != 6 {
		t.Fatalf("vr generation = %d, want 6", vr.Generation)
	}
	if vr.Total != 50 {
		t.Fatalf("vr total = %d, want 50 after three delete/restore round trips", vr.Total)
	}
}
