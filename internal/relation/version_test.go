package relation

import (
	"strconv"
	"testing"

	"repro/internal/layered"
)

// The one-segment fold/squash schedule: fold past max(64, base/4)
// mentions, squash past 32 layers.
const (
	oneSegFoldFloor = 64
	oneSegMaxDepth  = 32
)

// baseOf returns the base of a one-segment frozen relation.
func baseOf(r *Relation) *segBase { return r.seg.segs[0].Base() }

func seedDB(nR, nS int) *Database {
	db := NewDatabase()
	r := New("R", NewSchema("A", "B"))
	for i := 0; i < nR; i++ {
		r.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i%7))
	}
	s := New("S", NewSchema("B", "C"))
	for i := 0; i < nS; i++ {
		s.InsertStrings("b"+strconv.Itoa(i%7), "c"+strconv.Itoa(i))
	}
	db.MustAdd(r)
	db.MustAdd(s)
	return db
}

// TestDeleteAllSharesUntouchedRelations pins the structure-sharing
// contract: a relation no delta touches is passed to the next generation
// by pointer, and a touched relation becomes an overlay version over the
// same base array.
func TestDeleteAllSharesUntouchedRelations(t *testing.T) {
	db := seedDB(10, 10).Freeze()
	r0, s0 := db.Relation("R"), db.Relation("S")
	next := db.DeleteAll([]SourceTuple{{Rel: "R", Tuple: r0.Tuple(3)}})
	if next.Relation("S") != s0 {
		t.Fatal("untouched relation S was not shared by pointer")
	}
	r1 := next.Relation("R")
	if r1 == r0 {
		t.Fatal("touched relation R was shared by pointer")
	}
	if r1.OverlayDepth() == 0 {
		t.Fatal("touched relation R should be an overlay version")
	}
	if baseOf(r1) != baseOf(r0) {
		t.Fatal("overlay version does not share the base tuple array")
	}
	if r0.Len() != 10 || r1.Len() != 9 {
		t.Fatalf("Len: old %d (want 10), new %d (want 9)", r0.Len(), r1.Len())
	}

	st := next.StoreStats()
	if st.SharedRelations != 1 || st.RewrittenRelations != 1 {
		t.Fatalf("stats: shared %d rewritten %d, want 1/1", st.SharedRelations, st.RewrittenRelations)
	}
	if st.Version != 1 {
		t.Fatalf("version = %d, want 1", st.Version)
	}
}

// TestReinsertAppendsAtEnd pins the order rule a deleted-then-restored
// tuple obeys: it leaves its old position and reappears at the end,
// exactly as the legacy rebuild behaved.
func TestReinsertAppendsAtEnd(t *testing.T) {
	db := NewDatabase()
	r := New("R", NewSchema("A"))
	r.InsertStrings("x")
	r.InsertStrings("y")
	r.InsertStrings("z")
	db.MustAdd(r)

	mid := SourceTuple{Rel: "R", Tuple: StringTuple("y")}
	db2 := db.DeleteAll([]SourceTuple{mid})
	db3, err := db2.InsertAll([]SourceTuple{mid})
	if err != nil {
		t.Fatal(err)
	}
	got := db3.Relation("R").Tuples()
	want := []string{"x", "z", "y"}
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i][0].String() != w {
			t.Fatalf("position %d = %v, want %s", i, got[i], w)
		}
	}
}

// TestFreezeIsolatesFromCallerMutation: mutating the original database
// after Freeze must not reach the snapshot (the engine's New contract).
func TestFreezeIsolatesFromCallerMutation(t *testing.T) {
	db := seedDB(5, 5)
	snap := db.Freeze()
	before := WriteDatabaseString(snap)

	db.Relation("R").InsertStrings("later", "later")
	db.Relation("S").Delete(db.Relation("S").Tuple(0))

	if after := WriteDatabaseString(snap); after != before {
		t.Fatalf("frozen snapshot changed under caller mutation\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if !db.Relation("R").Contains(StringTuple("later", "later")) {
		t.Fatal("caller's own mutation was lost")
	}
}

// TestReadOnlyViewCopiesOnWrite: a reader mutating a ReadOnly view gets a
// private copy; the underlying relation is untouched.
func TestReadOnlyViewCopiesOnWrite(t *testing.T) {
	r := New("R", NewSchema("A"))
	r.InsertStrings("x")
	ro := r.ReadOnly()
	ro.InsertStrings("y")
	if r.Len() != 1 {
		t.Fatalf("mutating the read-only view reached the original: len %d", r.Len())
	}
	if ro.Len() != 2 || !ro.Contains(StringTuple("y")) {
		t.Fatal("read-only view did not become a private copy on write")
	}
}

// TestOverlayFoldThreshold: overlay mentions past max(oneSegFoldFloor,
// base/4) fold into a fresh flat base.
func TestOverlayFoldThreshold(t *testing.T) {
	db := NewDatabase()
	r := New("R", NewSchema("A"))
	for i := 0; i < 10; i++ {
		r.InsertStrings("t" + strconv.Itoa(i))
	}
	db.MustAdd(r)

	// Insert one novel tuple per derive: mentions grow by one each time,
	// so the overlay must fold when they exceed oneSegFoldFloor.
	for i := 0; i <= oneSegFoldFloor; i++ {
		next, err := db.InsertAll([]SourceTuple{{Rel: "R", Tuple: StringTuple("n" + strconv.Itoa(i))}})
		if err != nil {
			t.Fatal(err)
		}
		db = next
	}
	st := db.StoreStats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want exactly 1 after %d unit derives", st.Compactions, oneSegFoldFloor+1)
	}
	if got := db.Relation("R"); got.OverlayDepth() != 0 {
		t.Fatal("relation should be flat right after a fold")
	}
	if got, want := db.Relation("R").Len(), 10+oneSegFoldFloor+1; got != want {
		t.Fatalf("Len after fold = %d, want %d", got, want)
	}
}

// TestOverlaySquashBoundsDepth: a delete/restore churn whose mentions stay
// small must still keep the chain depth bounded via squashing.
func TestOverlaySquashBoundsDepth(t *testing.T) {
	db := seedDB(10, 1)
	target := SourceTuple{Rel: "R", Tuple: db.Relation("R").Tuple(0)}
	for i := 0; i < 10*oneSegMaxDepth; i++ {
		if i%2 == 0 {
			db = db.DeleteAll([]SourceTuple{target})
		} else {
			next, err := db.InsertAll([]SourceTuple{target})
			if err != nil {
				t.Fatal(err)
			}
			db = next
		}
		if d := db.Relation("R").OverlayDepth(); d > oneSegMaxDepth+1 {
			t.Fatalf("iteration %d: overlay depth %d exceeds bound %d", i, d, oneSegMaxDepth+1)
		}
	}
	st := db.StoreStats()
	if st.Squashes == 0 {
		t.Fatalf("depth-bounding churn never squashed (stats %+v)", st)
	}
	// The churn's mentions collapse under each squash (a round-tripped
	// tuple squashes to one tombstone plus one append), so they oscillate
	// within the depth bound instead of growing without limit, and the
	// (never-growing) base is never folded.
	if st.OverlayMentions > oneSegMaxDepth+2 {
		t.Fatalf("steady churn accumulated %d overlay mentions, want ≤ %d", st.OverlayMentions, oneSegMaxDepth+2)
	}
	if st.Compactions != 0 {
		t.Fatalf("steady churn folded %d times; squashing should have absorbed it", st.Compactions)
	}
}

// TestEachStopsEarly: Each honors a false return from yield in both modes.
func TestEachStopsEarly(t *testing.T) {
	r := New("R", NewSchema("A"))
	for i := 0; i < 5; i++ {
		r.InsertStrings("t" + strconv.Itoa(i))
	}
	count := func(rel *Relation) int {
		n := 0
		rel.Each(func(Tuple) bool {
			n++
			return n < 2
		})
		return n
	}
	if got := count(r); got != 2 {
		t.Fatalf("flat Each visited %d, want 2", got)
	}
	db := NewDatabase()
	db.MustAdd(r)
	v := db.DeleteAll([]SourceTuple{{Rel: "R", Tuple: StringTuple("t0")}}).Relation("R")
	if v.OverlayDepth() == 0 {
		t.Fatal("expected an overlay version")
	}
	if got := count(v); got != 2 {
		t.Fatalf("overlay Each visited %d, want 2", got)
	}
}

// TestExportedVersionDerivation pins the out-of-store overlay API the
// maintained views ride on: DeleteVersion/InsertVersion share the
// base storage of a sealed relation, behave byte-identically to a
// rebuild, and report their compaction activity through layered.Counters
// on the same thresholds as the Database store.
func TestExportedVersionDerivation(t *testing.T) {
	var vm layered.Counters
	r := New("N", NewSchema("A", "B"))
	for i := 0; i < 10; i++ {
		r.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	r.Seal()
	dead := map[string]struct{}{r.Tuple(2).Key(): {}, r.Tuple(7).Key(): {}}
	v := r.DeleteVersion(dead, &vm)
	if v.Len() != 8 || r.Len() != 10 {
		t.Fatalf("Len: version %d (want 8), receiver %d (want 10)", v.Len(), r.Len())
	}
	if baseOf(v) != baseOf(r) {
		t.Fatal("DeleteVersion did not share the base tuple array")
	}
	v2 := v.InsertVersion([]Tuple{StringTuple("z0", "z0"), StringTuple("z1", "z1")}, &vm)
	if v2.Len() != 10 {
		t.Fatalf("Len after InsertVersion = %d, want 10", v2.Len())
	}
	// Content identical to a rebuild: survivors in base order, appends last.
	want := New("N", NewSchema("A", "B"))
	for i := 0; i < 10; i++ {
		if i == 2 || i == 7 {
			continue
		}
		want.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	want.InsertStrings("z0", "z0")
	want.InsertStrings("z1", "z1")
	for i, wt := range want.Tuples() {
		if v2.Tuple(i).Key() != wt.Key() {
			t.Fatalf("tuple %d = %v, want %v", i, v2.Tuple(i), wt)
		}
	}
	if v2.OverlayDepth() != 2 || v2.OverlayMentions() != 4 {
		t.Fatalf("overlay shape depth=%d mentions=%d, want 2/4", v2.OverlayDepth(), v2.OverlayMentions())
	}

	// Past the fold limit the chain collapses into a fresh flat base and
	// the metrics record it.
	cur := v2
	for i := 0; cur.OverlayDepth() > 0 || vm.Folds() == 0; i++ {
		cur = cur.InsertVersion([]Tuple{StringTuple("f"+strconv.Itoa(i), "f")}, &vm)
		if i > 10*layered.ForSegments(1).FoldLimit(10) {
			t.Fatal("overlay never folded")
		}
	}
	if vm.Folds() == 0 {
		t.Fatal("fold not counted")
	}
	// Nil metrics are accepted.
	if got := cur.DeleteVersion(map[string]struct{}{cur.Tuple(0).Key(): {}}, nil); got.Len() != cur.Len()-1 {
		t.Fatal("nil-metrics DeleteVersion failed")
	}
}

// TestOneSegmentStoreIsTheDefault: Freeze, Sharded(0) and Sharded(1) of a
// builder database all build the one-segment store over the same tuples,
// and re-sharding a frozen database to its own segment count shares each
// store instead of re-storing it.
func TestOneSegmentStoreIsTheDefault(t *testing.T) {
	db := seedDB(10, 10)
	want := WriteDatabaseString(db)
	for name, snap := range map[string]*Database{"Freeze": db.Freeze(), "Sharded(0)": db.Sharded(0), "Sharded(1)": db.Sharded(1)} {
		for _, r := range snap.Relations() {
			if r.Segments() != 1 {
				t.Fatalf("%s: %s has %d segments, want 1", name, r.Name(), r.Segments())
			}
		}
		if got := WriteDatabaseString(snap); got != want {
			t.Fatalf("%s changed the tuples:\n%s\nwant:\n%s", name, got, want)
		}
	}
	four := db.Sharded(4)
	if again := four.Sharded(4); again.Relation("R").seg != four.Relation("R").seg {
		t.Fatal("Sharded(4) of a 4-segment database re-stored the relation")
	}
}
