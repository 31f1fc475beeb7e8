package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/workload"
)

// countSorts replaces sortTuples with a counting wrapper for the test's
// duration.
func countSorts(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := sortTuples
	sortTuples = func(r *relation.Relation) []relation.Tuple {
		n.Add(1)
		return orig(r)
	}
	t.Cleanup(func() { sortTuples = orig })
	return &n
}

// keysOf returns the rows' keys, index-aligned.
func keysOf(rows []relation.Tuple) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	return keys
}

// checkDeltaKeys fails unless every logged view delta carries each row's
// key beside it: netDeltas matches rows by those keys alone.
func checkDeltaKeys(t *testing.T, label string, ws []provenance.Delta) {
	t.Helper()
	for _, w := range ws {
		for _, c := range []struct {
			rows []relation.Tuple
			keys []string
		}{{w.Died, w.DiedKeys}, {w.Added, w.AddedKeys}} {
			if len(c.keys) != len(c.rows) {
				t.Fatalf("%s: a logged delta has %d rows but %d keys", label, len(c.rows), len(c.keys))
			}
			for i, want := range keysOf(c.rows) {
				if c.keys[i] != want {
					t.Fatalf("%s: logged row %v carries key %q", label, c.rows[i], c.keys[i])
				}
			}
		}
	}
}

// checkRows fails unless got is want row for row, compared by key (keys
// are injective, so equal keys mean equal values).
func checkRows(t *testing.T, label string, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// checkPage fails unless page is rows [offset, offset+limit) of the fully
// sorted rows want, with the clamped offset and the total of want.
func checkPage(t *testing.T, label string, page ViewPage, want []relation.Tuple, offset, limit int) {
	t.Helper()
	off := min(offset, len(want))
	end := min(off+limit, len(want))
	if page.Total != len(want) || page.Offset != off {
		t.Fatalf("%s: total %d offset %d, want %d and %d", label, page.Total, page.Offset, len(want), off)
	}
	checkRows(t, label, page.Tuples, want[off:end])
}

// sortEngine prepares three views over a UserGroupFile source extended
// with an unrelated Note relation: the access join and a scan of
// UserGroup, which share UserGroup, and a scan of Note, which no other
// view reads.
func sortEngine(t *testing.T, r *rand.Rand) *Engine {
	t.Helper()
	db, q := workload.UserGroupFile(r, 30, 6, 12, 3, 3)
	note := relation.New("Note", relation.NewSchema("id", "text"))
	for i := 0; i < 12; i++ {
		note.InsertStrings(fmt.Sprintf("n%d", i), fmt.Sprintf("t%d", i%9))
	}
	db.MustAdd(note)
	e := New(db)
	if err := e.Prepare("access", q); err != nil {
		t.Fatal(err)
	}
	for _, v := range [][2]string{{"ug", "UserGroup"}, {"note", "Note"}} {
		if err := e.PrepareText(v[0], v[1]); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSortedPagesMatchFreshSort is the differential for sorted-page
// catch-up. Random scripts of Delete, DeleteGroup and Insert — restores
// of deleted tuples (a delete directly followed by its restore nets to
// no change), fresh tuples, and concurrent requests that coalesce into
// one commit — run against three views, and QueryPage at random offsets
// and limits is interleaved with them. Every page must equal the same
// rows of a fresh SortedTuples of the generation it was cut from. A few
// older snapshots stay pinned and are read and re-read later, so a
// catch-up that modified a base array an older generation shares would
// show. Each read is classified before it runs: with sorted rows pending
// catch-up it must run no full sort, with neither rows nor a log exactly
// one, and SortedReady (Describe and Stats) must say which. The small
// Note view is read only every 40 steps, so its log outgrows its base and
// is dropped.
func TestSortedPagesMatchFreshSort(t *testing.T) {
	sorts := countSorts(t)
	var catchUps, drops, netEmpty int
	var coalesced int64
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := sortEngine(t, r)
		views := []string{"access", "ug", "note"}
		readBefore := map[string]bool{}
		type pin struct {
			snap *snapshot
			want []relation.Tuple
		}
		var pins []pin
		var graveyard [][]relation.SourceTuple

		read := func(step int, name string) {
			t.Helper()
			label := fmt.Sprintf("seed %d step %d view %s", seed, step, name)
			p, err := e.lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			snap := p.snap.Load()
			lg := snap.sorted.log.Load()
			built := snap.sorted.Load() != nil
			vs, err := e.Describe(name)
			if err != nil {
				t.Fatal(err)
			}
			if vs.SortedReady != (built || lg != nil) {
				t.Fatalf("%s: SortedReady %v with rows built %v and log pending %v", label, vs.SortedReady, built, lg != nil)
			}
			if lg != nil {
				checkDeltaKeys(t, label, lg.writes())
			}
			if !built && lg != nil {
				if died, added := netDeltas(lg.writes()); len(died)+len(added) == 0 {
					netEmpty++
				}
			}
			want := snap.prov.View.SortedTuples()
			before := sorts.Load()
			offset, limit := r.Intn(len(want)+2), r.Intn(len(want)+2)
			page, err := e.QueryPage(name, offset, limit)
			if err != nil {
				t.Fatal(err)
			}
			if page.Generation != vs.Generation {
				t.Fatalf("%s: page from generation %d, want %d", label, page.Generation, vs.Generation)
			}
			checkPage(t, label, page, want, offset, limit)
			ran := sorts.Load() - before
			switch {
			case built:
				if ran != 0 {
					t.Fatalf("%s: a read of built rows ran %d full sorts", label, ran)
				}
			case lg != nil:
				if ran != 0 {
					t.Fatalf("%s: a catch-up read ran %d full sorts", label, ran)
				}
				catchUps++
			default:
				if ran != 1 {
					t.Fatalf("%s: a read with no rows and no log ran %d full sorts, want 1", label, ran)
				}
				if readBefore[name] {
					drops++
				}
			}
			readBefore[name] = true
			if len(pins) < 4 || r.Intn(4) == 0 {
				pins = append(pins, pin{snap, want})
				if len(pins) > 4 {
					pins = pins[1:]
				}
			}
		}
		deleteSome := func(name string) []relation.SourceTuple {
			view, err := e.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			if view.Len() < 2 {
				return nil
			}
			obj := core.MinimizeViewSideEffects
			if r.Intn(2) == 0 {
				obj = core.MinimizeSourceDeletions
			}
			var rep *core.DeleteReport
			if r.Intn(3) == 0 {
				targets := []relation.Tuple{view.Tuple(r.Intn(view.Len())), view.Tuple(r.Intn(view.Len()))}
				rep, err = e.DeleteGroup(name, targets, obj, core.DeleteOptions{})
			} else {
				rep, err = e.Delete(name, view.Tuple(r.Intn(view.Len())), obj, core.DeleteOptions{})
			}
			if err != nil {
				t.Fatalf("seed %d: delete on %s: %v", seed, name, err)
			}
			return rep.Result.T
		}
		insert := func(I []relation.SourceTuple) {
			if _, err := e.Insert(I); err != nil {
				t.Fatalf("seed %d: insert: %v", seed, err)
			}
		}

		for _, name := range views {
			read(-1, name)
		}
		for step := 0; step < 80; step++ {
			switch op := r.Intn(6); op {
			case 0, 1: // a delete, kept for a later restore
				if T := deleteSome(views[r.Intn(len(views))]); T != nil {
					graveyard = append(graveyard, T)
				}
			case 2: // a delete directly followed by its restore
				if T := deleteSome(views[r.Intn(2)]); T != nil {
					insert(T)
				}
			case 3: // restore an earlier delete, or insert a fresh Note
				if len(graveyard) > 0 && r.Intn(3) > 0 {
					i := r.Intn(len(graveyard))
					insert(graveyard[i])
					graveyard = append(graveyard[:i], graveyard[i+1:]...)
				} else {
					insert([]relation.SourceTuple{{Rel: "Note", Tuple: relation.StringTuple(fmt.Sprintf("m%d_%d", seed, step), "fresh")}})
				}
			case 4: // concurrent restores, which may coalesce into one commit
				n := min(3, len(graveyard))
				var wg sync.WaitGroup
				e.wmu.Lock()
				for _, T := range graveyard[len(graveyard)-n:] {
					wg.Add(1)
					go func(T []relation.SourceTuple) {
						defer wg.Done()
						if _, err := e.Insert(T); err != nil {
							t.Errorf("seed %d: concurrent insert: %v", seed, err)
						}
					}(T)
				}
				releaseWhenQueued(t, e, n)
				wg.Wait()
				graveyard = graveyard[:len(graveyard)-n]
			case 5: // concurrent deletes on one view, which may coalesce
				view, err := e.Query("ug")
				if err != nil {
					t.Fatal(err)
				}
				if view.Len() < 8 {
					continue
				}
				var mu sync.Mutex
				var wg sync.WaitGroup
				e.wmu.Lock()
				for _, i := range r.Perm(view.Len())[:2] {
					wg.Add(1)
					go func(target relation.Tuple) {
						defer wg.Done()
						rep, err := e.Delete("ug", target, core.MinimizeSourceDeletions, core.DeleteOptions{})
						if err != nil {
							t.Errorf("seed %d: concurrent delete: %v", seed, err)
							return
						}
						mu.Lock()
						graveyard = append(graveyard, rep.Result.T)
						mu.Unlock()
					}(view.Tuple(i))
				}
				releaseWhenQueued(t, e, 2)
				wg.Wait()
			}
			if t.Failed() {
				t.FailNow()
			}
			for k := r.Intn(3); k > 0; k-- {
				read(step, views[r.Intn(2)])
			}
			if step%40 == 39 {
				read(step, "note")
			}
			if len(pins) > 0 && r.Intn(3) == 0 {
				pn := pins[r.Intn(len(pins))]
				checkRows(t, fmt.Sprintf("seed %d step %d: pinned snapshot", seed, step), pn.snap.sortedView(), pn.want)
			}
			if r.Intn(8) == 0 {
				for _, vs := range e.Stats().Views {
					p, _ := e.lookup(vs.Name)
					if snap := p.snap.Load(); vs.SortedReady != snap.sortedReady() {
						t.Fatalf("seed %d step %d: Stats SortedReady %v for %s, snapshot says %v", seed, step, vs.SortedReady, vs.Name, !vs.SortedReady)
					}
				}
			}
		}
		for _, name := range views {
			read(80, name)
		}
		for i, pn := range pins {
			checkRows(t, fmt.Sprintf("seed %d: pinned snapshot %d at the end", seed, i), pn.snap.sortedView(), pn.want)
		}
		st := e.Stats()
		coalesced += st.CoalescedInserts + st.CoalescedDeletes
	}
	t.Logf("%d catch-up reads, %d reads after a dropped log, %d net-empty catch-ups, %d coalesced requests",
		catchUps, drops, netEmpty, coalesced)
	if catchUps == 0 || drops == 0 || netEmpty == 0 || coalesced == 0 {
		t.Fatalf("script missed a case: %d catch-up reads, %d reads after a dropped log, %d net-empty catch-ups, %d coalesced requests",
			catchUps, drops, netEmpty, coalesced)
	}
}

// TestConcurrentFirstReadersShareOneCatchUp starts several first readers
// of one generation at once, after a write to a view whose sorted rows
// were built: all of them must get the same rows — one caught-up slice,
// equal to a fresh sort — and none may run a full sort.
func TestConcurrentFirstReadersShareOneCatchUp(t *testing.T) {
	sorts := countSorts(t)
	e := sortEngine(t, rand.New(rand.NewSource(7)))
	if _, err := e.QueryPage("access", 0, 1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		view, _ := e.Query("access")
		rep, err := e.Delete("access", view.Tuple(round%view.Len()), core.MinimizeSourceDeletions, core.DeleteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			if _, err := e.Insert(rep.Result.T); err != nil {
				t.Fatal(err)
			}
		}
		if vs, _ := e.Describe("access"); !vs.SortedReady {
			t.Fatalf("round %d: SortedReady false after one write over built rows", round)
		}
		before := sorts.Load()
		const readers = 8
		pages := make([]ViewPage, readers)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range pages {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				var err error
				if pages[i], err = e.QueryPage("access", 0, 1<<20); err != nil {
					t.Error(err)
				}
			}(i)
		}
		start.Done()
		done.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if n := sorts.Load() - before; n != 0 {
			t.Fatalf("round %d: concurrent first readers ran %d full sorts", round, n)
		}
		cur, _ := e.Query("access")
		want := cur.SortedTuples()
		for i, pg := range pages {
			checkPage(t, fmt.Sprintf("round %d reader %d", round, i), pg, want, 0, 1<<20)
			if len(want) > 0 && &pg.Tuples[0] != &pages[0].Tuples[0] {
				t.Fatalf("round %d: reader %d got its own sorted slice", round, i)
			}
		}
	}
}

// TestSortLogNetsDeleteRestore checks the netting a catch-up starts with:
// a row deleted and then restored, or added and then deleted, leaves no
// net change, the survivors keep their order of first mention, and a
// net-empty log yields its base. It also checks the drop rule.
func TestSortLogNetsDeleteRestore(t *testing.T) {
	row := func(s string) relation.Tuple { return relation.StringTuple(s) }
	base := []relation.Tuple{row("a"), row("b"), row("c"), row("d"), row("e"), row("f")}
	// extend returns a cache whose log is c's plus the view delta, each
	// row carrying its key as maintenance's deltas do.
	extend := func(c *catchUp[[]relation.Tuple, provenance.Delta], died, added []relation.Tuple) *catchUp[[]relation.Tuple, provenance.Delta] {
		var next catchUp[[]relation.Tuple, provenance.Delta]
		next.follow(c, provenance.Delta{Died: died, Added: added, DiedKeys: keysOf(died), AddedKeys: keysOf(added)}, len(died)+len(added), sortedLen)
		return &next
	}
	var built catchUp[[]relation.Tuple, provenance.Delta]
	built.built.Store(&base)
	c := extend(&built, []relation.Tuple{row("b"), row("a")}, nil)
	c = extend(c, nil, []relation.Tuple{row("b"), row("z"), row("y")})
	c = extend(c, []relation.Tuple{row("y")}, nil)
	lg := c.log.Load()
	died, added := netDeltas(lg.writes())
	checkRows(t, "net died", died, []relation.Tuple{row("a")})
	checkRows(t, "net added", added, []relation.Tuple{row("z")})
	rows, ok := replaySorted(lg.base, lg.writes())
	if !ok {
		t.Fatal("replay of a consistent log failed")
	}
	checkRows(t, "replayed rows", *rows, []relation.Tuple{row("b"), row("c"), row("d"), row("e"), row("f"), row("z")})
	checkRows(t, "base after replay", base, []relation.Tuple{row("a"), row("b"), row("c"), row("d"), row("e"), row("f")})

	restored := extend(extend(&built, []relation.Tuple{row("c")}, nil), nil, []relation.Tuple{row("c")}).log.Load()
	if died, added := netDeltas(restored.writes()); len(died)+len(added) != 0 {
		t.Fatalf("delete then restore nets to died %v, added %v", died, added)
	}
	if rows, ok := replaySorted(restored.base, restored.writes()); !ok || &(*rows)[0] != &base[0] {
		t.Fatal("a net-empty log did not yield its base")
	}
	if long := extend(c, []relation.Tuple{row("c")}, nil).log.Load(); long != nil {
		t.Fatalf("log kept %d pending rows over a %d-row base", long.last.n, len(base))
	}
}

// TestMergeSortedRejectsInconsistentDelta checks that a delta which does
// not fit its base — a died row the base lacks, an added row it already
// holds — is reported rather than merged, so the read sorts instead.
func TestMergeSortedRejectsInconsistentDelta(t *testing.T) {
	base := []relation.Tuple{relation.StringTuple("a"), relation.StringTuple("c")}
	if _, ok := mergeSorted(base, []relation.Tuple{relation.StringTuple("b")}, nil); ok {
		t.Fatal("merged away a row the base lacks")
	}
	if _, ok := mergeSorted(base, nil, []relation.Tuple{relation.StringTuple("c")}); ok {
		t.Fatal("merged in a row the base already holds")
	}
	rows, ok := mergeSorted(base, []relation.Tuple{relation.StringTuple("c")},
		[]relation.Tuple{relation.StringTuple("d"), relation.StringTuple("b"), relation.StringTuple("")})
	if !ok {
		t.Fatal("a consistent delta was rejected")
	}
	checkRows(t, "merged rows", rows, []relation.Tuple{relation.StringTuple(""), relation.StringTuple("a"),
		relation.StringTuple("b"), relation.StringTuple("d")})
}
