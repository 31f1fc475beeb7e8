package engine

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestConcurrentServing interleaves Query/Witnesses/Annotate readers with
// Delete writers (and a late Prepare) on one engine. Run under -race; the
// assertions are secondary to the detector — readers must only ever observe
// internally-consistent snapshots, and every request must either succeed or
// fail with a domain error, never corrupt state.
func TestConcurrentServing(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	db, q := workload.UserGroupFile(r, 20, 8, 15, 2, 2)
	e := New(db)
	if err := e.Prepare("v", q); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var (
		wg        sync.WaitGroup
		done      atomic.Bool
		readOK    atomic.Int64
		writeOK   atomic.Int64
		failures  atomic.Int64
		firstFail atomic.Value
	)
	fail := func(err error) {
		failures.Add(1)
		firstFail.CompareAndSwap(nil, err)
	}

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				view, err := e.Query("v")
				if err != nil {
					fail(err)
					return
				}
				n := view.Len()
				if n == 0 {
					continue
				}
				tu := view.Tuple(n / 2)
				ws, err := e.Witnesses("v", tu)
				if err != nil {
					fail(err)
					return
				}
				if len(ws) == 0 {
					// Allowed only if a writer swapped the snapshot between
					// the two reads; the tuple must be gone from the current
					// view in that case.
					if cur, _ := e.Query("v"); cur.Contains(tu) {
						fail(errors.New("view tuple with empty witness basis in a stable snapshot"))
						return
					}
					continue
				}
				readOK.Add(1)
				if _, err := e.Annotate("v", tu, view.Schema().Attrs()[0]); err != nil {
					// A concurrent delete may have removed the tuple from
					// the generation Annotate resolved.
					if !errors.Is(err, annotation.ErrNoPlacement) {
						fail(err)
						return
					}
				}
			}
		}()
	}

	// One late Prepare races the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.PrepareText("groups", "project(user, group; UserGroup)"); err != nil {
			fail(err)
		}
	}()

	// Writer: keep deleting the first remaining view tuple. It waits for
	// the first successful read so the interleaving is guaranteed (the
	// solver is fast enough to finish all deletions before a reader's
	// first round otherwise).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for readOK.Load() == 0 && failures.Load() == 0 {
			runtime.Gosched()
		}
		for i := 0; i < 40; i++ {
			view, err := e.Query("v")
			if err != nil {
				fail(err)
				return
			}
			if view.Len() == 0 {
				return
			}
			obj := core.MinimizeViewSideEffects
			if i%2 == 1 {
				obj = core.MinimizeSourceDeletions
			}
			if _, err := e.Delete("v", view.Tuple(0), obj, core.DeleteOptions{}); err != nil {
				fail(err)
				return
			}
			writeOK.Add(1)
		}
	}()

	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d failures; first: %v", n, firstFail.Load())
	}
	if writeOK.Load() == 0 {
		t.Fatal("writer made no progress")
	}
	if readOK.Load() == 0 {
		t.Fatal("readers made no progress")
	}
	if st := e.Stats(); st.Deletes != writeOK.Load() {
		t.Errorf("stats count %d deletes, writer did %d", st.Deletes, writeOK.Load())
	}
	// The late-prepared view must be coherent with the final source: a
	// Prepare racing the writers must never register a snapshot that missed
	// a deletion's maintenance pass.
	for _, name := range e.Views() {
		p, err := e.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		view, err := e.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := algebra.Eval(p.plan, e.Database())
		if err != nil {
			t.Fatal(err)
		}
		if !view.Equal(fresh) {
			t.Errorf("view %q stale against final source:\n%s\nvs\n%s", name, view.Table(), fresh.Table())
		}
	}
}

// TestConcurrentCoalescedServing stresses the coalescing write pipeline
// under -race: many writers hammer the same view with single and group
// deletes (batches form from requests queued behind a busy commit),
// readers poll the materialized view, witnesses and stats throughout, and
// two late Prepares land mid-stream. The detector is the primary
// assertion; afterwards every view — including the late ones — must equal
// a fresh evaluation over the final source, and the early view's
// generation counter must equal the number of successful delete requests
// (coalescing must not lose generations).
func TestConcurrentCoalescedServing(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	db, q := workload.UserGroupFile(r, 24, 8, 18, 2, 2)
	e := New(db, Options{MaxBatchSize: 8, Workers: 4})
	if err := e.Prepare("v", q); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		writeOK  atomic.Int64
		writeBad atomic.Int64
	)

	// Readers: view, witnesses, stats.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				view, err := e.Query("v")
				if err != nil {
					t.Error(err)
					return
				}
				if n := view.Len(); n > 0 {
					if _, err := e.Witnesses("v", view.Tuple(n/2)); err != nil {
						t.Error(err)
						return
					}
				}
				_ = e.Stats()
			}
		}()
	}

	// Late prepares race the writers.
	for _, lp := range []struct{ name, q string }{
		{"groups", "project(user, group; UserGroup)"},
		{"files", "project(group, file; GroupFile)"},
	} {
		wg.Add(1)
		go func(name, query string) {
			defer wg.Done()
			runtime.Gosched()
			if err := e.PrepareText(name, query); err != nil {
				t.Errorf("late prepare %s: %v", name, err)
			}
		}(lp.name, lp.q)
	}

	// Writers: mixed single and group deletes against the shared shrinking
	// view. Races on vanished targets surface as ErrNotInView; anything
	// else is a failure.
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rr := rand.New(rand.NewSource(int64(1000 + w)))
			for j := 0; j < 12; j++ {
				view, err := e.Query("v")
				if err != nil {
					t.Error(err)
					return
				}
				n := view.Len()
				if n == 0 {
					return
				}
				obj := core.MinimizeSourceDeletions
				if j%3 == 0 {
					obj = core.MinimizeViewSideEffects
				}
				if j%4 == 3 && n >= 2 {
					targets := []relation.Tuple{view.Tuple(rr.Intn(n)), view.Tuple(rr.Intn(n))}
					if _, err := e.DeleteGroup("v", targets, obj, core.DeleteOptions{Greedy: j%2 == 0}); err != nil {
						if !errors.Is(err, deletion.ErrNotInView) {
							t.Error(err)
							return
						}
						writeBad.Add(1)
					} else {
						writeOK.Add(1)
					}
					continue
				}
				if _, err := e.Delete("v", view.Tuple(rr.Intn(n)), obj, core.DeleteOptions{}); err != nil {
					if !errors.Is(err, deletion.ErrNotInView) {
						t.Error(err)
						return
					}
					writeBad.Add(1)
				} else {
					writeOK.Add(1)
				}
			}
		}(w)
	}
	writersWG.Wait()
	done.Store(true)
	wg.Wait()

	if writeOK.Load() == 0 {
		t.Fatal("no writer made progress")
	}
	st := e.Stats()
	if st.Deletes != writeOK.Load() {
		t.Errorf("stats count %d deletes, writers succeeded %d times", st.Deletes, writeOK.Load())
	}
	if st.CommitBatches > st.Deletes {
		t.Errorf("more batches (%d) than delete requests (%d)", st.CommitBatches, st.Deletes)
	}
	// Every view — early and late — must be coherent with the final source.
	for _, name := range e.Views() {
		p, err := e.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		view, err := e.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := algebra.Eval(p.plan, e.Database())
		if err != nil {
			t.Fatal(err)
		}
		if !view.Equal(fresh) {
			t.Errorf("view %q stale against final source:\n%s\nvs\n%s", name, view.Table(), fresh.Table())
		}
	}
	// The early view saw every commit: its generation is the number of
	// successful requests.
	p, err := e.lookup("v")
	if err != nil {
		t.Fatal(err)
	}
	if g := p.gen.Load(); g != writeOK.Load() {
		t.Errorf("view %q generation %d, want %d (one per successful request)", "v", g, writeOK.Load())
	}
}

// TestConcurrentGroupDeletes stresses the batched path under -race: two
// writers issue group deletions against a shared shrinking view while a
// reader polls stats and the materialized view.
func TestConcurrentGroupDeletes(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	db, q := workload.UserGroupFile(r, 16, 6, 12, 2, 2)
	e := New(db)
	if err := e.Prepare("v", q); err != nil {
		t.Fatal(err)
	}

	var writers sync.WaitGroup
	for i := 0; i < 2; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < 10; j++ {
				view, err := e.Query("v")
				if err != nil {
					t.Error(err)
					return
				}
				if view.Len() < 2 {
					return
				}
				targets := []relation.Tuple{view.Tuple(0), view.Tuple(view.Len() - 1)}
				// Writers race on the same shrinking view; not-in-view
				// errors are expected, corruption is not.
				if _, err := e.DeleteGroup("v", targets, core.MinimizeSourceDeletions, core.DeleteOptions{Greedy: j%2 == 0}); err != nil && !errors.Is(err, deletion.ErrNotInView) {
					t.Error(err)
					return
				}
			}
		}()
	}

	var done atomic.Bool
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !done.Load() {
			_ = e.Stats()
			if _, err := e.Query("v"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	writers.Wait()
	done.Store(true)
	reader.Wait()

	// Final state is coherent: the maintained view equals a fresh
	// evaluation over the engine's own source.
	view, err := e.Query("v")
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.lookup("v")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := algebra.Eval(p.plan, e.Database())
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(fresh) {
		t.Fatalf("final maintained view diverged:\n%s\nvs\n%s", view.Table(), fresh.Table())
	}
}

// TestConcurrentPaginationServing stresses GET /query's serving path —
// QueryPage over the per-snapshot sorted cache — against committing
// writers, under -race. Readers paginate with random windows while a
// delete/restore writer churns commits (each commit publishes a fresh
// snapshot, invalidating the cache the readers share). The detector is
// the primary assertion; each page must additionally be internally
// consistent: lexicographically sorted, duplicate-free, within bounds,
// and attributed to a monotonically non-decreasing generation.
func TestConcurrentPaginationServing(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	db, q := workload.UserGroupFile(r, 20, 8, 15, 2, 2)
	e := New(db)
	if err := e.Prepare("v", q); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var (
		wg        sync.WaitGroup
		done      atomic.Bool
		readOK    atomic.Int64
		writeOK   atomic.Int64
		failures  atomic.Int64
		firstFail atomic.Value
	)
	fail := func(err error) {
		failures.Add(1)
		firstFail.CompareAndSwap(nil, err)
	}

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			lastGen := int64(-1)
			for !done.Load() {
				offset, limit := rr.Intn(30), 1+rr.Intn(10)
				page, err := e.QueryPage("v", offset, limit)
				if err != nil {
					fail(err)
					return
				}
				if len(page.Tuples) > limit || page.Offset+len(page.Tuples) > page.Total {
					fail(errors.New("page exceeds its window"))
					return
				}
				if page.Generation < lastGen {
					fail(errors.New("generation went backwards"))
					return
				}
				lastGen = page.Generation
				for j := 1; j < len(page.Tuples); j++ {
					if !page.Tuples[j-1].Less(page.Tuples[j]) {
						fail(errors.New("page not strictly sorted"))
						return
					}
				}
				readOK.Add(1)
			}
		}(int64(100 + i))
	}

	// Writer: delete the first remaining view tuple, then restore the
	// deleted source tuples — two commits per round, so the sorted cache
	// is invalidated continuously while totals keep moving both ways.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for readOK.Load() == 0 && failures.Load() == 0 {
			runtime.Gosched()
		}
		for i := 0; i < 30; i++ {
			page, err := e.QueryPage("v", 0, 1)
			if err != nil {
				fail(err)
				return
			}
			if len(page.Tuples) == 0 {
				return
			}
			rep, err := e.Delete("v", page.Tuples[0], core.MinimizeSourceDeletions, core.DeleteOptions{})
			if err != nil {
				fail(err)
				return
			}
			if _, err := e.Insert(rep.Result.T); err != nil {
				fail(err)
				return
			}
			writeOK.Add(1)
		}
	}()

	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d failures; first: %v", n, firstFail.Load())
	}
	if writeOK.Load() == 0 || readOK.Load() == 0 {
		t.Fatalf("no progress: %d writes, %d reads", writeOK.Load(), readOK.Load())
	}
	// After the churn the sorted cache must serve exactly the final view.
	page, err := e.QueryPage("v", 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.Query("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Tuples) != final.Len() {
		t.Fatalf("final page has %d rows, view has %d", len(page.Tuples), final.Len())
	}
	for _, tu := range page.Tuples {
		if !final.Contains(tu) {
			t.Fatalf("cached sorted row %v not in the final view", tu)
		}
	}
}
