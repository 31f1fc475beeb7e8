package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/relation"
)

// pipelineDB is an identity-friendly source: every tuple of R is the sole
// witness of its own image under project(a, b; R), so any solver must
// delete exactly the targeted source tuple — which makes coalesced and
// sequential outcomes provably comparable.
const pipelineDB = `
relation R(a, b)
r1, x
r2, x
r3, y
r4, y
r5, z
r6, z

relation S(b, c)
x, c1
y, c2
z, c3
`

func pipelineEngine(t *testing.T, opts ...Options) *Engine {
	t.Helper()
	db, err := relation.ReadDatabaseString(pipelineDB)
	if err != nil {
		t.Fatal(err)
	}
	e := New(db, opts...)
	if err := e.PrepareText("id", "project(a, b; R)"); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxBatchSize != 32 || o.MaxQueue != 64 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	o = Options{MaxBatchSize: 5, MaxQueue: 2}.withDefaults()
	if o.MaxBatchSize != 5 || o.MaxQueue != 2 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

// releaseWhenQueued waits until n writes are queued, then releases the
// commit lock, which the caller took before queueing them: whoever commits
// next, blocked on the lock meanwhile, finds all n in the queue. Tests use
// it where requests must share (or deliberately not share) a batch.
func releaseWhenQueued(t testing.TB, e *Engine, n int) {
	t.Helper()
	defer e.wmu.Unlock()
	waitQueued(t, e, n)
}

// waitQueued waits until n writes are queued.
func waitQueued(t testing.TB, e *Engine, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		depth, _ := e.Queue()
		if depth >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writes queued", depth, n)
		}
	}
}

// submitted collects Submit outcomes in completion order.
type submitted struct {
	mu   sync.Mutex
	errs map[string]error
	seq  []string
}

// submit submits w under label and records its outcome when it commits.
func (s *submitted) submit(t *testing.T, e *Engine, label string, w Write) {
	t.Helper()
	err := e.Submit(w, func(err error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.errs == nil {
			s.errs = map[string]error{}
		}
		s.errs[label] = err
		s.seq = append(s.seq, label)
	})
	if err != nil {
		t.Fatalf("submit %s: %v", label, err)
	}
}

func del(view string, obj core.Objective, targets ...relation.Tuple) Write {
	return Write{View: view, Targets: targets, Group: len(targets) > 1, Objective: obj}
}

// The committer batches by adjacency: it takes the run of compatible
// requests at the head of the queue, within the cap, and a request of
// another class (view, objective or kind) ends the run rather than being
// skipped over. An oversized group runs alone.
func TestQueueBatchesRunsOfCompatibleRequests(t *testing.T) {
	src, view := core.MinimizeSourceDeletions, core.MinimizeViewSideEffects
	tup := relation.StringTuple
	cases := []struct {
		name    string
		writes  []Write
		batches int64
	}{
		{"one class coalesces", []Write{del("id", src, tup("r1", "x")), del("id", src, tup("r2", "x")), del("id", src, tup("r3", "y"))}, 1},
		{"cap splits the run", []Write{del("id", src, tup("r1", "x")), del("id", src, tup("r2", "x")), del("id", src, tup("r3", "y")), del("id", src, tup("r4", "y")), del("id", src, tup("r5", "z"))}, 2},
		{"another objective ends the run", []Write{del("id", src, tup("r1", "x")), del("id", view, tup("r2", "x")), del("id", src, tup("r3", "y"))}, 3},
		{"another view ends the run", []Write{del("id", src, tup("r1", "x")), del("b", src, tup("x")), del("id", src, tup("r3", "y"))}, 3},
		{"an insert ends the run", []Write{del("id", src, tup("r1", "x")), {Insert: []relation.SourceTuple{{Rel: "R", Tuple: tup("n1", "q")}}}, del("id", src, tup("r3", "y"))}, 3},
		{"oversized group runs alone", []Write{del("id", src, tup("r1", "x"), tup("r2", "x"), tup("r3", "y"), tup("r4", "y"), tup("r5", "z")), del("id", src, tup("r6", "z"))}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := pipelineEngine(t, Options{MaxBatchSize: 4})
			if err := e.PrepareText("b", "project(b; S)"); err != nil {
				t.Fatal(err)
			}
			var got submitted
			e.wmu.Lock()
			for i, w := range tc.writes {
				got.submit(t, e, fmt.Sprint(i), w)
			}
			releaseWhenQueued(t, e, len(tc.writes))
			e.Close()
			for label, err := range got.errs {
				if err != nil {
					t.Errorf("write %s: %v", label, err)
				}
			}
			if st := e.Stats(); st.CommitBatches != tc.batches {
				t.Fatalf("%d batches, want %d", st.CommitBatches, tc.batches)
			}
			var want []string
			for i := range tc.writes {
				want = append(want, fmt.Sprint(i))
			}
			if fmt.Sprint(got.seq) != fmt.Sprint(want) {
				t.Fatalf("answered in order %v, want admission order %v", got.seq, want)
			}
		})
	}
}

// queueBatches queues reqs on an idle engine with batch cap max and
// returns the batches nextBatch cuts from them, in commit order.
func queueBatches(t *testing.T, max int, reqs ...*writeReq) [][]*writeReq {
	t.Helper()
	e := pipelineEngine(t, Options{MaxBatchSize: max})
	e.qmu.Lock()
	for _, r := range reqs {
		r.queued = true
		e.queue = append(e.queue, r)
	}
	e.qmu.Unlock()
	e.wmu.Lock()
	defer e.wmu.Unlock()
	var out [][]*writeReq
	for b := e.nextBatch(nil); b != nil; b = e.nextBatch(nil) {
		for _, r := range b.reqs {
			if r.key != b.key || r.queued {
				t.Fatalf("request %v in a batch of another class, or still queued", r.targets)
			}
		}
		out = append(out, b.reqs)
	}
	if depth, _ := e.Queue(); depth != 0 {
		t.Fatalf("%d requests left queued", depth)
	}
	return out
}

// batchKeys returns the keys of two deletion classes on one view.
func batchKeys(t *testing.T) (src, view batchKey) {
	t.Helper()
	p, err := pipelineEngine(t).lookup("id")
	if err != nil {
		t.Fatal(err)
	}
	return batchKey{view: p, obj: core.MinimizeSourceDeletions}, batchKey{view: p, obj: core.MinimizeViewSideEffects}
}

func delReq(key batchKey, group bool, targets ...relation.Tuple) *writeReq {
	return &writeReq{key: key, targets: targets, group: group}
}

// wantBatches fails unless got holds exactly the batches want, request by
// request.
func wantBatches(t *testing.T, got [][]*writeReq, want ...[]*writeReq) {
	t.Helper()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(got); i++ {
		ok = slices.Equal(got[i], want[i])
	}
	if !ok {
		t.Fatalf("batches %v, want %v", batchTargets(got), batchTargets(want))
	}
}

func batchTargets(bs [][]*writeReq) [][][]relation.Tuple {
	var out [][][]relation.Tuple
	for _, b := range bs {
		var ts [][]relation.Tuple
		for _, r := range b {
			ts = append(ts, r.targets)
		}
		out = append(out, ts)
	}
	return out
}

// Compatible requests at the head of the queue join one batch, up to the
// cap exactly.
func TestBatcherJoin(t *testing.T) {
	src, _ := batchKeys(t)
	r1 := delReq(src, false, relation.StringTuple("r1", "x"))
	r2 := delReq(src, false, relation.StringTuple("r2", "x"))
	r3 := delReq(src, false, relation.StringTuple("r3", "y"))
	wantBatches(t, queueBatches(t, 3, r1, r2, r3), []*writeReq{r1, r2, r3})
}

// A batch at its cap takes no more joiners, and a request of another class
// opens a batch of its own.
func TestBatcherJoinFullClosesBatch(t *testing.T) {
	src, view := batchKeys(t)
	r1 := delReq(src, false, relation.StringTuple("r1", "x"))
	r2 := delReq(src, false, relation.StringTuple("r2", "x"))
	r3 := delReq(src, false, relation.StringTuple("r3", "y"))
	r4 := delReq(view, false, relation.StringTuple("r4", "y"))
	wantBatches(t, queueBatches(t, 2, r1, r2, r3, r4), []*writeReq{r1, r2}, []*writeReq{r3}, []*writeReq{r4})
}

// Batches are per compatibility class and follow admission order: a mixed
// stream splits at every class change, so an incompatible request neither
// joins nor drops another class's requests, and no request is reordered
// past one of another class.
func TestBatcherPendingPerKey(t *testing.T) {
	src, view := batchKeys(t)
	r1 := delReq(src, false, relation.StringTuple("r1", "x"))
	r2 := delReq(view, false, relation.StringTuple("r2", "x"))
	r3 := delReq(view, false, relation.StringTuple("r3", "y"))
	r4 := delReq(src, false, relation.StringTuple("r4", "y"))
	r5 := delReq(src, false, relation.StringTuple("r5", "z"))
	wantBatches(t, queueBatches(t, 8, r1, r2, r3, r4, r5), []*writeReq{r1}, []*writeReq{r2, r3}, []*writeReq{r4, r5})
}

// A group request larger than the cap commits alone: it neither joins the
// batch ahead of it nor lets a later request join its own.
func TestBatcherOversizedGroupRunsAlone(t *testing.T) {
	src, _ := batchKeys(t)
	small := delReq(src, false, relation.StringTuple("r1", "x"))
	big := delReq(src, true, relation.StringTuple("r2", "x"), relation.StringTuple("r3", "y"), relation.StringTuple("r4", "y"))
	after := delReq(src, false, relation.StringTuple("r5", "z"))
	wantBatches(t, queueBatches(t, 2, small, big, after), []*writeReq{small}, []*writeReq{big}, []*writeReq{after})
}

// A delete, the insert that restores what it deleted, and a second delete
// of the restored target, submitted back to back, commit in that order and
// all succeed. A committer that grouped requests by class instead of by
// adjacency would run the two deletes together ahead of the insert, and
// the second delete would find its target gone.
func TestQueueCommitsInAdmissionOrder(t *testing.T) {
	e := pipelineEngine(t)
	target := relation.StringTuple("r1", "x")
	restore := []relation.SourceTuple{{Rel: "R", Tuple: target}}
	var got submitted
	// All three wait in the queue together, so the committer could reorder
	// them if it grouped by class.
	e.wmu.Lock()
	got.submit(t, e, "delete", del("id", core.MinimizeSourceDeletions, target))
	got.submit(t, e, "restore", Write{Insert: restore})
	got.submit(t, e, "delete again", del("id", core.MinimizeSourceDeletions, target))
	releaseWhenQueued(t, e, 3)
	e.Close()
	if strings.Join(got.seq, ",") != "delete,restore,delete again" {
		t.Fatalf("answered in order %v", got.seq)
	}
	for label, err := range got.errs {
		if err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	if view, _ := e.Query("id"); view.Contains(target) || view.Len() != 5 {
		t.Fatalf("view after delete, restore, delete: %v", view)
	}
	if st := e.Stats(); st.Deletes != 2 || st.Inserts != 1 || st.CommitBatches != 3 {
		t.Fatalf("counters %+v, want 2 deletes and 1 insert in 3 commits", st)
	}
}

// A waiting caller's write that shares no source relation with any queued
// write goes to the head of the queue, ahead of writes it commutes with —
// but only ahead of other waiting callers' writes, and only past each
// write once. Writes sharing a relation, and Submitted writes, keep their
// admission order. Each report's Generation is its commit's position,
// since every commit advances every view by one per request.
func TestQueueOvertaking(t *testing.T) {
	db, err := relation.ReadDatabaseString(pipelineDB + "\nrelation T(x)\nt1\nt2\n")
	if err != nil {
		t.Fatal(err)
	}
	src := core.MinimizeSourceDeletions
	cases := []struct {
		name   string
		async  bool // the first write is Submitted, not waited on
		writes []Write
		order  []int // the writes in commit order
	}{
		{"commuting write goes first", false, []Write{del("r", src, relation.StringTuple("r1", "x")), del("s", src, relation.StringTuple("x", "c1"))}, []int{1, 0}},
		{"each write is passed once", false, []Write{del("r", src, relation.StringTuple("r1", "x")), del("s", src, relation.StringTuple("x", "c1")), del("t", src, relation.StringTuple("t1"))}, []int{1, 0, 2}},
		{"a shared relation keeps the order", false, []Write{del("r", src, relation.StringTuple("r1", "x")), del("ra", src, relation.StringTuple("r3"))}, []int{0, 1}},
		{"a Submitted write is never passed", true, []Write{del("r", src, relation.StringTuple("r1", "x")), del("s", src, relation.StringTuple("x", "c1"))}, []int{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(db)
			for name, q := range map[string]string{"r": "project(a, b; R)", "ra": "project(a; R)", "s": "project(b, c; S)", "t": "project(x; T)"} {
				if err := e.PrepareText(name, q); err != nil {
					t.Fatal(err)
				}
			}
			gens := make([]int64, len(tc.writes))
			var wg sync.WaitGroup
			e.wmu.Lock()
			for i, w := range tc.writes {
				if i == 0 && tc.async {
					if err := e.Submit(w, nil); err != nil {
						t.Fatal(err)
					}
					gens[0] = -1
				} else {
					wg.Add(1)
					go func(i int, w Write) {
						defer wg.Done()
						rep, err := e.Delete(w.View, w.Targets[0], w.Objective, w.Options)
						if err != nil {
							t.Error(err)
							return
						}
						gens[i] = rep.Generation
					}(i, w)
				}
				waitQueued(t, e, i+1)
			}
			e.wmu.Unlock()
			wg.Wait()
			e.Close()
			if tc.async {
				gens[0] = 3 - gens[1] // of two positions, the one the other write left
			}
			for pos, i := range tc.order {
				if gens[i] != int64(pos+1) {
					t.Fatalf("commit positions %v, want writes committed in order %v", gens, tc.order)
				}
			}
		})
	}
}

// A panicking batch fails only its own requests, with a "panicked" error;
// the commit lock is free afterwards, and the batches queued behind it
// still commit.
func TestQueuePanicFailsOnlyItsBatch(t *testing.T) {
	e := pipelineEngine(t)
	if err := e.PrepareText("b", "project(b; S)"); err != nil {
		t.Fatal(err)
	}
	CommitHook = func(view string) {
		if view == "b" {
			panic("injected solver bug")
		}
	}
	defer func() { CommitHook = nil }()
	var got submitted
	e.wmu.Lock()
	got.submit(t, e, "before", del("id", core.MinimizeSourceDeletions, relation.StringTuple("r1", "x")))
	got.submit(t, e, "boom 1", del("b", core.MinimizeSourceDeletions, relation.StringTuple("x")))
	got.submit(t, e, "boom 2", del("b", core.MinimizeSourceDeletions, relation.StringTuple("y")))
	got.submit(t, e, "after", del("id", core.MinimizeSourceDeletions, relation.StringTuple("r3", "y")))
	releaseWhenQueued(t, e, 4)
	e.Close()
	for _, label := range []string{"boom 1", "boom 2"} {
		if err := got.errs[label]; err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("%s: error %v, want a panicked error", label, err)
		}
	}
	for _, label := range []string{"before", "after"} {
		if err := got.errs[label]; err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	if !e.wmu.TryLock() {
		t.Fatal("commit lock still held after a panicked batch")
	}
	e.wmu.Unlock()
	if view, _ := e.Query("b"); view.Len() != 3 {
		t.Fatalf("panicked batch reached view b: %v", view)
	}
	if st := e.Stats(); st.Deletes != 2 || st.CommitBatches != 2 {
		t.Fatalf("counters %+v, want the two batches around the panic", st)
	}
}

// A full queue refuses with ErrOverloaded and admits nothing; Close lets
// the queued writes commit, and refuses later ones with ErrClosed.
func TestQueueOverloadedAndClose(t *testing.T) {
	e := pipelineEngine(t, Options{MaxQueue: 2, MaxBatchSize: 1})
	var got submitted
	e.wmu.Lock()
	got.submit(t, e, "a", del("id", core.MinimizeSourceDeletions, relation.StringTuple("r1", "x")))
	got.submit(t, e, "b", del("id", core.MinimizeSourceDeletions, relation.StringTuple("r2", "x")))
	_, err := e.Delete("id", relation.StringTuple("r3", "y"), core.MinimizeSourceDeletions, core.DeleteOptions{})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("write into a full queue: %v, want ErrOverloaded", err)
	}
	if err := e.Submit(Write{Insert: []relation.SourceTuple{{Rel: "R", Tuple: relation.StringTuple("n", "x")}}}, nil); !errors.Is(err, ErrOverloaded) {
		t.Errorf("submit into a full queue: %v, want ErrOverloaded", err)
	}
	if depth, capacity := e.Queue(); depth != 2 || capacity != 2 {
		t.Errorf("Queue() = %d, %d; want 2, 2", depth, capacity)
	}
	e.wmu.Unlock()
	e.Close()
	if len(got.seq) != 2 || got.errs["a"] != nil || got.errs["b"] != nil {
		t.Fatalf("queued writes after Close: %v %v", got.seq, got.errs)
	}
	if _, err := e.Insert([]relation.SourceTuple{{Rel: "R", Tuple: relation.StringTuple("n", "x")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after Close: %v, want ErrClosed", err)
	}
	if view, err := e.Query("id"); err != nil || view.Len() != 4 {
		t.Fatalf("reads after Close: %v, %v", view, err)
	}
	e.Close() // idempotent
}

// New starts no goroutine, and the committer exits once the queue drains:
// after a burst of concurrent writes the goroutine count returns to its
// baseline.
func TestQueueGoroutineLifetime(t *testing.T) {
	base := runtime.NumGoroutine()
	e := pipelineEngine(t)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("New and Prepare left %d goroutines running, want %d", n, base)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tg := relation.StringTuple(fmt.Sprintf("n%d", i), "x")
			if _, err := e.Insert([]relation.SourceTuple{{Rel: "R", Tuple: tg}}); err != nil {
				t.Error(err)
			}
			if _, err := e.Delete("id", tg, core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	waitGoroutines(t, base)
}

// waitGoroutines waits for the goroutine count to fall back to want: a
// committer that answered its last request may not have returned yet.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d", n, want)
		}
	}
}

// An engine that served writes and is dropped without Close is collected:
// no parked committer pins it.
func TestQueueEngineCollectedWithoutClose(t *testing.T) {
	collected := make(chan struct{})
	func() {
		e := pipelineEngine(t)
		if _, err := e.Delete("id", relation.StringTuple("r1", "x"), core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(e, func(*Engine) { close(collected) })
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never collected: something still references it")
		}
	}
}

// A target that vanished before its batch committed fails only its own
// request; valid requests in the same batch still commit.
func TestCommitAttribution(t *testing.T) {
	e := pipelineEngine(t)
	p, err := e.lookup("id")
	if err != nil {
		t.Fatal(err)
	}
	valid := &writeReq{targets: []relation.Tuple{relation.StringTuple("r1", "x")}}
	ghost := &writeReq{targets: []relation.Tuple{relation.StringTuple("ghost", "q")}}
	b := &batch{key: batchKey{view: p, obj: core.MinimizeSourceDeletions}, reqs: []*writeReq{valid, ghost}}
	e.wmu.Lock()
	e.commitDelete(p, b)
	e.wmu.Unlock()

	if valid.err != nil {
		t.Fatalf("valid request failed: %v", valid.err)
	}
	if valid.report == nil || len(valid.report.Result.T) != 1 {
		t.Fatalf("valid request got report %+v", valid.report)
	}
	if !errors.Is(ghost.err, deletion.ErrNotInView) {
		t.Fatalf("ghost request: got %v, want ErrNotInView", ghost.err)
	}
	if ghost.report != nil {
		t.Fatal("failed request must not receive a report")
	}
	st := e.Stats()
	if st.Deletes != 1 || st.CommitBatches != 1 || st.CoalescedDeletes != 0 {
		t.Fatalf("counters after mixed batch: %+v", st)
	}
	if g := p.gen.Load(); g != 1 {
		t.Fatalf("generation %d after one live request, want 1", g)
	}
}

// Coalesced requests targeting the SAME tuple all succeed: they were
// concurrent, the tuple was present at the commit's snapshot, and
// GroupTargets dedups the merged target list before the solve. (A strict
// serial order would instead fail the second with ErrNotInView — see the
// linearization note in pipeline.go.)
func TestCoalescedOverlappingTargetsBothSucceed(t *testing.T) {
	e := pipelineEngine(t)
	p, err := e.lookup("id")
	if err != nil {
		t.Fatal(err)
	}
	tg := relation.StringTuple("r1", "x")
	r1 := &writeReq{targets: []relation.Tuple{tg}}
	r2 := &writeReq{targets: []relation.Tuple{tg}}
	b := &batch{key: batchKey{view: p, obj: core.MinimizeSourceDeletions}, reqs: []*writeReq{r1, r2}}
	e.wmu.Lock()
	e.commitDelete(p, b)
	e.wmu.Unlock()
	if r1.err != nil || r2.err != nil {
		t.Fatalf("overlapping coalesced requests failed: %v / %v", r1.err, r2.err)
	}
	if r1.report != r2.report || len(r1.report.Result.T) != 1 {
		t.Fatalf("expected one shared report deleting one source tuple, got %+v", r1.report)
	}
	if g := p.gen.Load(); g != 2 {
		t.Fatalf("generation %d, want 2 (one per request, even when overlapping)", g)
	}
}

// The same tuple targeted twice within one DeleteGroup is deduplicated by
// the group solve: one source deletion, one generation, and a report whose
// deletions cover the tuple exactly once.
func TestDeleteGroupDuplicateTargets(t *testing.T) {
	e := pipelineEngine(t)
	tg := relation.StringTuple("r1", "x")
	rep, err := e.DeleteGroup("id", []relation.Tuple{tg, tg, tg}, core.MinimizeSourceDeletions, core.DeleteOptions{})
	if err != nil {
		t.Fatalf("duplicate-target group delete: %v", err)
	}
	if len(rep.Result.T) != 1 {
		t.Fatalf("deleted %d source tuples, want 1 (duplicates deduped)", len(rep.Result.T))
	}
	if rep.ViewSize != 5 {
		t.Errorf("report ViewSize %d, want 5", rep.ViewSize)
	}
	if rep.Generation != 1 {
		t.Errorf("report Generation %d, want 1 (one request)", rep.Generation)
	}
	p, _ := e.lookup("id")
	if g := p.gen.Load(); g != 1 {
		t.Fatalf("generation %d after one duplicate-target request, want 1", g)
	}
	view, _ := e.Query("id")
	if view.Contains(tg) || view.Len() != 5 {
		t.Fatalf("view after duplicate-target delete: %v", view)
	}
}

// The same tuple targeted by a Delete and a DeleteGroup that coalesce into
// one batch: both succeed (linearized as simultaneous), share the combined
// report, and the generation advances once per request — identical to the
// non-overlapping case, so duplicate targets can never double-count state.
func TestCoalescedDuplicateAcrossRequests(t *testing.T) {
	e := pipelineEngine(t)
	p, err := e.lookup("id")
	if err != nil {
		t.Fatal(err)
	}
	tg := relation.StringTuple("r3", "y")
	r1 := &writeReq{targets: []relation.Tuple{tg, relation.StringTuple("r1", "x")}, group: true}
	r2 := &writeReq{targets: []relation.Tuple{tg}}
	b := &batch{key: batchKey{view: p, obj: core.MinimizeSourceDeletions}, reqs: []*writeReq{r1, r2}}
	e.wmu.Lock()
	e.commitDelete(p, b)
	e.wmu.Unlock()
	if r1.err != nil || r2.err != nil {
		t.Fatalf("coalesced duplicate requests failed: %v / %v", r1.err, r2.err)
	}
	if r1.report != r2.report {
		t.Fatal("coalesced requests got different reports")
	}
	if len(r1.report.Result.T) != 2 {
		t.Fatalf("combined solve deleted %d source tuples, want 2 (dup deduped)", len(r1.report.Result.T))
	}
	if g := p.gen.Load(); g != 2 {
		t.Fatalf("generation %d, want 2 (one per request, duplicates included)", g)
	}
	if r1.report.ViewSize != 4 || r1.report.Generation != 2 {
		t.Fatalf("report snapshot (size %d, gen %d), want (4, 2)", r1.report.ViewSize, r1.report.Generation)
	}
	st := e.Stats()
	if st.Deletes != 2 || st.DeletedSourceTuples != 2 || st.CoalescedDeletes != 2 {
		t.Fatalf("counters after overlapping batch: %+v", st)
	}
}

// A batch whose every request is stale commits nothing and publishes no
// generation.
func TestCommitAllStale(t *testing.T) {
	e := pipelineEngine(t)
	p, err := e.lookup("id")
	if err != nil {
		t.Fatal(err)
	}
	g1 := &writeReq{targets: []relation.Tuple{relation.StringTuple("nope", "1")}}
	g2 := &writeReq{targets: []relation.Tuple{relation.StringTuple("nope", "2")}}
	b := &batch{key: batchKey{view: p, obj: core.MinimizeSourceDeletions}, reqs: []*writeReq{g1, g2}}
	e.wmu.Lock()
	e.commitDelete(p, b)
	e.wmu.Unlock()
	if g1.err == nil || g2.err == nil {
		t.Fatal("stale requests must fail")
	}
	if st := e.Stats(); st.Deletes != 0 || st.CommitBatches != 0 {
		t.Fatalf("all-stale batch moved counters: %+v", st)
	}
	if p.gen.Load() != 0 {
		t.Fatal("all-stale batch published a generation")
	}
}

// Concurrent deletes queued while the commit lock is busy must commit as
// one batch, every caller sharing the combined report.
func TestConcurrentDeletesCoalesce(t *testing.T) {
	const k = 4
	e := pipelineEngine(t, Options{MaxBatchSize: k})
	targets := []relation.Tuple{
		relation.StringTuple("r1", "x"),
		relation.StringTuple("r2", "x"),
		relation.StringTuple("r3", "y"),
		relation.StringTuple("r4", "y"),
	}
	var wg sync.WaitGroup
	reports := make([]*core.DeleteReport, k)
	errs := make([]error, k)
	e.wmu.Lock()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = e.Delete("id", targets[i], core.MinimizeSourceDeletions, core.DeleteOptions{})
		}(i)
	}
	releaseWhenQueued(t, e, k)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Deletes != k {
		t.Fatalf("Deletes = %d, want %d", st.Deletes, k)
	}
	if st.CommitBatches != 1 {
		t.Fatalf("CommitBatches = %d, want 1 (requests did not coalesce)", st.CommitBatches)
	}
	if st.CoalescedDeletes != k {
		t.Fatalf("CoalescedDeletes = %d, want %d", st.CoalescedDeletes, k)
	}
	// One shared report describing the union.
	for i := 1; i < k; i++ {
		if reports[i] != reports[0] {
			t.Fatal("coalesced callers received different reports")
		}
	}
	if len(reports[0].Result.T) != k {
		t.Fatalf("combined solve deleted %d source tuples, want %d", len(reports[0].Result.T), k)
	}
	if !strings.Contains(reports[0].Algorithm, "coalesced") {
		t.Errorf("algorithm %q not marked coalesced", reports[0].Algorithm)
	}
	view, err := e.Query("id")
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 2 {
		t.Fatalf("view has %d tuples after batch, want 2", view.Len())
	}
	p, _ := e.lookup("id")
	if g := p.gen.Load(); g != k {
		t.Fatalf("generation %d after %d coalesced requests, want %d", g, k, k)
	}
}

// An empty target list fails fast, before entering the pipeline.
func TestDeleteEmptyTargets(t *testing.T) {
	e := pipelineEngine(t)
	if _, err := e.DeleteGroup("id", nil, core.MinimizeSourceDeletions, core.DeleteOptions{}); err == nil {
		t.Fatal("empty DeleteGroup must fail")
	}
	if st := e.Stats(); st.Deletes != 0 {
		t.Fatalf("empty request counted as a delete: %+v", st)
	}
}
