package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/relation"
)

func TestInsertMaintainsAllViews(t *testing.T) {
	e := mustEngine(t)
	if err := e.PrepareText("groups", "project(user, group; UserGroup)"); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Insert([]relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("sue", "staff")},
		{Rel: "GroupFile", Tuple: relation.StringTuple("staff", "f3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inserted) != 2 || rep.Duplicates != 0 || rep.Requested != 2 {
		t.Fatalf("report %+v, want 2 inserted, 0 duplicates", rep)
	}
	// Every prepared view equals a fresh evaluation over the new source —
	// including the join view, which gains (sue,f1), (sue,f3), (john,f3).
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
			t.Errorf("view %q diverged after insert:\n%s\nvs\n%s", name, view.Table(), fresh.Table())
		}
	}
	access, _ := e.Query("access")
	if !access.Contains(relation.StringTuple("sue", "f3")) {
		t.Error("join view missing a tuple derived from two inserted sources")
	}
	// The report carries each view's committed size and generation.
	if len(rep.Views) != 2 || rep.Views[0].Name != "access" || rep.Views[0].Generation != 1 {
		t.Errorf("report views %+v", rep.Views)
	}
	st := e.Stats()
	if st.Inserts != 1 || st.InsertedSourceTuples != 2 || st.CommitBatches != 1 {
		t.Errorf("counters after insert: %+v", st)
	}
}

// The undo workload the insertion path exists for: re-inserting exactly
// the source tuples a Delete removed restores the source, every view and
// every witness basis byte-identically.
func TestInsertRestoresDeletion(t *testing.T) {
	e := mustEngine(t)
	if err := e.PrepareText("groups", "project(user, group; UserGroup)"); err != nil {
		t.Fatal(err)
	}
	pristineSource := e.Database().String()
	pristine := make(map[string]string)
	for _, name := range e.Views() {
		pristine[name] = basisFingerprint(enginePerViewBasis(t, e, name))
	}

	rep, err := e.Delete("access", relation.StringTuple("john", "f2"), core.MinimizeViewSideEffects, core.DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.T) == 0 {
		t.Fatal("no deletions to restore")
	}
	ins, err := e.Insert(rep.Result.T)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.Inserted) != len(rep.Result.T) || ins.Duplicates != 0 {
		t.Fatalf("restore report %+v, want all %d tuples novel", ins, len(rep.Result.T))
	}
	if got := e.Database().String(); got != pristineSource {
		t.Errorf("source not restored\n got:\n%s\nwant:\n%s", got, pristineSource)
	}
	for _, name := range e.Views() {
		if got := basisFingerprint(enginePerViewBasis(t, e, name)); got != pristine[name] {
			t.Errorf("view %q basis not restored\n got:\n%s\nwant:\n%s", name, got, pristine[name])
		}
		info, err := e.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != 2 {
			t.Errorf("view %q generation %d after delete+restore, want 2", name, info.Generation)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	e := mustEngine(t)
	if _, err := e.Insert(nil); err == nil {
		t.Error("empty insert must fail")
	}
	if _, err := e.Insert([]relation.SourceTuple{{Rel: "Nope", Tuple: relation.StringTuple("x")}}); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation: got %v, want ErrUnknownRelation", err)
	}
	if _, err := e.Insert([]relation.SourceTuple{{Rel: "UserGroup", Tuple: relation.StringTuple("only-one")}}); err == nil {
		t.Error("arity mismatch must fail")
	}
	// Nothing committed, nothing counted.
	if st := e.Stats(); st.Inserts != 0 || st.CommitBatches != 0 {
		t.Errorf("failed inserts moved counters: %+v", st)
	}
}

// Inserting tuples that already exist is an idempotent no-op: the request
// succeeds, reports the duplicates, and publishes no generation.
func TestInsertDuplicateIdempotent(t *testing.T) {
	e := mustEngine(t)
	rep, err := e.Insert([]relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("john", "staff")}, // exists
		{Rel: "UserGroup", Tuple: relation.StringTuple("john", "staff")}, // repeated in-batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inserted) != 0 || rep.Duplicates != 2 {
		t.Fatalf("report %+v, want 0 inserted / 2 duplicates", rep)
	}
	info, err := e.Describe("access")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 0 {
		t.Errorf("pure-duplicate insert advanced the generation to %d", info.Generation)
	}
	st := e.Stats()
	if st.Inserts != 1 || st.InsertedSourceTuples != 0 || st.CommitBatches != 0 {
		t.Errorf("counters after duplicate insert: %+v", st)
	}
	// A mixed batch inserts the novel tuple and counts the duplicate.
	rep, err = e.Insert([]relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("john", "staff")},
		{Rel: "UserGroup", Tuple: relation.StringTuple("sue", "staff")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inserted) != 1 || rep.Duplicates != 1 {
		t.Fatalf("mixed report %+v", rep)
	}
	if info, _ := e.Describe("access"); info.Generation != 1 {
		t.Errorf("mixed insert generation %d, want 1", info.Generation)
	}
}

// An insertion that would grow a capped basis past its PrepareLimited
// limit fails the whole batch atomically: nothing is published.
func TestInsertRespectsPrepareLimit(t *testing.T) {
	db, err := relation.ReadDatabaseString(srcDB)
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	// (john,f1) has exactly 2 witnesses; cap at 2 so a third route trips it.
	if err := e.PrepareLimited("v", mustParse(t, srcQuery), provenance.Limit{MaxWitnesses: 2}); err != nil {
		t.Fatal(err)
	}
	before := e.Database().String()
	beforeBasis := basisFingerprint(enginePerViewBasis(t, e, "v"))
	_, err = e.Insert([]relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("john", "devs")},
		{Rel: "GroupFile", Tuple: relation.StringTuple("devs", "f1")},
	})
	if !errors.Is(err, provenance.ErrLimit) {
		t.Fatalf("got %v, want ErrLimit", err)
	}
	if got := e.Database().String(); got != before {
		t.Error("failed insert mutated the source")
	}
	if got := basisFingerprint(enginePerViewBasis(t, e, "v")); got != beforeBasis {
		t.Error("failed insert mutated the basis")
	}
	if info, _ := e.Describe("v"); info.Generation != 0 {
		t.Error("failed insert published a generation")
	}
}

// A coalesced insert batch where ONE request blows a PrepareLimited cap is
// replayed per request: the innocent request succeeds exactly as it would
// have serially, only the poisonous one fails.
func TestCoalescedInsertFailureAttribution(t *testing.T) {
	db, err := relation.ReadDatabaseString(srcDB)
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	if err := e.PrepareLimited("v", mustParse(t, srcQuery), provenance.Limit{MaxWitnesses: 2}); err != nil {
		t.Fatal(err)
	}
	innocent := &writeReq{key: batchKey{}, tuples: []relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("sue", "staff")},
	}}
	poison := &writeReq{key: batchKey{}, tuples: []relation.SourceTuple{
		{Rel: "UserGroup", Tuple: relation.StringTuple("john", "devs")},
		{Rel: "GroupFile", Tuple: relation.StringTuple("devs", "f1")}, // 3rd route to (john,f1): cap is 2
	}}
	b := &batch{key: batchKey{}, reqs: []*writeReq{innocent, poison}}
	e.wmu.Lock()
	e.commitInsert(b)
	e.wmu.Unlock()

	if innocent.err != nil || innocent.ins == nil {
		t.Fatalf("innocent coalesced insert failed: %v", innocent.err)
	}
	if !errors.Is(poison.err, provenance.ErrLimit) {
		t.Fatalf("poisonous request: got %v, want ErrLimit", poison.err)
	}
	view, err := e.Query("v")
	if err != nil {
		t.Fatal(err)
	}
	if !view.Contains(relation.StringTuple("sue", "f1")) {
		t.Error("innocent request's effect missing from the view")
	}
	if e.Database().Contains(relation.SourceTuple{Rel: "UserGroup", Tuple: relation.StringTuple("john", "devs")}) {
		t.Error("poisonous request's tuples reached the source")
	}
	if info, _ := e.Describe("v"); info.Generation != 1 {
		t.Errorf("generation %d, want 1 (only the innocent request committed)", info.Generation)
	}
}

// Concurrent Insert requests queued behind a busy commit lock coalesce
// into one commit: one source
// extension, one delta-maintenance sweep, a shared report, and per-request
// generation advancement.
func TestConcurrentInsertsCoalesce(t *testing.T) {
	const k = 4
	e := pipelineEngine(t, Options{MaxBatchSize: k, Workers: 2})
	tuples := []relation.SourceTuple{
		{Rel: "R", Tuple: relation.StringTuple("n1", "x")},
		{Rel: "R", Tuple: relation.StringTuple("n2", "y")},
		{Rel: "S", Tuple: relation.StringTuple("w", "c9")},
		{Rel: "S", Tuple: relation.StringTuple("v", "c8")},
	}
	var wg sync.WaitGroup
	reports := make([]*InsertReport, k)
	errs := make([]error, k)
	e.wmu.Lock()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = e.Insert(tuples[i : i+1])
		}(i)
	}
	releaseWhenQueued(t, e, k)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Inserts != k || st.CommitBatches != 1 || st.CoalescedInserts != k {
		t.Fatalf("requests did not coalesce into one commit: %+v", st)
	}
	for i := 1; i < k; i++ {
		if reports[i] != reports[0] {
			t.Fatal("coalesced callers received different reports")
		}
	}
	if len(reports[0].Inserted) != k || !reports[0].Coalesced {
		t.Fatalf("combined report %+v", reports[0])
	}
	// Each request contributed a novel tuple: the generation advanced once
	// per request, exactly as under serial application.
	p, err := e.lookup("id")
	if err != nil {
		t.Fatal(err)
	}
	if g := p.gen.Load(); g != k {
		t.Fatalf("generation %d after %d coalesced inserts, want %d", g, k, k)
	}
	view, err := e.Query("id")
	if err != nil {
		t.Fatal(err)
	}
	if !view.Contains(relation.StringTuple("n1", "x")) || !view.Contains(relation.StringTuple("n2", "y")) {
		t.Error("maintained view missing inserted tuples")
	}
}

// Mixed concurrent insert/delete writers against concurrent readers, for
// the race detector: deleters shrink the hot view while inserters restore
// every tuple the deleters removed, and every view must end coherent with
// the final source.
func TestConcurrentInsertDeleteServing(t *testing.T) {
	e := mustEngine(t)
	if err := e.PrepareText("groups", "project(user, group; UserGroup)"); err != nil {
		t.Fatal(err)
	}
	graveyard := make(chan []relation.SourceTuple, 64)

	var writers sync.WaitGroup
	var readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() { // reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			view, err := e.Query("access")
			if err != nil {
				t.Error(err)
				return
			}
			if n := view.Len(); n > 0 {
				_, _ = e.Witnesses("access", view.Tuple(n/2))
			}
			_ = e.Stats()
		}
	}()
	writers.Add(1)
	go func() { // deleter
		defer writers.Done()
		for i := 0; i < 12; i++ {
			view, err := e.Query("access")
			if err != nil {
				t.Error(err)
				return
			}
			if view.Len() == 0 {
				continue
			}
			rep, err := e.Delete("access", view.Tuple(0), core.MinimizeSourceDeletions, core.DeleteOptions{})
			if err != nil {
				if strings.Contains(err.Error(), "not in view") {
					continue
				}
				t.Error(err)
				return
			}
			select {
			case graveyard <- rep.Result.T:
			default:
			}
		}
	}()
	writers.Add(1)
	go func() { // inserter: restore whatever the deleter removed
		defer writers.Done()
		for i := 0; i < 12; i++ {
			select {
			case T := <-graveyard:
				if _, err := e.Insert(T); err != nil {
					t.Error(err)
					return
				}
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

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
