package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// A slow Prepare must not stall concurrent writes: the evaluation and the
// witness basis run off the commit lock, so a Delete commits freely
// underneath. The prepare then detects the commit at registration time and
// recomputes, registering a snapshot coherent with the post-delete source.
//
// The provenance hook stands in for any expensive prepare-time work: the
// first computeProvenance call (the in-flight slow prepare) blocks until
// the test's delete has committed; the recompute's call passes through.
func TestPrepareDoesNotBlockConcurrentDelete(t *testing.T) {
	e := mustEngine(t) // prepares "access" with the real computeProvenance

	orig := computeProvenance
	defer func() { computeProvenance = orig }()
	var (
		first   sync.Once
		reached = make(chan struct{}) // slow prepare is inside computeProvenance
		release = make(chan struct{}) // lets the slow prepare continue
	)
	computeProvenance = func(q algebra.Query, db *relation.Database, lim provenance.Limit) (*provenance.Result, error) {
		blockMe := false
		first.Do(func() { blockMe = true })
		if blockMe {
			close(reached)
			<-release
		}
		return orig(q, db, lim)
	}

	prepErr := make(chan error, 1)
	go func() {
		prepErr <- e.PrepareText("groups", "project(user, group; UserGroup)")
	}()
	<-reached

	// The prepare is mid-computation. A Delete must commit NOW, not after
	// the prepare finishes.
	delErr := make(chan error, 1)
	go func() {
		_, err := e.Delete("access", relation.StringTuple("john", "f2"), core.MinimizeViewSideEffects, core.DeleteOptions{})
		delErr <- err
	}()
	select {
	case err := <-delErr:
		if err != nil {
			t.Fatalf("concurrent delete: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Delete blocked behind an in-flight Prepare")
	}

	close(release)
	if err := <-prepErr; err != nil {
		t.Fatalf("slow prepare: %v", err)
	}

	// The registered view must reflect the source generation the delete
	// published — the prepare revalidated and recomputed, it did not
	// register its stale snapshot.
	p, err := e.lookup("groups")
	if err != nil {
		t.Fatal(err)
	}
	view, err := e.Query("groups")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := algebra.Eval(p.plan, e.Database())
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(fresh) {
		t.Fatalf("late-prepared view stale against post-delete source:\n%s\nvs\n%s", view.Table(), fresh.Table())
	}
	// The delete removed UserGroup(john, admin); a stale registration would
	// still show it.
	if view.Contains(relation.StringTuple("john", "admin")) {
		t.Fatal("prepare registered a snapshot that missed the concurrent delete")
	}
}

// A prepare losing the revalidation race more than maxPrepareRetries times
// must still terminate: the final attempt computes while holding the
// commit lock. Simulated by committing a delete from inside the provenance
// hook (i.e., during every off-lock computation) until the retries run out.
func TestPrepareRetriesExhaustedStillRegisters(t *testing.T) {
	e := mustEngine(t)

	orig := computeProvenance
	defer func() { computeProvenance = orig }()
	var mu sync.Mutex
	races := 0
	computeProvenance = func(q algebra.Query, db *relation.Database, lim provenance.Limit) (*provenance.Result, error) {
		// Commit a delete during each off-lock prepare computation, forcing
		// the generation check to fail until the retries run out. The guard
		// stops exactly before the final attempt, which the engine runs
		// while holding the commit lock — a delete from inside that call
		// would deadlock, and the engine guarantees no commit can land
		// there anyway.
		mu.Lock()
		n := races
		races++
		mu.Unlock()
		if n < maxPrepareRetries+1 {
			view, err := e.Query("access")
			if err == nil && view.Len() > 0 {
				if _, derr := e.Delete("access", view.Tuple(0), core.MinimizeSourceDeletions, core.DeleteOptions{}); derr != nil {
					return nil, derr
				}
			}
		}
		return orig(q, db, lim)
	}

	if err := e.PrepareText("groups", "project(user, group; UserGroup)"); err != nil {
		t.Fatalf("prepare under a hot write stream: %v", err)
	}
	p, err := e.lookup("groups")
	if err != nil {
		t.Fatal(err)
	}
	view, err := e.Query("groups")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := algebra.Eval(p.plan, e.Database())
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(fresh) {
		t.Fatalf("view registered under retry exhaustion is stale:\n%s\nvs\n%s", view.Table(), fresh.Table())
	}
}

// Concurrent Prepare calls racing on one name: same query is idempotent,
// a different query loses with ErrConflict — and exactly one registration
// wins regardless of interleaving.
func TestConcurrentPrepareSameName(t *testing.T) {
	e := mustEngine(t)
	const k = 8
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := "project(user, group; UserGroup)"
			if i%2 == 1 {
				q = "project(group; UserGroup)"
			}
			errs[i] = e.PrepareText("dup", q)
		}(i)
	}
	wg.Wait()
	oks, conflicts := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			oks++
		case errors.Is(err, ErrConflict):
			conflicts++
		default:
			t.Fatalf("unexpected prepare error: %v", err)
		}
	}
	if oks == 0 || oks+conflicts != k {
		t.Fatalf("%d ok / %d conflicts of %d", oks, conflicts, k)
	}
	if _, err := e.Query("dup"); err != nil {
		t.Fatalf("winning registration not served: %v", err)
	}
}
