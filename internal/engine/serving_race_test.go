package engine

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestConcurrentParallelMaintenanceServing is the -race stress for
// serving during maintenance: paginating readers and an annotating reader
// run against an engine while a writer churns group deletes and
// restores. Run under -race; the assertions are
// secondary to the detector — readers must only ever observe
// internally-consistent snapshots.
func TestConcurrentParallelMaintenanceServing(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	db, q := workload.UserGroupFile(r, 24, 8, 20, 2, 2)
	e := New(db)
	if err := e.Prepare("v", q); err != nil {
		t.Fatal(err)
	}

	const readers = 3
	var (
		wg        sync.WaitGroup
		done      atomic.Bool
		readOK    atomic.Int64
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
				readOK.Add(1)
			}
		}(int64(200 + i))
	}

	// Annotating reader: forces the where index to exist (so each Annotate
	// catches it up through annotation.ApplyDeletion / ApplyInsertion) and
	// keeps reading placements off live snapshots while commits churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr := rand.New(rand.NewSource(300))
		for !done.Load() {
			view, err := e.Query("v")
			if err != nil {
				fail(err)
				return
			}
			if view.Len() == 0 {
				runtime.Gosched()
				continue
			}
			target := view.Tuple(rr.Intn(view.Len()))
			attr := view.Schema().Attrs()[rr.Intn(view.Schema().Len())]
			// The snapshot may have moved since Query, so a domain error
			// (target no longer in the view) is fine; the race detector is
			// the real assertion here.
			_, _ = e.Annotate("v", target, attr)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rr := rand.New(rand.NewSource(400))
		for readOK.Load() == 0 && failures.Load() == 0 {
			runtime.Gosched()
		}
		for i := 0; i < 25; i++ {
			view, err := e.Query("v")
			if err != nil {
				fail(err)
				return
			}
			if view.Len() < 2 {
				return
			}
			var targets []relation.Tuple
			for k := 0; k < 10 && k < view.Len(); k++ {
				targets = append(targets, view.Tuple(rr.Intn(view.Len())))
			}
			rep, err := e.DeleteGroup("v", targets, core.MinimizeSourceDeletions, core.DeleteOptions{})
			if err != nil {
				fail(err)
				return
			}
			if _, err := e.Insert(rep.Result.T); err != nil {
				fail(err)
				return
			}
		}
	}()

	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failures; first: %v", failures.Load(), firstFail.Load())
	}
}
