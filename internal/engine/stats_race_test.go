package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/workload"
)

// TestStatsDescribeUnderBatchedWrites observes Stats and Describe
// concurrently with the batched/coalescing writers (run under -race) and
// checks the monitoring invariants the serving layer promises:
//
//   - a view's Generation is monotonically non-decreasing across
//     observations, even while commits land in coalesced batches;
//   - ViewSize never grows (the engine only deletes);
//   - within one generation, WhereReady only transitions false→true (the
//     where index is built at most once per snapshot and a new generation
//     resets it to lazy);
//   - the aggregate counters (Deletes, CommitBatches, DeletedSourceTuples,
//     IncrementalMaintenances) are each non-decreasing.
func TestStatsDescribeUnderBatchedWrites(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	db, q := workload.UserGroupFile(r, 20, 8, 15, 2, 2)
	e := New(db, Options{MaxBatchSize: 6})
	if err := e.Prepare("v", q); err != nil {
		t.Fatal(err)
	}

	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)

	// Describe poller: per-view invariants.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastGen int64
		lastSize := -1
		lastReady := false
		for !done.Load() {
			vs, err := e.Describe("v")
			if err != nil {
				t.Error(err)
				return
			}
			if vs.Generation < lastGen {
				t.Errorf("generation went backwards: %d -> %d", lastGen, vs.Generation)
				return
			}
			if lastSize >= 0 && vs.ViewSize > lastSize {
				t.Errorf("view grew under a delete-only workload: %d -> %d", lastSize, vs.ViewSize)
				return
			}
			if vs.Generation == lastGen && lastReady && !vs.WhereReady {
				t.Errorf("WhereReady regressed true->false within generation %d", vs.Generation)
				return
			}
			lastGen, lastSize, lastReady = vs.Generation, vs.ViewSize, vs.WhereReady
		}
	}()

	// Stats poller: aggregate counters are monotone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Stats
		for !done.Load() {
			st := e.Stats()
			if st.Deletes < last.Deletes || st.CommitBatches < last.CommitBatches ||
				st.DeletedSourceTuples < last.DeletedSourceTuples ||
				st.IncrementalMaintenances < last.IncrementalMaintenances {
				t.Errorf("counters went backwards: %+v -> %+v", last, st)
				return
			}
			last = st
		}
	}()

	// Annotator: forces WhereReady false→true transitions between commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			view, err := e.Query("v")
			if err != nil {
				t.Error(err)
				return
			}
			if view.Len() == 0 {
				return
			}
			if _, err := e.Annotate("v", view.Tuple(0), view.Schema().Attrs()[0]); err != nil {
				// The tuple may vanish between Query and Annotate.
				if !errors.Is(err, annotation.ErrNoPlacement) {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Two batched writers.
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rr := rand.New(rand.NewSource(int64(100 + w)))
			for j := 0; j < 15; j++ {
				view, err := e.Query("v")
				if err != nil {
					t.Error(err)
					return
				}
				n := view.Len()
				if n == 0 {
					return
				}
				if _, err := e.Delete("v", view.Tuple(rr.Intn(n)), core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil && !errors.Is(err, deletion.ErrNotInView) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	done.Store(true)
	wg.Wait()

	// Final sanity: one more Annotate builds the where index for the final
	// generation and Describe reflects it.
	if view, _ := e.Query("v"); view.Len() > 0 {
		if _, err := e.Annotate("v", view.Tuple(0), view.Schema().Attrs()[0]); err != nil && !errors.Is(err, annotation.ErrNoPlacement) {
			t.Fatal(err)
		}
		vs, err := e.Describe("v")
		if err != nil {
			t.Fatal(err)
		}
		if !vs.WhereReady {
			t.Error("where index not reported ready after a quiescent Annotate")
		}
	}
}
