package relation_test

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
)

// TestSegmentedConcurrentFoldsAndReaders races a writer churning the
// frozen store through folds and squashes against readers paginating
// retained generations. Every published generation is immutable, so the
// readers' streams must be internally consistent however many
// compactions happen underneath — this is the -race proof that the derive
// path (shared bases and layers, lazily-built flat caches) publishes
// safely.
func TestSegmentedConcurrentFoldsAndReaders(t *testing.T) {
	const steps = 300
	db := diffSeedDB(600, 400).Freeze()

	var latest atomic.Pointer[relation.Database]
	latest.Store(db)
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				snap := latest.Load()
				for _, r := range snap.Relations() {
					want := r.Len()
					got := 0
					r.Each(func(tu relation.Tuple) bool {
						if w%2 == 0 && got == want/2 {
							// Positional access mid-stream forces the flat
							// cache while Each is underway.
							if k := r.Tuple(got).Key(); k != tu.Key() {
								t.Errorf("reader %d: Tuple(%d) = %s, want %s", w, got, k, tu.Key())
								return false
							}
						}
						if !r.ContainsKey(tu.Key()) {
							t.Errorf("reader %d: yielded tuple %v not ContainsKey", w, tu)
							return false
						}
						got++
						return true
					})
					if got != want {
						t.Errorf("reader %d: Each yielded %d tuples, Len says %d", w, got, want)
					}
				}
			}
		}(w)
	}

	fresh := 0
	for step := 0; step < steps; step++ {
		cur := latest.Load()
		if step%2 == 0 {
			var T []relation.SourceTuple
			for _, name := range []string{"R", "S"} {
				r := cur.Relation(name)
				if r.Len() == 0 {
					continue
				}
				for k := 0; k < 5; k++ {
					T = append(T, relation.SourceTuple{Rel: name, Tuple: r.Tuple((step*7 + k*13) % r.Len())})
				}
			}
			latest.Store(cur.DeleteAll(T))
		} else {
			var I []relation.SourceTuple
			for k := 0; k < 8; k++ {
				fresh++
				I = append(I, relation.SourceTuple{Rel: "R", Tuple: relation.StringTuple("w"+strconv.Itoa(fresh), "m"+strconv.Itoa(fresh%9))})
			}
			next, err := cur.InsertAll(I)
			if err != nil {
				t.Fatalf("step %d: InsertAll: %v", step, err)
			}
			latest.Store(next)
		}
	}
	stop.Store(true)
	wg.Wait()

	if st := latest.Load().StoreStats(); st.Compactions == 0 || st.Squashes == 0 {
		t.Fatalf("churn never both folded and squashed: %+v", st)
	}
}
