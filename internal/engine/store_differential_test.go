package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/storetest"
)

// TestDifferentialCompactionCycles drives random Insert/Delete
// interleavings through a prepared engine long enough to force the
// versioned source store through multiple overlay compaction cycles (both
// folds and squashes), asserting after every step that the maintained
// view, witness basis, source database and per-view generation are
// byte-identical to a from-scratch algebra.Eval + provenance.Compute over
// a legacy flat mirror (storetest.Oracle). This is the proof that structure sharing and
// compaction are invisible to every consumer above the store.
func TestDifferentialCompactionCycles(t *testing.T) {
	for _, segments := range []int{0, 1, 4, 17} {
		segments := segments
		t.Run(fmt.Sprintf("segments=%d", segments), func(t *testing.T) {
			testDifferentialCompactionCycles(t, segments)
		})
	}
}

func testDifferentialCompactionCycles(t *testing.T, segments int) {
	// Segmented stores fold per segment, so those runs go longer and seed
	// more tuples per relation to drive every segment through its own
	// compaction cycles; one seed keeps the added configurations affordable.
	steps, seeds, nR, nS := 300, int64(2), 25, 20
	if segments > 0 {
		steps, seeds, nR, nS = 600, 1, 120, 90
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))

		db := relation.NewDatabase()
		r := relation.New("R", relation.NewSchema("A", "B"))
		for i := 0; i < nR; i++ {
			r.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i%6))
		}
		s := relation.New("S", relation.NewSchema("B", "C"))
		for i := 0; i < nS; i++ {
			s.InsertStrings("b"+strconv.Itoa(i%6), "c"+strconv.Itoa(i))
		}
		db.MustAdd(r)
		db.MustAdd(s)

		q, err := algebra.Parse("project(A, C; join(R, S))")
		if err != nil {
			t.Fatal(err)
		}
		e := New(db, Options{Segments: segments})
		if err := e.Prepare("v", q); err != nil {
			t.Fatal(err)
		}
		oracle := storetest.NewOracle(db)

		var wantGen int64
		var restorable []relation.SourceTuple // tuples past deletions removed
		fresh := 0

		for step := 0; step < steps; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch {
			case rng.Intn(2) == 0:
				view, err := e.Query("v")
				if err != nil {
					t.Fatal(err)
				}
				if view.Len() == 0 {
					break
				}
				target := view.Tuple(rng.Intn(view.Len()))
				obj := core.MinimizeSourceDeletions
				if rng.Intn(2) == 0 {
					obj = core.MinimizeViewSideEffects
				}
				rep, err := e.Delete("v", target, obj, core.DeleteOptions{})
				if err != nil {
					t.Fatalf("%s: Delete: %v", ctx, err)
				}
				oracle.DeleteAll(rep.Result.T)
				restorable = append(restorable, rep.Result.T...)
				wantGen++
			default:
				var I []relation.SourceTuple
				for k := 0; k < 1+rng.Intn(3); k++ {
					switch {
					case len(restorable) > 0 && rng.Intn(2) == 0:
						// Restore a previously deleted tuple (exercises the
						// tombstone-then-reappend overlay path).
						i := rng.Intn(len(restorable))
						I = append(I, restorable[i])
						restorable = append(restorable[:i], restorable[i+1:]...)
					default:
						// A brand-new tuple grows the store, driving overlay
						// mentions toward the fold threshold.
						fresh++
						rel := []string{"R", "S"}[rng.Intn(2)]
						if rel == "R" {
							I = append(I, relation.SourceTuple{Rel: "R", Tuple: relation.StringTuple("z"+strconv.Itoa(fresh), "b"+strconv.Itoa(fresh%6))})
						} else {
							I = append(I, relation.SourceTuple{Rel: "S", Tuple: relation.StringTuple("b"+strconv.Itoa(fresh%6), "y"+strconv.Itoa(fresh))})
						}
					}
				}
				rep, err := e.Insert(I)
				if err != nil {
					t.Fatalf("%s: Insert: %v", ctx, err)
				}
				oracle.InsertAll(I)
				if len(rep.Inserted) > 0 {
					wantGen++
				}
			}

			// The from-scratch recompute dominates the test's cost, so it
			// runs densely while the overlay is young and on a sample (plus
			// the final step) afterwards; the write stream itself — which is
			// what churns the store through its compaction cycles — always
			// runs every step.
			if step >= 50 && step%10 != 0 && step != steps-1 {
				continue
			}
			mirror := oracle.Build()
			if got, want := relation.WriteDatabaseString(e.Database()), relation.WriteDatabaseString(mirror); got != want {
				t.Fatalf("%s: source diverged\n got:\n%s\nwant:\n%s", ctx, got, want)
			}
			scratchView, err := algebra.Eval(q, mirror)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := e.Query("v")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cur.Table(), scratchView.Table(); got != want {
				t.Fatalf("%s: view diverged\n got:\n%s\nwant:\n%s", ctx, got, want)
			}
			scratchProv, err := provenance.Compute(q, mirror)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := basisFingerprint(enginePerViewBasis(t, e, "v")), basisFingerprint(scratchProv); got != want {
				t.Fatalf("%s: basis diverged\n got:\n%s\nwant:\n%s", ctx, got, want)
			}
			info, err := e.Describe("v")
			if err != nil {
				t.Fatal(err)
			}
			if info.Generation != wantGen {
				t.Fatalf("%s: generation %d, want %d", ctx, info.Generation, wantGen)
			}
		}

		st := e.Stats()
		if st.Store.Compactions < 2 {
			t.Fatalf("seed %d: %d steps produced %d overlay folds, want ≥ 2 compaction cycles (store %+v)",
				seed, steps, st.Store.Compactions, st.Store)
		}
		if st.Store.DerivedVersions == 0 || st.Store.SharedRelations == 0 || st.Store.RewrittenRelations == 0 {
			t.Fatalf("seed %d: store counters did not move: %+v", seed, st.Store)
		}
		if segments > 0 {
			if st.Store.Segmented.Relations != 2 || st.Store.Segmented.Segments != 2*segments {
				t.Fatalf("seed %d: segment stats %+v, want 2 relations × %d segments", seed, st.Store.Segmented, segments)
			}
			if segments > 1 && st.Store.Segmented.ParallelDerives == 0 {
				t.Fatalf("seed %d: no commit ever scattered across segments (stats %+v)", seed, st.Store.Segmented)
			}
		}
		// The view's provenance-tree store must have cycled its node
		// overlays too — every commit above ran through the O(Δ) tree
		// maintenance, and this workload is long enough to fold both the
		// view relation and the witness/bucket maps.
		tree := st.Views[0].Tree
		if tree.Derives == 0 || tree.RewrittenNodes == 0 || tree.TouchedTuples == 0 {
			t.Fatalf("seed %d: tree counters did not move: %+v", seed, tree)
		}
		if tree.RelFolds < 1 || tree.MapFolds < 1 {
			t.Fatalf("seed %d: node overlays never folded (rel %d, map %d; tree %+v)",
				seed, tree.RelFolds, tree.MapFolds, tree)
		}
		// The maintained tree never paid a full rebuild: total maintenance
		// work stays bounded by the write deltas, not by steps × tree size.
		if tree.TouchedTuples > int64(steps)*int64(tree.NodeTuples) {
			t.Fatalf("seed %d: tree maintenance touched %d tuples over %d steps (tree size %d) — not O(Δ)",
				seed, tree.TouchedTuples, steps, tree.NodeTuples)
		}
	}
}
