package engine

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/workload"
)

// basisFingerprint renders a witness basis canonically: one line per view
// tuple (sorted), each listing its witness keys in basis order.
func basisFingerprint(res *provenance.Result) string {
	var b strings.Builder
	for _, t := range res.View.SortedTuples() {
		b.WriteString(t.Key())
		b.WriteString(" => ")
		for i, w := range res.Witnesses(t) {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(w.Key())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDifferentialIncrementalMaintenance drives random deletion sequences
// through prepared engines over randomized workload databases and SPJU
// queries, and asserts after every step that the incrementally-maintained
// materialized view and witness basis are byte-identical to a from-scratch
// algebra.Eval + provenance.Compute over a mirrored database.
func TestDifferentialIncrementalMaintenance(t *testing.T) {
	type gen struct {
		name  string
		build func(r *rand.Rand) (*relation.Database, algebra.Query)
	}
	gens := []gen{
		{"UserGroupFile", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.UserGroupFile(r, 8, 4, 6, 2, 2)
		}},
		{"TwoRelationPJ", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.TwoRelationPJ(r, 12, 4)
		}},
		{"SPU", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.SPU(r, 3, 15, 5)
		}},
		{"SJ", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.SJ(r, 15, 5)
		}},
		{"SJU", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.SJU(r, 10, 4)
		}},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				db, q := g.build(r)
				e := New(db)
				if err := e.Prepare("v", q); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				mirror := db.Clone()

				for step := 0; step < 8; step++ {
					view, err := e.Query("v")
					if err != nil {
						t.Fatal(err)
					}
					if view.Len() == 0 {
						break
					}
					target := view.Tuple(r.Intn(view.Len()))
					obj := core.MinimizeViewSideEffects
					if step%2 == 1 {
						obj = core.MinimizeSourceDeletions
					}
					rep, err := e.Delete("v", target, obj, core.DeleteOptions{})
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					mirror = mirror.DeleteAll(rep.Result.T)

					// View: byte-identical table render against a from-
					// scratch evaluation of the ORIGINAL query.
					scratchView, err := algebra.Eval(q, mirror)
					if err != nil {
						t.Fatal(err)
					}
					cur, _ := e.Query("v")
					if got, want := cur.Table(), scratchView.Table(); got != want {
						t.Fatalf("seed %d step %d (%v): maintained view diverged\n got:\n%s\nwant:\n%s", seed, step, obj, got, want)
					}

					// Basis: byte-identical canonical fingerprint against a
					// from-scratch provenance computation.
					scratchProv, err := provenance.Compute(q, mirror)
					if err != nil {
						t.Fatal(err)
					}
					incr := basisFingerprint(enginePerViewBasis(t, e, "v"))
					full := basisFingerprint(scratchProv)
					if incr != full {
						t.Fatalf("seed %d step %d (%v): witness basis diverged\n got:\n%s\nwant:\n%s", seed, step, obj, incr, full)
					}

					// The engine's own source mirror must agree too.
					if got, want := relation.WriteDatabaseString(e.Database()), relation.WriteDatabaseString(mirror); got != want {
						t.Fatalf("seed %d step %d: source diverged\n got:\n%s\nwant:\n%s", seed, step, got, want)
					}
				}
			}
		})
	}
}

// TestDifferentialMixedInsertDelete drives random interleavings of Insert
// (fresh tuples and restores of previously deleted ones), Delete and
// DeleteGroup (with occasional duplicate targets) through prepared engines
// and asserts after every commit that the incrementally-maintained state —
// materialized view, witness basis, source database AND generation counter
// — is byte-identical to a from-scratch algebra.Eval + provenance.Compute
// over a mirrored database, with the generation advancing exactly once per
// state-changing request.
func TestDifferentialMixedInsertDelete(t *testing.T) {
	type gen struct {
		name  string
		build func(r *rand.Rand) (*relation.Database, algebra.Query)
	}
	gens := []gen{
		{"UserGroupFile", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.UserGroupFile(r, 8, 4, 6, 2, 2)
		}},
		{"TwoRelationPJ", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.TwoRelationPJ(r, 12, 4)
		}},
		{"SPU", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.SPU(r, 3, 15, 5)
		}},
		{"SJU", func(r *rand.Rand) (*relation.Database, algebra.Query) {
			return workload.SJU(r, 10, 4)
		}},
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := rand.New(rand.NewSource(seed))
				db, q := g.build(r)
				original := db.Clone() // domain pool for fresh inserts
				e := New(db)
				if err := e.Prepare("v", q); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				mirror := db.Clone()
				var graveyard []relation.SourceTuple
				var wantGen int64

				// freshTuple synthesizes a source tuple from the original
				// domain (sampling column values independently, so it is
				// often novel yet joinable).
				freshTuple := func() (relation.SourceTuple, bool) {
					rels := original.Relations()
					rel := rels[r.Intn(len(rels))]
					if rel.Len() == 0 {
						return relation.SourceTuple{}, false
					}
					tu := make(relation.Tuple, rel.Schema().Len())
					for i := range tu {
						tu[i] = rel.Tuple(r.Intn(rel.Len()))[i]
					}
					return relation.SourceTuple{Rel: rel.Name(), Tuple: tu}, true
				}

				for step := 0; step < 12; step++ {
					switch op := r.Intn(4); {
					case op == 0: // insert: restore and/or fresh
						var I []relation.SourceTuple
						if len(graveyard) > 0 && r.Intn(2) == 0 {
							I = append(I, graveyard[r.Intn(len(graveyard))])
						}
						if st, ok := freshTuple(); ok && r.Intn(2) == 0 {
							I = append(I, st)
						}
						if len(I) == 0 {
							continue
						}
						rep, err := e.Insert(I)
						if err != nil {
							t.Fatalf("seed %d step %d: insert: %v", seed, step, err)
						}
						// Novel = not present and not already claimed within
						// this batch (a graveyard restore and a synthesized
						// fresh tuple can coincide; the engine dedups them).
						var novel []relation.SourceTuple
						seen := make(map[string]bool)
						for _, st := range I {
							if !mirror.Contains(st) && !seen[st.Key()] {
								seen[st.Key()] = true
								novel = append(novel, st)
							}
						}
						if len(rep.Inserted) != len(novel) {
							t.Fatalf("seed %d step %d: engine inserted %d, mirror says %d novel", seed, step, len(rep.Inserted), len(novel))
						}
						if len(novel) > 0 {
							mirror, err = mirror.InsertAll(novel)
							if err != nil {
								t.Fatal(err)
							}
							wantGen++
						}
					default: // delete: single or group, sometimes duplicated targets
						view, err := e.Query("v")
						if err != nil {
							t.Fatal(err)
						}
						if view.Len() == 0 {
							continue
						}
						obj := core.MinimizeViewSideEffects
						if step%2 == 1 {
							obj = core.MinimizeSourceDeletions
						}
						var rep *core.DeleteReport
						if op == 1 && view.Len() >= 2 {
							targets := []relation.Tuple{view.Tuple(r.Intn(view.Len())), view.Tuple(r.Intn(view.Len()))}
							if r.Intn(2) == 0 {
								targets = append(targets, targets[0]) // duplicate target in one group
							}
							rep, err = e.DeleteGroup("v", targets, obj, core.DeleteOptions{})
						} else {
							rep, err = e.Delete("v", view.Tuple(r.Intn(view.Len())), obj, core.DeleteOptions{})
						}
						if err != nil {
							t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
						}
						graveyard = append(graveyard, rep.Result.T...)
						mirror = mirror.DeleteAll(rep.Result.T)
						wantGen++
						if rep.Generation != wantGen {
							t.Fatalf("seed %d step %d: report generation %d, want %d", seed, step, rep.Generation, wantGen)
						}
					}

					// View, basis, source and generation must all match a
					// from-scratch computation over the mirror.
					scratchView, err := algebra.Eval(q, mirror)
					if err != nil {
						t.Fatal(err)
					}
					cur, _ := e.Query("v")
					if got, want := cur.Table(), scratchView.Table(); got != want {
						t.Fatalf("seed %d step %d: maintained view diverged\n got:\n%s\nwant:\n%s", seed, step, got, want)
					}
					scratchProv, err := provenance.Compute(q, mirror)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := basisFingerprint(enginePerViewBasis(t, e, "v")), basisFingerprint(scratchProv); got != want {
						t.Fatalf("seed %d step %d: witness basis diverged\n got:\n%s\nwant:\n%s", seed, step, got, want)
					}
					if got, want := e.Database().String(), mirror.String(); got != want {
						t.Fatalf("seed %d step %d: source diverged\n got:\n%s\nwant:\n%s", seed, step, got, want)
					}
					info, err := e.Describe("v")
					if err != nil {
						t.Fatal(err)
					}
					if info.Generation != wantGen {
						t.Fatalf("seed %d step %d: generation %d, want %d", seed, step, info.Generation, wantGen)
					}
				}
			}
		})
	}
}

// TestDifferentialCoalescedBatchIdentity proves the tentpole property of
// the write pipeline: a coalesced batch commit — one group solve, one
// parallel maintenance sweep, one published generation advance — leaves
// the engine byte-identical (every view's table, every witness basis, the
// source database, and every generation counter) to the same delete
// requests applied one at a time with coalescing disabled.
//
// The deleted view is an identity projection, so every view tuple's sole
// witness is its own source tuple and any solver is forced to pick exactly
// the targeted tuples — the coalesced group solve and the sequential
// singleton solves provably choose the same source deletions, making
// byte-level comparison of the downstream state meaningful. The sibling
// views (a join and a lossy projection with multi-witness tuples) exercise
// the per-view maintenance on non-trivial bases.
func TestDifferentialCoalescedBatchIdentity(t *testing.T) {
	const batchDB = `
relation R(a, b)
r1, x
r2, x
r3, y
r4, y
r5, z
r6, z
r7, w
r8, w

relation S(b, c)
x, c1
x, c2
y, c2
z, c3
w, c1
`
	views := map[string]string{
		"id":   "project(a, b; R)",
		"join": "project(a, c; join(R, S))",
		"cs":   "project(c; S)",
	}
	mkEngine := func(opt Options) *Engine {
		db, err := relation.ReadDatabaseString(batchDB)
		if err != nil {
			t.Fatal(err)
		}
		e := New(db, opt)
		for name, q := range views {
			if err := e.PrepareText(name, q); err != nil {
				t.Fatalf("prepare %s: %v", name, err)
			}
		}
		return e
	}

	// The request mix: three singles and one group of two, all against the
	// identity view. 6 targets total, 4 requests.
	singles := []relation.Tuple{
		relation.StringTuple("r1", "x"),
		relation.StringTuple("r3", "y"),
		relation.StringTuple("r5", "z"),
	}
	groupTargets := []relation.Tuple{
		relation.StringTuple("r7", "w"),
		relation.StringTuple("r8", "w"),
	}
	const reqs = 4
	const targets = 5 // 3 singles + 1 group of 2; also the batch cap, so the batch fills exactly when the last request joins

	for _, obj := range []core.Objective{core.MinimizeSourceDeletions, core.MinimizeViewSideEffects} {
		// Coalescing engine: the batch admits exactly the full request mix,
		// and holding the commit lock until all four requests are queued
		// guarantees they meet in one commit.
		coalesced := mkEngine(Options{MaxBatchSize: targets})
		var wg sync.WaitGroup
		errs := make([]error, reqs)
		coalesced.wmu.Lock()
		for i, tg := range singles {
			wg.Add(1)
			go func(i int, tg relation.Tuple) {
				defer wg.Done()
				_, errs[i] = coalesced.Delete("id", tg, obj, core.DeleteOptions{})
			}(i, tg)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[reqs-1] = coalesced.DeleteGroup("id", groupTargets, obj, core.DeleteOptions{})
		}()
		releaseWhenQueued(t, coalesced, reqs)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%v: coalesced request %d: %v", obj, i, err)
			}
		}
		cst := coalesced.Stats()
		if cst.CommitBatches != 1 || cst.Deletes != reqs || cst.CoalescedDeletes != reqs {
			t.Fatalf("%v: requests did not coalesce into one commit: %+v", obj, cst)
		}

		// Serial engine: same requests, one at a time, coalescing disabled.
		serial := mkEngine(Options{MaxBatchSize: 1})
		for _, tg := range singles {
			if _, err := serial.Delete("id", tg, obj, core.DeleteOptions{}); err != nil {
				t.Fatalf("%v: serial delete: %v", obj, err)
			}
		}
		if _, err := serial.DeleteGroup("id", groupTargets, obj, core.DeleteOptions{}); err != nil {
			t.Fatalf("%v: serial group delete: %v", obj, err)
		}
		sst := serial.Stats()
		if sst.CommitBatches != reqs || sst.CoalescedDeletes != 0 {
			t.Fatalf("%v: serial engine coalesced: %+v", obj, sst)
		}

		// Byte-identical everything.
		if got, want := relation.WriteDatabaseString(coalesced.Database()), relation.WriteDatabaseString(serial.Database()); got != want {
			t.Fatalf("%v: source diverged\n got:\n%s\nwant:\n%s", obj, got, want)
		}
		for name := range views {
			cv, err := coalesced.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := serial.Query(name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cv.Table(), sv.Table(); got != want {
				t.Fatalf("%v: view %q diverged\n got:\n%s\nwant:\n%s", obj, name, got, want)
			}
			if got, want := basisFingerprint(enginePerViewBasis(t, coalesced, name)), basisFingerprint(enginePerViewBasis(t, serial, name)); got != want {
				t.Fatalf("%v: basis of %q diverged\n got:\n%s\nwant:\n%s", obj, name, got, want)
			}
			cd, err := coalesced.Describe(name)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := serial.Describe(name)
			if err != nil {
				t.Fatal(err)
			}
			if cd.Generation != sd.Generation {
				t.Fatalf("%v: view %q generation %d coalesced vs %d serial", obj, name, cd.Generation, sd.Generation)
			}
			if cd.Generation != reqs {
				t.Fatalf("%v: view %q generation %d, want %d (one per request)", obj, name, cd.Generation, reqs)
			}
		}
		if cst.DeletedSourceTuples != sst.DeletedSourceTuples {
			t.Fatalf("%v: deleted %d source tuples coalesced vs %d serial", obj, cst.DeletedSourceTuples, sst.DeletedSourceTuples)
		}
	}
}

// enginePerViewBasis exposes the current cached provenance result of a
// prepared view for fingerprinting.
func enginePerViewBasis(t *testing.T, e *Engine, name string) *provenance.Result {
	t.Helper()
	p, err := e.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.snap.Load().prov
}
