package provenance

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/relation"
)

func TestApplyDeletionBasic(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	res, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	// Delete UG(john,admin): (john,f2) loses its only witness, (john,f1)
	// keeps the staff witness.
	T := []relation.SourceTuple{st("UserGroup", "john", "admin")}
	after := res.ApplyDeletion(T)
	if after.View.Contains(relation.StringTuple("john", "f2")) {
		t.Error("(john,f2) must leave the view")
	}
	if !after.View.Contains(relation.StringTuple("john", "f1")) {
		t.Error("(john,f1) must survive via staff")
	}
	if got := len(after.Witnesses(relation.StringTuple("john", "f1"))); got != 1 {
		t.Errorf("surviving witnesses=%d want 1", got)
	}
	// Receiver unchanged.
	if !res.View.Contains(relation.StringTuple("john", "f2")) {
		t.Error("ApplyDeletion mutated the receiver")
	}
}

// Property: incremental maintenance agrees with recomputation from
// scratch, on random databases and random deletion sets.
func TestApplyDeletionMatchesRecomputeQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	q := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := relation.NewDatabase()
		r1 := relation.New("R1", relation.NewSchema("A", "B"))
		r2 := relation.New("R2", relation.NewSchema("B", "C"))
		for i := 0; i < 2+r.Intn(5); i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(3)))))
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(3)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		res, err := Compute(q, db)
		if err != nil {
			return false
		}
		var T []relation.SourceTuple
		for _, s := range db.AllSourceTuples() {
			if r.Intn(3) == 0 {
				T = append(T, s)
			}
		}
		incr := res.ApplyDeletion(T)
		fresh, err := Compute(q, db.DeleteAll(T))
		if err != nil {
			return false
		}
		if !incr.View.Equal(fresh.View) {
			t.Logf("views differ after deleting %v", T)
			return false
		}
		for _, vt := range fresh.View.Tuples() {
			fw, iw := fresh.Witnesses(vt), incr.Witnesses(vt)
			if len(fw) != len(iw) {
				t.Logf("tuple %v: fresh %d witnesses, incremental %d", vt, len(fw), len(iw))
				return false
			}
			keys := make(map[string]bool, len(iw))
			for _, w := range iw {
				keys[w.Key()] = true
			}
			for _, w := range fw {
				if !keys[w.Key()] {
					t.Logf("tuple %v: witness %v missing incrementally", vt, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// A deletion followed by re-inserting exactly the deleted tuples must
// restore the view and witness basis byte-for-byte — the curated-database
// "undo" the insertion path exists for.
func TestApplyInsertionRestoresDeletion(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	res, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	T := []relation.SourceTuple{st("UserGroup", "john", "admin"), st("GroupFile", "staff", "f1")}
	shrunk := res.ApplyDeletion(T)
	if shrunk.View.Contains(relation.StringTuple("john", "f2")) {
		t.Fatal("deletion did not take")
	}
	restored, err := shrunk.ApplyInsertion(T)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := witnessFingerprint(restored), witnessFingerprint(res); got != want {
		t.Errorf("restore diverged\n got:\n%s\nwant:\n%s", got, want)
	}
	// The intermediate result is unchanged (immutability).
	if shrunk.View.Contains(relation.StringTuple("john", "f2")) {
		t.Error("ApplyInsertion mutated the receiver")
	}
}

// ApplyInsertion on a duplicate-free no-op returns the receiver unchanged,
// and inserting a tuple for an unknown relation fails at the database layer.
func TestApplyInsertionEdgeCases(t *testing.T) {
	db := userGroupDB()
	res, err := Compute(userFileQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := res.ApplyInsertion(nil); err != nil || again != res {
		t.Errorf("empty insertion: got (%p, %v), want the receiver back", again, err)
	}
	if _, err := db.InsertAll([]relation.SourceTuple{st("Nope", "x")}); err == nil {
		t.Error("InsertAll into an unknown relation must fail")
	}
	if _, err := db.InsertAll([]relation.SourceTuple{st("UserGroup", "only-one-value")}); err == nil {
		t.Error("InsertAll with a wrong arity must fail")
	}
}

// A grown basis must re-enforce the Limit the result was computed under.
func TestApplyInsertionRespectsLimit(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	// The full basis has 2 witnesses for (john,f1); a cap of 2 admits the
	// initial compute, and a new route for an existing tuple must trip it.
	res, err := ComputeLimited(q, db, Limit{MaxWitnesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	I := []relation.SourceTuple{st("UserGroup", "john", "devs"), st("GroupFile", "devs", "f1")}
	if _, err := res.ApplyInsertion(I); !errors.Is(err, ErrLimit) {
		t.Errorf("got %v, want ErrLimit", err)
	}
	// Uncapped, the same insertion extends the basis.
	free, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := free.ApplyInsertion(I)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(grown.Witnesses(relation.StringTuple("john", "f1"))); got != 3 {
		t.Errorf("(john,f1) has %d witnesses after the new route, want 3", got)
	}
}

// A long run of single-tuple deletions must stay O(Δ) per delete: the old
// scheme filtered only the root and, past a 64-deletion backlog, flushed
// the accumulated set through the tree with a FULL rebuild of every node —
// an O(|tree|) stall on whichever unlucky delete crossed the threshold
// (inside the engine's commit lock). Now every delete propagates through
// the tree eagerly via the node overlays, touching only the affected
// tuples. The test drives well past the old threshold and pins both the
// observable state (byte-identical to recomputation) and the work bound
// (TreeStats.TouchedTuples stays proportional to the deltas, far under
// one tree scan, where a single legacy flush already exceeded it).
func TestApplyDeletionDeltaBoundedWork(t *testing.T) {
	const rows = 2000 // tree size ~3×rows; legacy flush touched all of it
	const deletions = 100
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	r2 := relation.New("R2", relation.NewSchema("B", "C"))
	for i := 0; i < rows; i++ {
		r1.Insert(relation.NewTuple(relation.Int(int64(i)), relation.Int(int64(i%7))))
	}
	for i := 0; i < 7; i++ {
		r2.Insert(relation.NewTuple(relation.Int(int64(i)), relation.Int(int64(i))))
	}
	db.MustAdd(r1)
	db.MustAdd(r2)
	q := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	res, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	treeSize := res.TreeStats().NodeTuples
	if treeSize < 3*rows {
		t.Fatalf("tree unexpectedly small: %d node tuples", treeSize)
	}
	cur := db
	for i := 0; i < deletions; i++ {
		T := []relation.SourceTuple{{Rel: "R1", Tuple: relation.NewTuple(relation.Int(int64(i)), relation.Int(int64(i%7)))}}
		cur = cur.DeleteAll(T)
		res = res.ApplyDeletion(T)
	}
	fresh, err := Compute(q, cur)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := witnessFingerprint(res), witnessFingerprint(fresh); got != want {
		t.Fatalf("state diverged after %d deletions\n got:\n%s\nwant:\n%s", deletions, got, want)
	}
	st := res.TreeStats()
	// Each single-tuple deletion touches a handful of candidates (the scan
	// tuple, its join images, their projections). A single legacy
	// full-tree flush alone cost ≥ treeSize; 100 eager deletes must stay
	// well under one tree scan in total.
	if st.TouchedTuples >= int64(treeSize) {
		t.Fatalf("maintenance touched %d tuples over %d deletions — not O(Δ) (tree size %d)", st.TouchedTuples, deletions, treeSize)
	}
	if st.Derives != deletions {
		t.Fatalf("Derives = %d, want %d", st.Derives, deletions)
	}
	// An insertion after the delete run delta-evaluates off the maintained
	// tree.
	I := []relation.SourceTuple{{Rel: "R1", Tuple: relation.NewTuple(relation.Int(3), relation.Int(3))}}
	newDB, err := cur.InsertAll(I)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := res.ApplyInsertion(I)
	if err != nil {
		t.Fatal(err)
	}
	freshGrown, err := Compute(q, newDB)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := witnessFingerprint(grown), witnessFingerprint(freshGrown); got != want {
		t.Fatalf("post-run insertion diverged\n got:\n%s\nwant:\n%s", got, want)
	}
}

// witnessFingerprint renders view + basis canonically for byte comparison.
func witnessFingerprint(res *Result) string {
	out := ""
	for _, t := range res.View.SortedTuples() {
		out += t.Key() + " => "
		for i, w := range res.Witnesses(t) {
			if i > 0 {
				out += "|"
			}
			out += w.Key()
		}
		out += "\n"
	}
	return out
}

// Property: a random interleaving of insertions (fresh tuples and restores
// of previously deleted ones) and deletions, maintained incrementally,
// stays byte-identical to recomputing from scratch after every step — over
// a PJ plan and an SPJU plan with select, union and rename.
func TestApplyInsertionMatchesRecomputeQuick(t *testing.T) {
	qPJ := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	qSPJU := algebra.Un(
		algebra.Pi([]relation.Attribute{"A"},
			algebra.Sigma(algebra.EqAttr("A", "B"), algebra.R("R1"))),
		algebra.Pi([]relation.Attribute{"A"},
			algebra.Delta(map[relation.Attribute]relation.Attribute{"C": "A", "B": "D"}, algebra.R("R2"))),
	)
	for name, q := range map[string]algebra.Query{"PJ": qPJ, "SPJU": qSPJU} {
		q := q
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				db := relation.NewDatabase()
				r1 := relation.New("R1", relation.NewSchema("A", "B"))
				r2 := relation.New("R2", relation.NewSchema("B", "C"))
				for i := 0; i < 2+r.Intn(5); i++ {
					r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(3)))))
					r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(3)))))
				}
				db.MustAdd(r1)
				db.MustAdd(r2)
				res, err := Compute(q, db)
				if err != nil {
					t.Fatal(err)
				}
				var graveyard []relation.SourceTuple
				for step := 0; step < 10; step++ {
					if r.Intn(2) == 0 {
						// Insert: a restore from the graveyard or fresh tuples.
						var I []relation.SourceTuple
						if len(graveyard) > 0 && r.Intn(2) == 0 {
							I = append(I, graveyard[r.Intn(len(graveyard))])
						}
						rel := "R1"
						if r.Intn(2) == 0 {
							rel = "R2"
						}
						I = append(I, relation.SourceTuple{Rel: rel, Tuple: relation.NewTuple(
							relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(3))))})
						// Keep only genuinely novel tuples, deduplicated.
						var novel []relation.SourceTuple
						seen := make(map[string]bool)
						for _, stp := range I {
							if !db.Contains(stp) && !seen[stp.Key()] {
								seen[stp.Key()] = true
								novel = append(novel, stp)
							}
						}
						newDB, err := db.InsertAll(novel)
						if err != nil {
							t.Fatal(err)
						}
						res, err = res.ApplyInsertion(novel)
						if err != nil {
							t.Fatal(err)
						}
						db = newDB
					} else {
						all := db.AllSourceTuples()
						if len(all) == 0 {
							continue
						}
						var T []relation.SourceTuple
						for _, s := range all {
							if r.Intn(4) == 0 {
								T = append(T, s)
							}
						}
						if len(T) == 0 {
							T = append(T, all[r.Intn(len(all))])
						}
						graveyard = append(graveyard, T...)
						db = db.DeleteAll(T)
						res = res.ApplyDeletion(T)
					}
					fresh, err := Compute(q, db)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := witnessFingerprint(res), witnessFingerprint(fresh); got != want {
						t.Fatalf("seed %d step %d: maintained state diverged\n got:\n%s\nwant:\n%s", seed, step, got, want)
					}
				}
			}
		})
	}
}

// Cross-engine property: where-provenance sources always point into the
// lineage of their tuple — the location-level and tuple-level provenance
// theories agree.
func TestWhereSourcesWithinLineageQuick(t *testing.T) {
	// Implemented in the annotation package's terms here to avoid an
	// import cycle: we only need lineage and witness machinery plus the
	// annotation API, which lives one level up. The check runs through
	// the deletion/annotation integration tests as well; this version
	// pins the tuple-level inclusion via witnesses.
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	q := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := relation.NewDatabase()
		r1 := relation.New("R1", relation.NewSchema("A", "B"))
		r2 := relation.New("R2", relation.NewSchema("B", "C"))
		for i := 0; i < 2+r.Intn(4); i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		lres, err := ComputeLineage(q, db)
		if err != nil {
			return false
		}
		res, err := Compute(q, db)
		if err != nil {
			return false
		}
		// Witness union == lineage for every tuple (both poly objects).
		for _, vt := range res.View.Tuples() {
			lin := lres.Lineage(vt)
			for _, w := range res.Witnesses(vt) {
				for _, s := range w.Tuples() {
					if !lin.Contains(s) {
						t.Logf("witness tuple %v outside lineage of %v", s, vt)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestNodeOverlayCompactionCyclesDifferential drives a long random
// insert/delete interleaving — far past the old 64-deletion flush
// boundary — through maintained node overlays, long enough to force the
// view relation and witness maps through multiple fold AND squash
// cycles, asserting the maintained state stays byte-identical to a
// from-scratch recomputation throughout. This is the proof that node
// overlay compaction is invisible above the tree, the same way the
// source-store differential proved it for relations.
func TestNodeOverlayCompactionCyclesDifferential(t *testing.T) {
	const rows = 300
	const steps = 420
	for seed := int64(1); seed <= 2; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := relation.NewDatabase()
		r1 := relation.New("R1", relation.NewSchema("A", "B"))
		for i := 0; i < rows; i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(i)), relation.Int(int64(i%9))))
		}
		r2 := relation.New("R2", relation.NewSchema("B", "C"))
		for i := 0; i < 9; i++ {
			r2.Insert(relation.NewTuple(relation.Int(int64(i)), relation.Int(int64(i))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		q := algebra.Pi([]relation.Attribute{"A", "C"},
			algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
		res, err := Compute(q, db)
		if err != nil {
			t.Fatal(err)
		}

		var graveyard []relation.SourceTuple
		fresh := 0
		for step := 0; step < steps; step++ {
			if len(graveyard) > 0 && r.Intn(2) == 0 {
				// Restore a previously deleted tuple (tombstone-then-
				// reappend through every node overlay).
				i := r.Intn(len(graveyard))
				st := graveyard[i]
				graveyard = append(graveyard[:i], graveyard[i+1:]...)
				I := []relation.SourceTuple{st}
				newDB, err := db.InsertAll(I)
				if err != nil {
					t.Fatal(err)
				}
				if res, err = res.ApplyInsertion(I); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				db = newDB
			} else if r.Intn(3) == 0 {
				// A brand-new tuple, driving overlay mentions toward the
				// fold threshold.
				fresh++
				st := relation.SourceTuple{Rel: "R1", Tuple: relation.NewTuple(
					relation.Int(int64(rows+fresh)), relation.Int(int64(fresh%9)))}
				I := []relation.SourceTuple{st}
				newDB, err := db.InsertAll(I)
				if err != nil {
					t.Fatal(err)
				}
				if res, err = res.ApplyInsertion(I); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				db = newDB
				graveyard = append(graveyard, st)
			} else {
				all := db.AllSourceTuples()
				T := []relation.SourceTuple{all[r.Intn(len(all))]}
				graveyard = append(graveyard, T...)
				db = db.DeleteAll(T)
				res = res.ApplyDeletion(T)
			}
			// The recompute dominates the test cost; sample it while the
			// write stream itself churns the overlays every step.
			if step%20 != 0 && step != steps-1 {
				continue
			}
			fresh, err := Compute(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := witnessFingerprint(res), witnessFingerprint(fresh); got != want {
				t.Fatalf("seed %d step %d: maintained state diverged\n got:\n%s\nwant:\n%s", seed, step, got, want)
			}
		}

		st := res.TreeStats()
		if st.RelFolds < 2 || st.MapFolds < 2 {
			t.Fatalf("seed %d: %d steps produced rel folds %d / map folds %d, want ≥ 2 fold cycles each (tree %+v)",
				seed, steps, st.RelFolds, st.MapFolds, st)
		}
		if st.RelSquashes < 1 || st.MapSquashes < 1 {
			t.Fatalf("seed %d: no squash cycle (rel %d, map %d; tree %+v)", seed, st.RelSquashes, st.MapSquashes, st)
		}
		if st.SharedNodes == 0 || st.RewrittenNodes == 0 || st.TouchedTuples == 0 {
			t.Fatalf("seed %d: tree counters did not move: %+v", seed, st)
		}
	}
}

// TestApplyDeletionToAdoptsStoreVersions pins the one deletion entry
// point: two deletions of T from one Result derive the same state (the
// first leaves the receiver as it was), and both match a recompute over
// the store's post-deletion source. No operator node keeps a relation, so
// there is no store version to adopt.
func TestApplyDeletionToAdoptsStoreVersions(t *testing.T) {
	db := userGroupDB()
	q := algebra.R("UserGroup") // identity plan: the tree root IS the scan node
	res, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	T := []relation.SourceTuple{st("UserGroup", "john", "admin")}
	newDB := db.DeleteAll(T)

	adopted := res.ApplyDeletion(T)
	private := res.ApplyDeletion(T)
	if got, want := witnessFingerprint(adopted), witnessFingerprint(private); got != want {
		t.Fatalf("adopted and private deletions diverged\n got:\n%s\nwant:\n%s", got, want)
	}
	fresh, err := Compute(q, newDB)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := witnessFingerprint(adopted), witnessFingerprint(fresh); got != want {
		t.Fatalf("adopted deletion diverged from recompute\n got:\n%s\nwant:\n%s", got, want)
	}
}
