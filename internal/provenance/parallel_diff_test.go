package provenance

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// TestParallelMaintenanceWidthInvariant drives a 400-step mixed
// insert/delete stream through one maintained chain and demands its
// witness basis equal a from-scratch Compute every 50 steps.
func TestParallelMaintenanceWidthInvariant(t *testing.T) {
	// Join + union exercise both two-child operators; select, project and
	// rename ride along on the union's branches.
	q := algebra.Un(
		algebra.Pi([]relation.Attribute{"A"},
			algebra.NatJoin(algebra.R("R1"), algebra.R("R2"))),
		algebra.Pi([]relation.Attribute{"A"},
			algebra.Sigma(algebra.EqAttr("A", "B"), algebra.R("R1"))),
	)

	rng := rand.New(rand.NewSource(9))
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	r2 := relation.New("R2", relation.NewSchema("B", "C"))
	for i := 0; i < 40; i++ {
		r1.Insert(relation.NewTuple(relation.Int(int64(rng.Intn(8))), relation.Int(int64(rng.Intn(8)))))
		r2.Insert(relation.NewTuple(relation.Int(int64(rng.Intn(8))), relation.Int(int64(rng.Intn(8)))))
	}
	db.MustAdd(r1)
	db.MustAdd(r2)

	w1, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}

	var graveyard []relation.SourceTuple
	for step := 0; step < 400; step++ {
		if rng.Intn(2) == 0 {
			// Insert: a few fresh tuples plus the occasional restore.
			var I []relation.SourceTuple
			for k := 0; k < 6; k++ {
				rel := "R1"
				if rng.Intn(2) == 0 {
					rel = "R2"
				}
				I = append(I, relation.SourceTuple{Rel: rel, Tuple: relation.NewTuple(
					relation.Int(int64(rng.Intn(8))), relation.Int(int64(rng.Intn(8))))})
			}
			if len(graveyard) > 0 && rng.Intn(2) == 0 {
				I = append(I, graveyard[rng.Intn(len(graveyard))])
			}
			var novel []relation.SourceTuple
			seen := make(map[string]bool)
			for _, stp := range I {
				if !db.Contains(stp) && !seen[stp.Key()] {
					seen[stp.Key()] = true
					novel = append(novel, stp)
				}
			}
			if len(novel) == 0 {
				continue
			}
			newDB, err := db.InsertAll(novel)
			if err != nil {
				t.Fatal(err)
			}
			if w1, err = w1.ApplyInsertion(novel); err != nil {
				t.Fatal(err)
			}
			db = newDB
		} else {
			all := db.AllSourceTuples()
			if len(all) < 8 {
				continue
			}
			var T []relation.SourceTuple
			for _, s := range all {
				if rng.Intn(5) == 0 {
					T = append(T, s)
				}
			}
			if len(T) == 0 {
				T = append(T, all[rng.Intn(len(all))])
			}
			graveyard = append(graveyard, T...)
			db = db.DeleteAll(T)
			w1 = w1.ApplyDeletion(T)
		}

		if step%50 == 49 {
			fresh, err := Compute(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := witnessFingerprint(w1), witnessFingerprint(fresh); got != want {
				t.Fatalf("step %d: maintained state diverged from recompute\n got:\n%s\nwant:\n%s", step, got, want)
			}
		}
	}
}
