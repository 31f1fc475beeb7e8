package annotation

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// TestApplyDeletionWorkersWidthInvariant drives a random deletion stream
// through one maintained where-index and demands its fingerprint equal a
// from-scratch recompute's every eighth step.
func TestApplyDeletionWorkersWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := incrTestDB(rng, 36)
	q := incrTestQuery()

	w1, err := ComputeWhere(q, db)
	if err != nil {
		t.Fatal(err)
	}

	cur := db
	for step := 0; step < 40; step++ {
		var T []relation.SourceTuple
		for _, rel := range []string{"R1", "R2", "R3"} {
			r := cur.Relation(rel)
			for i := 0; i < r.Len(); i++ {
				if rng.Intn(12) == 0 {
					T = append(T, relation.SourceTuple{Rel: rel, Tuple: r.Tuple(i)})
				}
			}
		}
		if len(T) == 0 {
			continue
		}
		cur = cur.DeleteAll(T)
		w1 = w1.ApplyDeletion(T)

		if step%8 == 7 {
			fresh, err := ComputeWhere(q, cur)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := whereFingerprint(w1), whereFingerprint(fresh); got != want {
				t.Fatalf("step %d: maintained index diverged from recompute\n got:\n%s\nwant:\n%s", step, got, want)
			}
		}
	}
}
