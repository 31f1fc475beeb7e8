package provenance

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// TestWitnessInterningFlatOnRoundTrips asserts the steady-churn contract
// of the witness interner: after the first delete/restore round trip has
// populated the intern table, every later round trip over the same tuples
// re-derives only canonical witnesses the table already holds — the miss
// counter stays flat while the hit counter climbs, so the witness path
// stops allocating fresh witnesses (see also BenchmarkEngine_MixedInsertDelete
// with -benchmem, which pins the allocation figure itself).
func TestWitnessInterningFlatOnRoundTrips(t *testing.T) {
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	r2 := relation.New("R2", relation.NewSchema("B", "C"))
	for i := 0; i < 40; i++ {
		r1.Insert(relation.NewTuple(relation.Int(int64(i)), relation.Int(int64(i%5))))
	}
	for i := 0; i < 5; i++ {
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

	// The round trip deletes a clutch of R1 tuples and restores them; the
	// restore re-derives each restored tuple's singleton witness plus every
	// join/project union above it.
	T := []relation.SourceTuple{
		{Rel: "R1", Tuple: relation.NewTuple(relation.Int(3), relation.Int(3))},
		{Rel: "R1", Tuple: relation.NewTuple(relation.Int(8), relation.Int(3))},
		{Rel: "R1", Tuple: relation.NewTuple(relation.Int(14), relation.Int(4))},
	}
	roundTrip := func() {
		res = res.ApplyDeletion(T)
		var err error
		if res, err = res.ApplyInsertion(T); err != nil {
			t.Fatal(err)
		}
	}

	roundTrip() // first cycle populates the intern table
	after1 := res.TreeStats()
	if after1.InternMisses == 0 {
		t.Fatal("first restore never consulted the interner — is the insert path wired through it?")
	}

	const more = 5
	for i := 0; i < more; i++ {
		roundTrip()
	}
	st := res.TreeStats()
	if st.InternMisses != after1.InternMisses {
		t.Fatalf("intern misses grew from %d to %d across %d repeated round trips — witness re-derivations are allocating instead of reusing",
			after1.InternMisses, st.InternMisses, more)
	}
	if st.InternHits <= after1.InternHits {
		t.Fatalf("intern hits did not grow (before %d, after %d) — repeated restores are not probing the table",
			after1.InternHits, st.InternHits)
	}
}
