package provenance

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// walkWitnesses counts the witnesses of every view tuple, the O(view) walk
// WitnessCount replaces.
func walkWitnesses(r *Result) int {
	n := 0
	for _, t := range r.View.Tuples() {
		n += len(r.Witnesses(t))
	}
	return n
}

// TestWitnessCountTracksMaintenance drives a random delete/insert script —
// restores, fresh tuples, duplicates and absent tuples included — through
// queries whose roots are a projection, a union and a bare scan, and checks
// after every step that the carried witness total equals the walk.
func TestWitnessCountTracksMaintenance(t *testing.T) {
	queries := map[string]algebra.Query{
		"pj":   algebra.Pi([]relation.Attribute{"A", "C"}, algebra.NatJoin(algebra.R("R1"), algebra.R("R2"))),
		"ju":   algebra.Un(algebra.NatJoin(algebra.R("R1"), algebra.R("R2")), algebra.NatJoin(algebra.R("R3"), algebra.R("R2"))),
		"scan": algebra.R("R1"),
	}
	val := func(r *rand.Rand) relation.Value { return relation.Int(int64(r.Intn(5))) }
	tuple := func(r *rand.Rand, rel string) relation.SourceTuple {
		return relation.SourceTuple{Rel: rel, Tuple: relation.NewTuple(val(r), val(r))}
	}
	rels := []string{"R1", "R2", "R3"}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			db := relation.NewDatabase()
			for _, rel := range rels {
				attrs := map[string][2]relation.Attribute{"R1": {"A", "B"}, "R2": {"B", "C"}, "R3": {"A", "B"}}[rel]
				x := relation.New(rel, relation.NewSchema(attrs[0], attrs[1]))
				for i := 0; i < 12; i++ {
					x.Insert(tuple(r, rel).Tuple)
				}
				db.MustAdd(x)
			}
			res, err := Compute(q, db)
			if err != nil {
				t.Fatal(err)
			}
			var removed []relation.SourceTuple
			for step := 0; step < 150; step++ {
				var ts []relation.SourceTuple
				if r.Intn(2) == 0 {
					for k := 1 + r.Intn(3); k > 0; k-- {
						rel := db.Relation(rels[r.Intn(3)])
						if rel.Len() > 0 {
							ts = append(ts, relation.SourceTuple{Rel: rel.Name(), Tuple: rel.Tuple(r.Intn(rel.Len()))})
						}
					}
					ts = append(ts, tuple(r, "R1")) // possibly absent
					for _, st := range ts {
						if db.Contains(st) {
							removed = append(removed, st)
						}
					}
					db = db.DeleteAll(ts)
					res = res.ApplyDeletion(ts)
				} else {
					if len(removed) > 0 && r.Intn(2) == 0 {
						k := 1 + r.Intn(len(removed))
						ts, removed = removed[len(removed)-k:], removed[:len(removed)-k]
					}
					ts = append(ts, tuple(r, rels[r.Intn(3)]))
					var novel []relation.SourceTuple
					seen := map[string]bool{}
					for _, st := range ts {
						if !seen[st.Key()] && !db.Contains(st) {
							seen[st.Key()] = true
							novel = append(novel, st)
						}
					}
					if db, err = db.InsertAll(novel); err != nil {
						t.Fatal(err)
					}
					if res, err = res.ApplyInsertion(novel); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := res.WitnessCount(), walkWitnesses(res); got != want {
					t.Fatalf("step %d (%v): WitnessCount %d, walk %d", step, ts, got, want)
				}
			}
			fresh, err := Compute(q, db)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.WitnessCount(), fresh.WitnessCount(); got != want {
				t.Fatalf("final WitnessCount %d, recompute %d", got, want)
			}
		})
	}
}
