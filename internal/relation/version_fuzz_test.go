package relation_test

// FuzzVersionedOps is the fuzzer-driven sibling of
// TestVersionedOpsDifferential: the fuzzer invents the operation script
// instead of a seeded PRNG, so it can steer the store into interleavings
// the random walk never visits (delete-heavy runs that empty a relation,
// duplicate storms). Every step is checked
// against the copy-the-world oracle on every observable surface; CI runs
// it as a short smoke (-fuzz=FuzzVersionedOps -fuzztime=10s) and the seed
// corpus keeps it meaningful as a plain test.

import (
	"strconv"
	"testing"

	"repro/internal/relation"
	"repro/internal/storetest"
)

func FuzzVersionedOps(f *testing.F) {
	// Seeds: two delete/insert mixes, a delete-everything script, and a
	// duplicate-heavy one.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0, 200, 3, 9, 1, 7})
	f.Add([]byte{2, 0, 2, 1, 0, 0, 4, 3, 5, 5, 3, 2, 0, 9})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 1, 0, 2, 1, 2, 0, 3, 1, 3})
	f.Add([]byte{4, 0, 4, 1, 4, 2, 2, 8, 4, 9, 5, 6})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		db := diffSeedDB(12, 9)
		o := storetest.NewOracle(db)
		fresh := 0

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int(script[i+1])
			rel := []string{"R", "S"}[op&1]
			r := db.Relation(rel)
			switch op % 6 {
			case 0, 1: // delete one existing tuple (a miss when empty)
				var T []relation.SourceTuple
				if r.Len() > 0 {
					T = append(T, relation.SourceTuple{Rel: rel, Tuple: r.Tuple(arg % r.Len())})
				} else {
					T = append(T, relation.SourceTuple{Rel: rel, Tuple: relation.StringTuple("missing", "missing")})
				}
				db = db.DeleteAll(T)
				o.DeleteAll(T)
			case 2, 3: // insert a brand-new tuple
				fresh++
				I := []relation.SourceTuple{{Rel: rel, Tuple: relation.StringTuple("n"+strconv.Itoa(fresh), "m"+strconv.Itoa(arg%5))}}
				next, err := db.InsertAll(I)
				if err != nil {
					t.Fatalf("step %d: InsertAll: %v", i/2, err)
				}
				db = next
				o.InsertAll(I)
			case 4: // re-insert an existing tuple (duplicate: must be a no-op)
				if r.Len() == 0 {
					continue
				}
				I := []relation.SourceTuple{{Rel: rel, Tuple: r.Tuple(arg % r.Len())}}
				next, err := db.InsertAll(I)
				if err != nil {
					t.Fatalf("step %d: duplicate InsertAll: %v", i/2, err)
				}
				db = next
				o.InsertAll(I)
			case 5: // delete a tuple that is not there
				T := []relation.SourceTuple{{Rel: rel, Tuple: relation.StringTuple("ghost"+strconv.Itoa(arg), "ghost")}}
				db = db.DeleteAll(T)
				o.DeleteAll(T)
			}
			assertSameDB(t, db, o, "step "+strconv.Itoa(i/2))
		}
		assertSameDB(t, db, o, "final")
	})
}
