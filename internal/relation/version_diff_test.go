package relation_test

// The store-level differential suite lives in an external test package so
// it can share the copy-the-world reference model (internal/storetest)
// with the engine-level suite, and so it exercises the versioned store
// strictly through its public API.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/relation"
	"repro/internal/storetest"
)

func diffSeedDB(nR, nS int) *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", relation.NewSchema("A", "B"))
	for i := 0; i < nR; i++ {
		r.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i%7))
	}
	s := relation.New("S", relation.NewSchema("B", "C"))
	for i := 0; i < nS; i++ {
		s.InsertStrings("b"+strconv.Itoa(i%7), "c"+strconv.Itoa(i))
	}
	db.MustAdd(r)
	db.MustAdd(s)
	return db
}

// assertSameDB checks the versioned database against the oracle on every
// observable surface: rendered tuple order, Len, Contains, and positional
// access.
func assertSameDB(t *testing.T, got *relation.Database, o *storetest.Oracle, ctx string) {
	t.Helper()
	want := o.Build()
	if g, w := relation.WriteDatabaseString(got), relation.WriteDatabaseString(want); g != w {
		t.Fatalf("%s: versioned database diverged from oracle\n got:\n%s\nwant:\n%s", ctx, g, w)
	}
	for _, n := range o.Relations() {
		gr, wr := got.Relation(n), want.Relation(n)
		if gr.Len() != wr.Len() {
			t.Fatalf("%s: %s.Len() = %d, want %d", ctx, n, gr.Len(), wr.Len())
		}
		for i, wt := range wr.Tuples() {
			if gt := gr.Tuple(i); gt.Key() != wt.Key() {
				t.Fatalf("%s: %s.Tuple(%d) = %v, want %v", ctx, n, i, gt, wt)
			}
			if !gr.Contains(wt) {
				t.Fatalf("%s: %s missing %v", ctx, n, wt)
			}
		}
		// Each must agree with Tuples without materializing first.
		i := 0
		gr.Each(func(tt relation.Tuple) bool {
			if wt := wr.Tuple(i); tt.Key() != wt.Key() {
				t.Fatalf("%s: %s Each[%d] = %v, want %v", ctx, n, i, tt, wt)
			}
			i++
			return true
		})
		if i != wr.Len() {
			t.Fatalf("%s: %s Each yielded %d tuples, want %d", ctx, n, i, wr.Len())
		}
	}
}

// TestVersionedOpsDifferential drives long random DeleteAll/InsertAll
// sequences — enough to force both compaction paths (folds and squashes)
// several times over — and asserts after every step that the derived
// generation is byte-identical to a legacy copy-the-world rebuild.
// segments=0 runs a short parameter set over three seeds on small
// relations, starting from builders that the first derive freezes. The
// others start frozen through the deprecated Sharded(n), whose segment
// count must stay unobservable, and run a long set over two seeds on
// relations ten times larger.
func TestVersionedOpsDifferential(t *testing.T) {
	for _, segments := range []int{0, 1, 4, 17} {
		segments := segments
		t.Run(fmt.Sprintf("segments=%d", segments), func(t *testing.T) {
			if segments == 0 {
				testVersionedOpsDifferential(t, 0, 400, 3, 40, 30)
				return
			}
			testVersionedOpsDifferential(t, segments, 1200, 2, 400, 300)
		})
	}
}

func testVersionedOpsDifferential(t *testing.T, segments, steps int, seeds int64, nR, nS int) {
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := diffSeedDB(nR, nS)
		if segments > 0 {
			db = db.Sharded(segments)
		}
		o := storetest.NewOracle(db)
		fresh := 0 // counter for brand-new tuples so inserts can grow the store

		for step := 0; step < steps; step++ {
			if rng.Intn(2) == 0 {
				// Delete 1-3 random existing tuples (sometimes a miss).
				var T []relation.SourceTuple
				for k := 0; k < 1+rng.Intn(3); k++ {
					rel := []string{"R", "S"}[rng.Intn(2)]
					r := db.Relation(rel)
					if r.Len() == 0 {
						continue
					}
					T = append(T, relation.SourceTuple{Rel: rel, Tuple: r.Tuple(rng.Intn(r.Len()))})
				}
				if rng.Intn(8) == 0 {
					T = append(T, relation.SourceTuple{Rel: "R", Tuple: relation.StringTuple("missing", "missing")})
				}
				db = db.DeleteAll(T)
				o.DeleteAll(T)
			} else {
				// Insert a mix of brand-new tuples and duplicates.
				var I []relation.SourceTuple
				for k := 0; k < 1+rng.Intn(3); k++ {
					rel := []string{"R", "S"}[rng.Intn(2)]
					if rng.Intn(2) == 0 {
						fresh++
						I = append(I, relation.SourceTuple{Rel: rel, Tuple: relation.StringTuple("n"+strconv.Itoa(fresh), "m"+strconv.Itoa(fresh%5))})
					} else if r := db.Relation(rel); r.Len() > 0 {
						I = append(I, relation.SourceTuple{Rel: rel, Tuple: r.Tuple(rng.Intn(r.Len()))})
					}
				}
				next, err := db.InsertAll(I)
				if err != nil {
					t.Fatalf("seed %d step %d: InsertAll: %v", seed, step, err)
				}
				db = next
				o.InsertAll(I)
			}
			assertSameDB(t, db, o, fmt.Sprintf("seed %d step %d", seed, step))
		}

		st := db.StoreStats()
		if st.Compactions < 2 {
			t.Fatalf("seed %d: %d steps produced %d overlay folds, want ≥ 2 (stats %+v)", seed, steps, st.Compactions, st)
		}
		if st.Squashes == 0 {
			t.Fatalf("seed %d: %d steps never squashed a chain (stats %+v)", seed, steps, st)
		}
		if st.DerivedVersions != int64(steps) {
			t.Fatalf("seed %d: DerivedVersions = %d, want %d", seed, st.DerivedVersions, steps)
		}
		if st.SharedRelations+st.RewrittenRelations != int64(2*steps) {
			t.Fatalf("seed %d: shared %d + rewritten %d, want %d relation passes",
				seed, st.SharedRelations, st.RewrittenRelations, 2*steps)
		}
	}
}
