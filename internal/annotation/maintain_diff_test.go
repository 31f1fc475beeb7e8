package annotation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// maintQueries cover every operator the maintenance rules handle: σ, π,
// ⋈ (including a natural self-join and a self-join through a renaming),
// ∪ with and without an alignment permutation, and ρ.
func maintQueries() map[string]algebra.Query {
	chain := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.Sigma(algebra.AttrConst{Attr: "A", Op: algebra.OpNe, Val: relation.String("v0")},
			algebra.NatJoin(algebra.R("R1"),
				algebra.Delta(map[relation.Attribute]relation.Attribute{"A": "B", "B": "C"}, algebra.R("R1")))))
	aligned := algebra.Pi([]relation.Attribute{"C", "A"},
		algebra.Delta(map[relation.Attribute]relation.Attribute{"X": "C", "Y": "A"}, algebra.R("R3")))
	return map[string]algebra.Query{
		"spjru":        incrTestQuery(),
		"selfjoin∪aln": algebra.Un(chain, aligned),
		"natselfjoin":  algebra.Pi([]relation.Attribute{"B"}, algebra.NatJoin(algebra.R("R1"), algebra.R("R1"))),
	}
}

// maintValue draws a value for the differential's random tuples from a
// small domain, so inserts collide with join keys and grow surviving
// where-sets.
func maintValue(rng *rand.Rand) string { return fmt.Sprintf("v%d", rng.Intn(5)) }

func maintTuple(rng *rand.Rand, rel string) relation.SourceTuple {
	if rel == "R2" {
		return relation.SourceTuple{Rel: rel, Tuple: relation.StringTuple(maintValue(rng), fmt.Sprintf("d%d", rng.Intn(3)))}
	}
	return relation.SourceTuple{Rel: rel, Tuple: relation.StringTuple(maintValue(rng), maintValue(rng))}
}

func maintDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	for _, rs := range []struct {
		name string
		a, b relation.Attribute
		n    int
	}{{"R1", "A", "B", 14}, {"R2", "C", "D", 8}, {"R3", "X", "Y", 8}} {
		r := relation.New(rs.name, relation.NewSchema(rs.a, rs.b))
		for r.Len() < rs.n {
			r.Insert(maintTuple(rng, rs.name).Tuple)
		}
		db.MustAdd(r)
	}
	return db
}

// reachOf reads wv's reach count for l (0 when l was never interned).
func reachOf(wv *WhereView, l relation.Location) int {
	id, ok := wv.in.lookup(l)
	if !ok {
		return 0
	}
	return int(wv.reach.get(id))
}

// knownLocations lists every location either index ever interned.
func knownLocations(wvs ...*WhereView) []relation.Location {
	seen := make(map[string]bool)
	var out []relation.Location
	for _, wv := range wvs {
		for id, n := 0, wv.in.size(); id < n; id++ {
			l := wv.in.loc(int32(id))
			if !seen[l.Key()] {
				seen[l.Key()] = true
				out = append(out, l)
			}
		}
	}
	relation.SortLocations(out)
	return out
}

func locKeys(ls []relation.Location) string {
	ks := make([]string, len(ls))
	for i, l := range ls {
		ks[i] = l.String()
	}
	return strings.Join(ks, " ")
}

// answers renders everything an index answers, canonically: every
// where-set, the reach count and Affected set of each location in locs,
// and the placement of every view cell. Two indexes over the same source
// must render identically whatever their history or location ids.
func answers(wv *WhereView, locs []relation.Location) string {
	var b strings.Builder
	b.WriteString(whereFingerprint(wv))
	for _, l := range locs {
		n := reachOf(wv, l)
		fmt.Fprintf(&b, "\nreach %v = %d", l, n)
		if n > 0 {
			a := wv.Affected(l)
			fmt.Fprintf(&b, " affected(%d) %s", a.Len(), locKeys(a.Locations()))
		}
	}
	attrs := wv.View.Schema().Attrs()
	for _, tu := range wv.View.SortedTuples() {
		for _, a := range attrs {
			p, err := PlaceOn(wv, tu, a)
			if err != nil {
				fmt.Fprintf(&b, "\nplace %v.%s: %v", tu, a, err)
				continue
			}
			// The winner's Affected set is rendered with its reach above.
			fmt.Fprintf(&b, "\nplace %v.%s: %v +%d", tu, a, p.Source, p.SideEffects)
		}
	}
	return b.String()
}

// checkAgainstFresh compares a maintained index's answers with a
// from-scratch ComputeWhere's, rendered by answers.
func checkAgainstFresh(t *testing.T, label string, got *WhereView, locs []relation.Location, want string) {
	t.Helper()
	if g := answers(got, locs); g != want {
		t.Fatalf("%s: maintained index diverged from recompute\n got:\n%s\nwant:\n%s", label, g, want)
	}
}

// TestMaintenanceMatchesRecompute drives seeded random chains of
// ApplyDeletion and ApplyInsertion steps — deletes of live and absent
// tuples, inserts of novel and duplicate tuples, restores of earlier
// deletes — through every query of maintQueries. After every step the
// generation must answer exactly like ComputeWhere over the same source.
// The chains are long enough to fold and squash the ann maps and bucket
// indexes, and every superseded generation is checked again at the end:
// deriving later generations must not disturb an earlier one.
func TestMaintenanceMatchesRecompute(t *testing.T) {
	const steps = 200
	for name, q := range maintQueries() {
		name, q := name, q
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			db := maintDB(rng)
			start, err := ComputeWhere(q, db)
			if err != nil {
				t.Fatal(err)
			}
			type gen struct {
				wv   *WhereView
				locs []relation.Location
				want string
			}
			var history []gen
			cur := start
			var deleted []relation.SourceTuple
			for step := 0; step < steps; step++ {
				var ts []relation.SourceTuple
				ins := rng.Intn(2) == 0
				rels := []string{"R1", "R2", "R3"}
				switch {
				case ins && len(deleted) > 0 && rng.Intn(3) == 0:
					// Restore a few earlier deletions.
					k := 1 + rng.Intn(len(deleted))
					ts, deleted = deleted[len(deleted)-k:], deleted[:len(deleted)-k]
				case ins:
					for k := 1 + rng.Intn(3); k > 0; k-- {
						ts = append(ts, maintTuple(rng, rels[rng.Intn(3)]))
					}
				default:
					for k := 1 + rng.Intn(3); k > 0; k-- {
						r := db.Relation(rels[rng.Intn(3)])
						if r.Len() > 4 {
							ts = append(ts, relation.SourceTuple{Rel: r.Name(), Tuple: r.Tuple(rng.Intn(r.Len()))})
						}
					}
					// A tuple absent from the source: a no-op.
					ts = append(ts, relation.SourceTuple{Rel: "R1", Tuple: relation.StringTuple("ghost", "ghost")})
				}
				if ins {
					novel := ts[:0:0]
					for _, st := range ts {
						if !db.Contains(st) {
							novel = append(novel, st)
						}
					}
					if db, err = db.InsertAll(ts); err != nil {
						t.Fatal(err)
					}
					// Duplicates are no-ops for the index too.
					ts = append(novel, ts...)
				} else {
					for _, st := range ts {
						if db.Contains(st) {
							deleted = append(deleted, st)
						}
					}
					db = db.DeleteAll(ts)
				}
				if ins {
					cur = cur.ApplyInsertion(ts)
				} else {
					cur = cur.ApplyDeletion(ts)
				}
				fresh, err := ComputeWhere(q, db)
				if err != nil {
					t.Fatal(err)
				}
				// The chain shares start's interner: start knows every
				// location any generation saw.
				locs := knownLocations(fresh, start)
				want := answers(fresh, locs)
				checkAgainstFresh(t, fmt.Sprintf("step %d", step), cur, locs, want)
				history = append(history, gen{wv: cur, locs: locs, want: want})
			}
			for step, g := range history {
				checkAgainstFresh(t, fmt.Sprintf("superseded step %d", step), g.wv, g.locs, g.want)
			}
			met := start.met
			if f, s := met.om.Folds(), met.om.Squashes(); f < 2 || s < 1 {
				t.Fatalf("chain folded %d and squashed %d times, want ≥ 2 folds and ≥ 1 squash", f, s)
			}
		})
	}
}
