package annotation

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// whereFingerprint renders the full index — every view tuple, every
// position, every source location — in canonical order, so two indexes
// are equal iff their fingerprints are.
func whereFingerprint(wv *WhereView) string {
	attrs := wv.View.Schema().Attrs()
	var lines []string
	for _, t := range wv.View.Tuples() {
		sets := wv.setsOf(t.Key())
		for pos, set := range sets {
			keys := make([]string, len(set))
			for i, id := range set {
				keys[i] = wv.in.loc(id).Key()
			}
			sort.Strings(keys)
			lines = append(lines, fmt.Sprintf("%s.%s={%s}", t.Key(), attrs[pos], strings.Join(keys, ",")))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// incrTestQuery exercises every operator the maintenance rules cover:
// a select-join-project branch unioned with a renamed projection.
func incrTestQuery() algebra.Query {
	branch1 := algebra.Pi([]relation.Attribute{"A", "D"},
		algebra.Sigma(algebra.AttrConst{Attr: "A", Op: algebra.OpNe, Val: relation.String("poison")},
			algebra.NatJoin(algebra.R("R1"),
				algebra.Delta(map[relation.Attribute]relation.Attribute{"C": "B"}, algebra.R("R2")))))
	branch2 := algebra.Delta(map[relation.Attribute]relation.Attribute{"X": "A", "Y": "D"},
		algebra.Pi([]relation.Attribute{"X", "Y"}, algebra.R("R3")))
	return algebra.Un(branch1, branch2)
}

func incrTestDB(rng *rand.Rand, n int) *relation.Database {
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	for i := 0; i < n; i++ {
		r1.InsertStrings(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", rng.Intn(n/3+1)))
	}
	db.MustAdd(r1)
	r2 := relation.New("R2", relation.NewSchema("C", "D"))
	for i := 0; i < n/2+1; i++ {
		r2.InsertStrings(fmt.Sprintf("b%d", rng.Intn(n/3+1)), fmt.Sprintf("d%d", rng.Intn(4)))
	}
	db.MustAdd(r2)
	r3 := relation.New("R3", relation.NewSchema("X", "Y"))
	for i := 0; i < n/3+1; i++ {
		r3.InsertStrings(fmt.Sprintf("a%d", rng.Intn(n)), fmt.Sprintf("d%d", rng.Intn(4)))
	}
	db.MustAdd(r3)
	return db
}

// TestApplyDeletionMatchesRecompute drives the maintained index through a
// random deletion sequence, checking after every step that it is
// byte-identical to a from-scratch ComputeWhere on the reduced source.
// Deletions hit overlapping join keys (so surviving tuples' where-sets
// shrink — the case with no view delta), plus tuples absent from the
// query or the database (must be no-ops).
func TestApplyDeletionMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := incrTestDB(rng, 30)
			q := incrTestQuery()
			wv, err := ComputeWhere(q, db)
			if err != nil {
				t.Fatal(err)
			}
			cur := db
			for step := 0; step < 25; step++ {
				var T []relation.SourceTuple
				pick := func(rel string) {
					r := cur.Relation(rel)
					if r.Len() == 0 {
						return
					}
					T = append(T, relation.SourceTuple{Rel: rel, Tuple: r.Tuple(rng.Intn(r.Len()))})
				}
				switch step % 5 {
				case 0, 1:
					pick("R1")
				case 2:
					pick("R2")
					pick("R1")
				case 3:
					pick("R3")
				case 4:
					// A tuple that is not in the source: must change nothing.
					T = append(T, relation.SourceTuple{Rel: "R1", Tuple: relation.StringTuple("ghost", "ghost")})
				}
				if len(T) == 0 {
					continue
				}
				cur = cur.DeleteAll(T)
				wv = wv.ApplyDeletion(T)

				fresh, err := ComputeWhere(q, cur)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := whereFingerprint(wv), whereFingerprint(fresh); got != want {
					t.Fatalf("step %d: maintained index diverged from recompute after deleting %v\n got:\n%s\nwant:\n%s",
						step, T, got, want)
				}
				if got, want := wv.View.Len(), fresh.View.Len(); got != want {
					t.Fatalf("step %d: maintained view has %d tuples, recompute %d", step, got, want)
				}
			}
		})
	}
}

// TestApplyDeletionDisjointIsFree asserts a deletion over relations the
// query never reads returns the receiver untouched.
func TestApplyDeletionDisjointIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := incrTestDB(rng, 12)
	other := relation.New("Other", relation.NewSchema("Z"))
	other.InsertStrings("z1")
	db.MustAdd(other)
	wv, err := ComputeWhere(incrTestQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	got := wv.ApplyDeletion([]relation.SourceTuple{{Rel: "Other", Tuple: relation.StringTuple("z1")}})
	if got != wv {
		t.Fatal("disjoint deletion derived a new index instead of returning the receiver")
	}
}

// TestApplyDeletionWorkIsDeltaBounded pins the O(|Δ|) contract the
// incremental rebuild exists for: deleting k tuples from a large source
// must touch work proportional to k times the deleted tuples' fan-out —
// NOT the view size. The old behavior (recompute the index per deletion)
// would touch every view and intermediate tuple per step and blow through
// the bound by orders of magnitude.
func TestApplyDeletionWorkIsDeltaBounded(t *testing.T) {
	const n = 4000
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	for i := 0; i < n; i++ {
		// Unique join keys: each deleted tuple's fan-out is exactly one
		// partner, so the per-step reachable set is a handful of entries.
		r1.InsertStrings(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	db.MustAdd(r1)
	r2 := relation.New("R2", relation.NewSchema("B", "D"))
	for i := 0; i < n; i++ {
		r2.InsertStrings(fmt.Sprintf("b%d", i), fmt.Sprintf("d%d", i))
	}
	db.MustAdd(r2)
	q := algebra.Pi([]relation.Attribute{"A", "D"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))

	wv, err := ComputeWhere(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if wv.View.Len() != n {
		t.Fatalf("view size %d, want %d", wv.View.Len(), n)
	}
	if wv.MaintenanceTouched() != 0 {
		t.Fatalf("full computation counted %d touched entries, want 0", wv.MaintenanceTouched())
	}

	const steps = 20
	for i := 0; i < steps; i++ {
		T := []relation.SourceTuple{{Rel: "R1", Tuple: relation.StringTuple(fmt.Sprintf("a%d", i*7), fmt.Sprintf("b%d", i*7))}}
		wv = wv.ApplyDeletion(T)
	}
	if got, want := wv.View.Len(), n-steps; got != want {
		t.Fatalf("view size after deletions %d, want %d", got, want)
	}
	// Each single-tuple deletion reaches one scan entry, one join output
	// and one projected tuple, plus constant-size probes; 32 per step is
	// generous. The view-sized alternative is ≥ n per step.
	limit := int64(steps * 32)
	if got := wv.MaintenanceTouched(); got > limit {
		t.Fatalf("maintenance touched %d entries for %d single-tuple deletions (limit %d) — rebuild work is not O(Δ)",
			got, steps, limit)
	}
	if got, view := wv.MaintenanceTouched(), int64(n); got >= view {
		t.Fatalf("maintenance touched %d entries, at least the view size %d — that is a full rebuild", got, view)
	}
}

// TestApplyInsertionWorkIsDeltaBounded is the insertion dual of
// TestApplyDeletionWorkIsDeltaBounded: restoring k tuples into a large
// source touches work proportional to k times their fan-out, not the view.
func TestApplyInsertionWorkIsDeltaBounded(t *testing.T) {
	const n = 4000
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	r2 := relation.New("R2", relation.NewSchema("B", "D"))
	for i := 0; i < n; i++ {
		r1.InsertStrings(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		r2.InsertStrings(fmt.Sprintf("b%d", i), fmt.Sprintf("d%d", i))
	}
	db.MustAdd(r1)
	db.MustAdd(r2)
	q := algebra.Pi([]relation.Attribute{"A", "D"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	wv, err := ComputeWhere(q, db)
	if err != nil {
		t.Fatal(err)
	}

	const steps = 20
	var T []relation.SourceTuple
	for i := 0; i < steps; i++ {
		T = append(T, relation.SourceTuple{Rel: "R1", Tuple: relation.StringTuple(fmt.Sprintf("a%d", i*7), fmt.Sprintf("b%d", i*7))})
	}
	wv = wv.ApplyDeletion(T)
	before := wv.MaintenanceTouched()
	for _, st := range T {
		wv = wv.ApplyInsertion([]relation.SourceTuple{st})
	}
	// A new left tuple joins an existing partner: a brand-new view tuple.
	wv = wv.ApplyInsertion([]relation.SourceTuple{{Rel: "R1", Tuple: relation.StringTuple("new", "b3")}})
	if got, want := wv.View.Len(), n+1; got != want {
		t.Fatalf("view size after restores %d, want %d", got, want)
	}
	// Each single-tuple insert reaches one scan entry, one join output and
	// one projected tuple, plus constant-size probes; 32 per step is
	// generous. The view-sized alternative is ≥ n per step.
	got := wv.MaintenanceTouched() - before
	if limit := int64((steps + 1) * 32); got > limit {
		t.Fatalf("insert maintenance touched %d entries for %d single-tuple inserts (limit %d) — not O(Δ)", got, steps+1, limit)
	}
	final, err := db.InsertAll([]relation.SourceTuple{{Rel: "R1", Tuple: relation.StringTuple("new", "b3")}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := ComputeWhere(q, final)
	if err != nil {
		t.Fatal(err)
	}
	locs := knownLocations(fresh, wv)
	checkAgainstFresh(t, "after restores", wv, locs, answers(fresh, locs))
}
