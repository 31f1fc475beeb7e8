package provenance

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/relation"
)

func userGroupDB() *relation.Database {
	db := relation.NewDatabase()
	ug := relation.New("UserGroup", relation.NewSchema("user", "group"))
	ug.InsertStrings("john", "staff")
	ug.InsertStrings("john", "admin")
	ug.InsertStrings("mary", "admin")
	db.MustAdd(ug)
	gf := relation.New("GroupFile", relation.NewSchema("group", "file"))
	gf.InsertStrings("staff", "f1")
	gf.InsertStrings("admin", "f1")
	gf.InsertStrings("admin", "f2")
	db.MustAdd(gf)
	return db
}

func userFileQuery() algebra.Query {
	return algebra.Pi([]relation.Attribute{"user", "file"},
		algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
}

func st(rel string, vals ...string) relation.SourceTuple {
	return relation.SourceTuple{Rel: rel, Tuple: relation.StringTuple(vals...)}
}

func TestWitnessBasics(t *testing.T) {
	w := NewWitness(st("R", "a"), st("S", "b"), st("R", "a"))
	if w.Len() != 2 {
		t.Errorf("Len=%d want 2 (dedup)", w.Len())
	}
	if !w.Contains(st("R", "a")) || w.Contains(st("R", "z")) {
		t.Error("Contains wrong")
	}
	v := NewWitness(st("R", "a"))
	if !v.SubsetOf(w) || w.SubsetOf(v) {
		t.Error("SubsetOf wrong")
	}
	u := UnionWitness(v, NewWitness(st("T", "t")))
	if u.Len() != 2 {
		t.Errorf("UnionWitness Len=%d", u.Len())
	}
}

func TestWitnessKeyCanonical(t *testing.T) {
	a := NewWitness(st("R", "a"), st("S", "b"))
	b := NewWitness(st("S", "b"), st("R", "a"))
	if a.Key() != b.Key() {
		t.Error("witness key must not depend on construction order")
	}
}

func TestMinimizeWitnesses(t *testing.T) {
	w1 := NewWitness(st("R", "a"))
	w2 := NewWitness(st("R", "a"), st("S", "b")) // superset of w1
	w3 := NewWitness(st("S", "c"))
	out := minimizeWitnesses([]Witness{w2, w1, w3, w1})
	if len(out) != 2 {
		t.Fatalf("minimize kept %d, want 2: %v", len(out), out)
	}
	for _, w := range out {
		if w.Key() == w2.Key() {
			t.Error("non-minimal witness survived")
		}
	}
}

// The (john, f1) view tuple of the §2.1.1 example has two witnesses:
// {UG(john,staff), GF(staff,f1)} and {UG(john,admin), GF(admin,f1)}.
func TestComputeUserFileWitnesses(t *testing.T) {
	db := userGroupDB()
	res, err := Compute(userFileQuery(), db)
	if err != nil {
		t.Fatal(err)
	}
	ws := res.Witnesses(relation.StringTuple("john", "f1"))
	if len(ws) != 2 {
		t.Fatalf("got %d witnesses, want 2: %v", len(ws), ws)
	}
	for _, w := range ws {
		if w.Len() != 2 {
			t.Errorf("witness size %d, want 2: %v", w.Len(), w)
		}
		ok, err := VerifyWitness(userFileQuery(), db, relation.StringTuple("john", "f1"), w)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("witness %v fails verification", w)
		}
	}
	// (mary, f2) has exactly one witness.
	ws = res.Witnesses(relation.StringTuple("mary", "f2"))
	if len(ws) != 1 {
		t.Errorf("(mary,f2) witnesses=%d want 1", len(ws))
	}
}

func TestComputeSelectUnionWitnesses(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", relation.NewSchema("A"))
	r.InsertStrings("x")
	db.MustAdd(r)
	s := relation.New("S", relation.NewSchema("A"))
	s.InsertStrings("x")
	db.MustAdd(s)
	res, err := Compute(algebra.Un(algebra.R("R"), algebra.R("S")), db)
	if err != nil {
		t.Fatal(err)
	}
	ws := res.Witnesses(relation.StringTuple("x"))
	if len(ws) != 2 {
		t.Fatalf("union tuple should have 2 single-tuple witnesses, got %v", ws)
	}
	for _, w := range ws {
		if w.Len() != 1 {
			t.Errorf("union witness must be a single tuple: %v", w)
		}
	}
}

func TestComputeLimit(t *testing.T) {
	db := userGroupDB()
	_, err := ComputeLimited(userFileQuery(), db, Limit{MaxWitnesses: 1})
	if !errors.Is(err, ErrLimit) {
		t.Errorf("expected ErrLimit, got %v", err)
	}
}

func TestVerifyWitnessRejectsNonWitness(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	target := relation.StringTuple("john", "f1")
	// Not sufficient: only one half of a witness.
	ok, err := VerifyWitness(q, db, target, NewWitness(st("UserGroup", "john", "staff")))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("insufficient set accepted as witness")
	}
	// Not minimal: both witnesses together.
	ok, err = VerifyWitness(q, db, target, NewWitness(
		st("UserGroup", "john", "staff"), st("GroupFile", "staff", "f1"),
		st("UserGroup", "john", "admin"), st("GroupFile", "admin", "f1")))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("non-minimal set accepted as witness")
	}
}

func TestLineageMatchesWitnessUnion(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	res, err := Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ComputeLineage(q, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, vt := range res.View.Tuples() {
		lin := lres.Lineage(vt)
		union := NewLineage()
		for _, w := range res.Witnesses(vt) {
			for _, s := range w.Tuples() {
				union.add(s)
			}
		}
		if lin.Len() != union.Len() {
			t.Errorf("tuple %v: lineage %v != union of witnesses %v", vt, lin, union)
			continue
		}
		for _, s := range union.Tuples() {
			if !lin.Contains(s) {
				t.Errorf("tuple %v: lineage missing %v", vt, s)
			}
		}
	}
}

func TestLineageByRelation(t *testing.T) {
	db := userGroupDB()
	lin, err := LineageOf(userFileQuery(), db, relation.StringTuple("john", "f1"))
	if err != nil {
		t.Fatal(err)
	}
	by := lin.ByRelation()
	if len(by["UserGroup"]) != 2 || len(by["GroupFile"]) != 2 {
		t.Errorf("ByRelation=%v", by)
	}
}

func TestLineageOfMissingTuple(t *testing.T) {
	db := userGroupDB()
	if _, err := LineageOf(userFileQuery(), db, relation.StringTuple("nobody", "f9")); err == nil {
		t.Error("expected error for missing view tuple")
	}
}

// naiveQueries cover every operator the witness derivation handles: σ, π,
// ⋈ (a natural self-join and a self-join through a renaming), ∪ with an
// alignment permutation, and ρ — plus a union whose one branch's
// witnesses absorb the other's, so minimization prunes.
var naiveQueries = []struct {
	name string
	q    algebra.Query
}{
	{"pj", algebra.Pi([]relation.Attribute{"A", "C"}, algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))},
	{"absorb", algebra.Un(
		algebra.Pi([]relation.Attribute{"A"}, algebra.NatJoin(algebra.R("R1"), algebra.R("R2"))),
		algebra.Pi([]relation.Attribute{"A"}, algebra.R("R1")))},
	{"natselfjoin", algebra.Pi([]relation.Attribute{"B"}, algebra.NatJoin(algebra.R("R1"), algebra.R("R1")))},
	{"selfjoin∪aln", algebra.Un(
		algebra.Pi([]relation.Attribute{"A", "C"},
			algebra.Sigma(algebra.AttrConst{Attr: "A", Op: algebra.OpNe, Val: relation.String("v0")},
				algebra.NatJoin(algebra.R("R1"),
					algebra.Delta(map[relation.Attribute]relation.Attribute{"A": "B", "B": "C"}, algebra.R("R1"))))),
		algebra.Pi([]relation.Attribute{"C", "A"},
			algebra.Delta(map[relation.Attribute]relation.Attribute{"X": "C", "Y": "A"}, algebra.R("R3"))))},
}

// naiveTuple draws a tuple of rel from a three-value domain, so joins and
// projections merge derivations.
func naiveTuple(rng *rand.Rand, rel string) relation.SourceTuple {
	v := func() string { return "v" + strconv.Itoa(rng.Intn(3)) }
	return relation.SourceTuple{Rel: rel, Tuple: relation.StringTuple(v(), v())}
}

func naiveDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	for _, rs := range []struct{ name, a, b string }{{"R1", "A", "B"}, {"R2", "B", "C"}, {"R3", "X", "Y"}} {
		r := relation.New(rs.name, relation.NewSchema(rs.a, rs.b))
		for i := 0; i < 6; i++ {
			r.Insert(naiveTuple(rng, rs.name).Tuple)
		}
		db.MustAdd(r)
	}
	return db
}

// checkAgainstNaive compares res with the independent oracles over db:
// its rows with algebra.Eval's, and every tuple's basis with
// WitnessesNaive's subset enumeration.
func checkAgainstNaive(t *testing.T, label string, q algebra.Query, db *relation.Database, res *Result) {
	t.Helper()
	want, err := algebra.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.View.Equal(want) {
		t.Fatalf("%s: view %v, algebra.Eval %v", label, res.View.SortedTuples(), want.SortedTuples())
	}
	for _, vt := range want.Tuples() {
		naive, err := WitnessesNaive(q, db, vt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := basisKeys(res.Witnesses(vt)), basisKeys(naive); got != want {
			t.Fatalf("%s: tuple %v: basis %s, naive %s", label, vt, got, want)
		}
	}
}

// basisKeys renders a witness list canonically: its witnesses, sorted.
func basisKeys(ws []Witness) string {
	keys := make([]string, len(ws))
	for i, w := range ws {
		keys[i] = w.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestWitnessesNaiveAgreesWithCompute checks Compute, and the maintenance
// that shares its insertion step, against oracles that share no code with
// either: algebra.Eval for the rows and WitnessesNaive's subset
// enumeration for each basis. It covers the paper's example and, for
// every query of naiveQueries, random small instances — at the build and
// after every step of a random chain of deletions and insertions, where
// it also checks each step's ViewDelta against the two views.
func TestWitnessesNaiveAgreesWithCompute(t *testing.T) {
	res, err := Compute(userFileQuery(), userGroupDB())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstNaive(t, "usergroup", userFileQuery(), userGroupDB(), res)

	for _, nq := range naiveQueries {
		nq := nq
		t.Run(nq.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				db := naiveDB(rng)
				res, err := Compute(nq.q, db)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstNaive(t, fmt.Sprintf("seed %d build", seed), nq.q, db, res)
				if d := res.ViewDelta(); d.Died != nil || d.Added != nil || d.DiedKeys != nil || d.AddedKeys != nil {
					t.Fatalf("seed %d: a computed Result reports a view delta", seed)
				}
				for step := 0; step < 10; step++ {
					prev := res
					if rng.Intn(2) == 0 {
						var T []relation.SourceTuple
						for _, st := range db.AllSourceTuples() {
							if rng.Intn(5) == 0 {
								T = append(T, st)
							}
						}
						db, res = db.DeleteAll(T), res.ApplyDeletion(T)
					} else {
						var I []relation.SourceTuple
						for k := 1 + rng.Intn(3); k > 0; k-- {
							if st := naiveTuple(rng, []string{"R1", "R2", "R3"}[rng.Intn(3)]); !db.Contains(st) {
								I = append(I, st)
							}
						}
						if db, err = db.InsertAll(I); err != nil {
							t.Fatal(err)
						}
						if res, err = res.ApplyInsertion(I); err != nil {
							t.Fatal(err)
						}
					}
					checkAgainstNaive(t, fmt.Sprintf("seed %d step %d", seed, step), nq.q, db, res)
					if res != prev {
						checkViewDelta(t, fmt.Sprintf("seed %d step %d", seed, step), prev.View, res)
					}
				}
			}
		})
	}
}

// checkViewDelta fails unless res.ViewDelta lists exactly the rows of prev
// missing from res.View (died) and the rows of res.View missing from prev
// (added), each once, and each row's key beside it.
func checkViewDelta(t *testing.T, label string, prev *relation.Relation, res *Result) {
	t.Helper()
	d := res.ViewDelta()
	for _, c := range []struct {
		name      string
		got       []relation.Tuple
		keys      []string
		from, not *relation.Relation
	}{{"died", d.Died, d.DiedKeys, prev, res.View}, {"added", d.Added, d.AddedKeys, res.View, prev}} {
		if len(c.keys) != len(c.got) {
			t.Fatalf("%s: %s lists %d rows but %d keys", label, c.name, len(c.got), len(c.keys))
		}
		for i, tu := range c.got {
			if c.keys[i] != tu.Key() {
				t.Fatalf("%s: %s row %v carries key %q", label, c.name, tu, c.keys[i])
			}
		}
		want := map[string]bool{}
		for _, tu := range c.from.Tuples() {
			if !c.not.Contains(tu) {
				want[tu.Key()] = true
			}
		}
		for _, tu := range c.got {
			if !want[tu.Key()] {
				t.Fatalf("%s: %s lists %v, which is not in that set or is listed twice", label, c.name, tu)
			}
			delete(want, tu.Key())
		}
		if len(want) > 0 {
			t.Fatalf("%s: %s misses %d rows", label, c.name, len(want))
		}
	}
}

// Property: every witness in the computed basis verifies (sufficient and
// minimal) on random small databases and a PJ query.
func TestWitnessBasisSoundQuick(t *testing.T) {
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
		}
		for i := 0; i < 2+r.Intn(5); i++ {
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(3))), relation.Int(int64(r.Intn(3)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		res, err := Compute(q, db)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, vt := range res.View.Tuples() {
			for _, w := range res.Witnesses(vt) {
				ok, err := VerifyWitness(q, db, vt, w)
				if err != nil || !ok {
					t.Logf("witness %v of %v fails: ok=%v err=%v", w, vt, ok, err)
					return false
				}
			}
			if len(res.Witnesses(vt)) == 0 {
				t.Logf("view tuple %v has empty witness basis", vt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
