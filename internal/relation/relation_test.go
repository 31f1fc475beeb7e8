package relation

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRelationSetSemantics(t *testing.T) {
	r := New("R", NewSchema("A", "B"))
	if !r.InsertStrings("a", "b") {
		t.Error("first insert should report new")
	}
	if r.InsertStrings("a", "b") {
		t.Error("duplicate insert should report not-new")
	}
	if r.Len() != 1 {
		t.Errorf("Len=%d want 1 (set semantics)", r.Len())
	}
	if !r.Contains(StringTuple("a", "b")) {
		t.Error("Contains fails")
	}
}

func TestRelationArityPanic(t *testing.T) {
	r := New("R", NewSchema("A", "B"))
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	r.InsertStrings("only-one")
}

func TestRelationDelete(t *testing.T) {
	r := New("R", NewSchema("A"))
	r.InsertStrings("a")
	r.InsertStrings("b")
	r.InsertStrings("c")
	if !r.Delete(StringTuple("b")) {
		t.Fatal("Delete(b) should succeed")
	}
	if r.Delete(StringTuple("b")) {
		t.Error("second Delete(b) should fail")
	}
	if r.Len() != 2 || !r.Contains(StringTuple("a")) || !r.Contains(StringTuple("c")) {
		t.Errorf("post-delete state wrong: %v", r)
	}
	// Index must stay consistent after the shift.
	if !r.Delete(StringTuple("c")) {
		t.Error("Delete(c) should succeed after index reshuffle")
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := New("R", NewSchema("A"))
	r.InsertStrings("a")
	c := r.Clone()
	c.InsertStrings("b")
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: r=%d c=%d", r.Len(), c.Len())
	}
}

func TestRelationEqualIgnoresOrder(t *testing.T) {
	r := NewFromTuples("R", NewSchema("A"), StringTuple("a"), StringTuple("b"))
	s := NewFromTuples("R", NewSchema("A"), StringTuple("b"), StringTuple("a"))
	if !r.Equal(s) {
		t.Error("relations with same tuples in different order must be Equal")
	}
	s.InsertStrings("c")
	if r.Equal(s) {
		t.Error("relations of different cardinality must differ")
	}
}

func TestRelationMinus(t *testing.T) {
	r := NewFromTuples("R", NewSchema("A"), StringTuple("a"), StringTuple("b"), StringTuple("c"))
	s := NewFromTuples("R", NewSchema("A"), StringTuple("b"))
	d := r.Minus(s)
	if len(d) != 2 {
		t.Fatalf("Minus returned %d tuples", len(d))
	}
}

func TestRelationTable(t *testing.T) {
	r := NewFromTuples("R1", NewSchema("A", "B"),
		StringTuple("a", "x1"), StringTuple("a2", "x2"))
	table := r.Table()
	if !strings.HasPrefix(table, "R1\n") {
		t.Errorf("Table missing name header: %q", table)
	}
	if !strings.Contains(table, "A") || !strings.Contains(table, "x2") {
		t.Errorf("Table missing content: %q", table)
	}
}

func TestDatabaseAddAndLookup(t *testing.T) {
	db := NewDatabase()
	db.MustAdd(New("R", NewSchema("A")))
	if err := db.Add(New("R", NewSchema("B"))); err == nil {
		t.Error("duplicate relation name must error")
	}
	if db.Relation("R") == nil || db.Relation("Q") != nil {
		t.Error("Relation lookup wrong")
	}
	if !db.Has("R") || db.Has("Q") {
		t.Error("Has wrong")
	}
}

func TestDatabaseDeleteAll(t *testing.T) {
	db := NewDatabase()
	r := New("R", NewSchema("A"))
	r.InsertStrings("a")
	r.InsertStrings("b")
	db.MustAdd(r)
	s := New("S", NewSchema("B"))
	s.InsertStrings("x")
	db.MustAdd(s)

	d := db.DeleteAll([]SourceTuple{
		{Rel: "R", Tuple: StringTuple("a")},
		{Rel: "S", Tuple: StringTuple("zzz")}, // absent: ignored
	})
	if db.Relation("R").Len() != 2 {
		t.Error("DeleteAll must not mutate the receiver")
	}
	if d.Relation("R").Len() != 1 || d.Relation("R").Contains(StringTuple("a")) {
		t.Errorf("DeleteAll result wrong: %v", d.Relation("R"))
	}
	if d.Relation("S").Len() != 1 {
		t.Error("untouched relation changed size")
	}
}

func TestDatabaseSizeAndAllSourceTuples(t *testing.T) {
	db := NewDatabase()
	r := New("R", NewSchema("A"))
	r.InsertStrings("a")
	r.InsertStrings("b")
	db.MustAdd(r)
	if db.Size() != 2 {
		t.Errorf("Size=%d", db.Size())
	}
	all := db.AllSourceTuples()
	if len(all) != 2 || all[0].Rel != "R" {
		t.Errorf("AllSourceTuples=%v", all)
	}
}

func TestSourceTupleKeyDistinct(t *testing.T) {
	a := SourceTuple{Rel: "R", Tuple: StringTuple("x")}
	b := SourceTuple{Rel: "Rx", Tuple: StringTuple("")}
	if a.Key() == b.Key() {
		t.Error("source tuple keys collide across relation-name boundaries")
	}
}

func TestLocationSetOps(t *testing.T) {
	l1 := Loc("V", StringTuple("a"), "A")
	l2 := Loc("V", StringTuple("a"), "B")
	l3 := Loc("W", StringTuple("a"), "A")
	s := NewLocationSet(l1, l2)
	if s.Len() != 2 || !s.Has(l1) || s.Has(l3) {
		t.Error("LocationSet basic ops wrong")
	}
	if s.Add(l1) {
		t.Error("re-adding must report false")
	}
	t2 := NewLocationSet(l2, l3)
	diff := s.Minus(t2)
	if len(diff) != 1 || !diff[0].Tuple.Equal(l1.Tuple) || diff[0].Attr != "A" {
		t.Errorf("Minus=%v", diff)
	}
	s.AddAll(t2)
	if s.Len() != 3 {
		t.Errorf("AddAll len=%d", s.Len())
	}
	if s.Equal(t2) {
		t.Error("sets of different size must not be Equal")
	}
}

func TestAllLocations(t *testing.T) {
	db := NewDatabase()
	r := New("R", NewSchema("A", "B"))
	r.InsertStrings("a", "b")
	db.MustAdd(r)
	ls := db.AllLocations()
	if len(ls) != 2 {
		t.Fatalf("AllLocations=%d want 2", len(ls))
	}
}

// Property: DeleteAll(T) removes exactly the requested tuples and nothing
// else, for random databases and random deletion sets.
func TestDeleteAllQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		rel := New("R", NewSchema("A", "B"))
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			rel.Insert(NewTuple(Int(int64(r.Intn(5))), Int(int64(r.Intn(5)))))
		}
		db.MustAdd(rel)
		all := db.AllSourceTuples()
		var T []SourceTuple
		want := make(map[string]bool)
		for _, st := range all {
			if r.Intn(2) == 0 {
				T = append(T, st)
				want[st.Key()] = true
			}
		}
		d := db.DeleteAll(T)
		// Every surviving tuple was not deleted; every deleted tuple is gone.
		for _, st := range d.AllSourceTuples() {
			if want[st.Key()] {
				return false
			}
		}
		if d.Size() != db.Size()-len(T) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestReadWriteDatabaseRoundTrip(t *testing.T) {
	in := `# test db
relation UserGroup(user, group)
john, staff
mary, admin

relation GroupFile(group, file)
staff, f1
admin, f2
`
	db, err := ReadDatabaseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("UserGroup").Len() != 2 || db.Relation("GroupFile").Len() != 2 {
		t.Fatalf("parsed sizes wrong: %v", db)
	}
	out := WriteDatabaseString(db)
	db2, err := ReadDatabaseString(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	for _, name := range db.Names() {
		if !db.Relation(name).Equal(db2.Relation(name)) {
			t.Errorf("round trip changed relation %s", name)
		}
	}
}

func TestReadDatabaseErrors(t *testing.T) {
	cases := []string{
		"a, b\n",                         // tuple before header
		"relation R(\n",                  // malformed header
		"relation R()\nx\n",              // no attributes
		"relation R(A, B)\nonly-one\n",   // arity mismatch
		"relation R(A)\nrelation R(A)\n", // duplicate relation
		"relation (A)\nx\n",              // empty name
		"relation R(a, a)\nx, y\n",       // repeated attribute
	}
	for _, c := range cases {
		if _, err := ReadDatabaseString(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestWithName(t *testing.T) {
	r := NewFromTuples("R", NewSchema("A"), StringTuple("a"))
	s := r.WithName("S")
	if s.Name() != "S" || r.Name() != "R" {
		t.Errorf("WithName: %q / %q", s.Name(), r.Name())
	}
	if !s.Contains(StringTuple("a")) {
		t.Error("WithName lost tuples")
	}
}

func TestSortSourceTuples(t *testing.T) {
	ts := []SourceTuple{
		{Rel: "S", Tuple: StringTuple("a")},
		{Rel: "R", Tuple: StringTuple("b")},
		{Rel: "R", Tuple: StringTuple("a")},
	}
	SortSourceTuples(ts)
	if ts[0].Rel != "R" || ts[0].Tuple[0] != String("a") || ts[2].Rel != "S" {
		t.Errorf("sorted order wrong: %v", ts)
	}
}

func TestSourceTupleString(t *testing.T) {
	st := SourceTuple{Rel: "R", Tuple: StringTuple("a", "b")}
	if st.String() != "R(a, b)" {
		t.Errorf("String=%q", st.String())
	}
}

func TestLocationOrderAndString(t *testing.T) {
	a := Loc("R", StringTuple("a"), "A")
	b := Loc("R", StringTuple("a"), "B")
	c := Loc("R", StringTuple("b"), "A")
	d := Loc("S", StringTuple("a"), "A")
	if !a.Less(b) || !b.Less(c) || !c.Less(d) || d.Less(a) {
		t.Error("location order wrong")
	}
	if a.String() != "(R, (a), A)" {
		t.Errorf("String=%q", a.String())
	}
	ls := []Location{d, c, b, a}
	SortLocations(ls)
	if !ls[0].Tuple.Equal(a.Tuple) || ls[0].Attr != "A" || ls[3].Rel != "S" {
		t.Errorf("SortLocations wrong: %v", ls)
	}
}

func TestLocationSetSorted(t *testing.T) {
	s := NewLocationSet(
		Loc("R", StringTuple("b"), "A"),
		Loc("R", StringTuple("a"), "A"),
	)
	sorted := s.Sorted()
	if !sorted[0].Tuple.Equal(StringTuple("a")) {
		t.Errorf("Sorted wrong: %v", sorted)
	}
}

func TestReadDatabaseIntParsing(t *testing.T) {
	db, err := ReadDatabaseString("relation R(A)\n42\n")
	if err != nil {
		t.Fatal(err)
	}
	if !db.Relation("R").Contains(NewTuple(Int(42))) {
		t.Error("numeric literal should parse as Int")
	}
}
