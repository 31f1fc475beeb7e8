package deletion

import (
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// joinsOnKeys verifies syntactically that a normalized PJ query joins on
// keys: for every Join node, the shared attributes contain a key of at
// least one operand (checked against the current instance). This is the
// foreign-key shape of the paper's remark; it implies unique witnesses.
func joinsOnKeys(q algebra.Query, db *relation.Database) (bool, error) {
	n := algebra.Normalize(q)
	var check func(algebra.Query) (bool, error)
	check = func(q algebra.Query) (bool, error) {
		switch q := q.(type) {
		case algebra.Join:
			lok, err := check(q.Left)
			if err != nil || !lok {
				return false, err
			}
			rok, err := check(q.Right)
			if err != nil || !rok {
				return false, err
			}
			ls, err := algebra.SchemaOf(q.Left, db)
			if err != nil {
				return false, err
			}
			rs, err := algebra.SchemaOf(q.Right, db)
			if err != nil {
				return false, err
			}
			common := ls.Common(rs)
			if len(common) == 0 {
				return false, nil // cross product: never key-joined
			}
			lrel, err := algebra.EvalNamed(q.Left, db, "side")
			if err != nil {
				return false, err
			}
			rrel, err := algebra.EvalNamed(q.Right, db, "side")
			if err != nil {
				return false, err
			}
			return lrel.IsKey(common) || rrel.IsKey(common), nil
		default:
			for _, c := range algebra.Children(q) {
				ok, err := check(c)
				if err != nil || !ok {
					return ok, err
				}
			}
			return true, nil
		}
	}
	return check(n)
}

// keyedDB: Emp(emp, dept) joining Dept(dept, mgr) where dept is a key of
// Dept — the foreign-key shape of the §2.1.1 remark.
func keyedDB() *relation.Database {
	db := relation.NewDatabase()
	emp := relation.New("Emp", relation.NewSchema("emp", "dept"))
	emp.InsertStrings("ann", "d1")
	emp.InsertStrings("bob", "d1")
	emp.InsertStrings("carol", "d2")
	db.MustAdd(emp)
	dept := relation.New("Dept", relation.NewSchema("dept", "mgr"))
	dept.InsertStrings("d1", "mia")
	dept.InsertStrings("d2", "noa")
	db.MustAdd(dept)
	return db
}

func keyedQuery() algebra.Query {
	return algebra.Pi([]relation.Attribute{"emp", "mgr"},
		algebra.NatJoin(algebra.R("Emp"), algebra.R("Dept")))
}

func TestFDHolds(t *testing.T) {
	db := keyedDB()
	fd := relation.FD{Rel: "Dept", Determinant: []relation.Attribute{"dept"}, Dependent: []relation.Attribute{"mgr"}}
	ok, err := fd.Holds(db)
	if err != nil || !ok {
		t.Errorf("dept -> mgr should hold: ok=%v err=%v", ok, err)
	}
	// Violate it.
	db.Relation("Dept").InsertStrings("d1", "zoe")
	ok, err = fd.Holds(db)
	if err != nil || ok {
		t.Errorf("violated FD misreported: ok=%v err=%v", ok, err)
	}
	// Bad references.
	if _, err := (relation.FD{Rel: "Nope"}).Holds(db); err == nil {
		t.Error("unknown relation must error")
	}
	if _, err := (relation.FD{Rel: "Dept", Determinant: []relation.Attribute{"zz"}}).Holds(db); err == nil {
		t.Error("unknown determinant must error")
	}
	if _, err := (relation.FD{Rel: "Dept", Determinant: []relation.Attribute{"dept"}, Dependent: []relation.Attribute{"zz"}}).Holds(db); err == nil {
		t.Error("unknown dependent must error")
	}
}

func TestIsKey(t *testing.T) {
	db := keyedDB()
	if !db.Relation("Dept").IsKey([]relation.Attribute{"dept"}) {
		t.Error("dept is a key of Dept")
	}
	if db.Relation("Emp").IsKey([]relation.Attribute{"dept"}) {
		t.Error("dept is not a key of Emp (two d1 rows)")
	}
	if db.Relation("Dept").IsKey([]relation.Attribute{"ghost"}) {
		t.Error("missing attribute is not a key")
	}
}

func TestKeyDeclaration(t *testing.T) {
	db := keyedDB()
	fd := relation.Key("Dept", db.Relation("Dept").Schema(), "dept")
	ok, err := fd.Holds(db)
	if err != nil || !ok {
		t.Errorf("key FD should hold: %v %v", ok, err)
	}
	if fd.String() == "" {
		t.Error("empty FD rendering")
	}
}

func TestJoinsOnKeys(t *testing.T) {
	db := keyedDB()
	ok, err := joinsOnKeys(keyedQuery(), db)
	if err != nil || !ok {
		t.Errorf("Emp ⋈ Dept joins on Dept's key: ok=%v err=%v", ok, err)
	}
	if res := basisOf(t, keyedQuery(), db); res.WitnessCount() != res.View.Len() {
		t.Errorf("a key join must give every view tuple one witness: %d witnesses, %d rows", res.WitnessCount(), res.View.Len())
	}
	// The UserGroup query is NOT a key join: groups repeat on both sides.
	ug := userGroupDB()
	ok, err = joinsOnKeys(userFileQuery(), ug)
	if err != nil || ok {
		t.Errorf("UserGroup join misclassified as key join: ok=%v err=%v", ok, err)
	}
	// Cross products never count.
	db2 := relation.NewDatabase()
	a := relation.New("A", relation.NewSchema("X"))
	a.InsertStrings("1")
	db2.MustAdd(a)
	bRel := relation.New("B", relation.NewSchema("Y"))
	bRel.InsertStrings("2")
	db2.MustAdd(bRel)
	ok, err = joinsOnKeys(algebra.NatJoin(algebra.R("A"), algebra.R("B")), db2)
	if err != nil || ok {
		t.Errorf("cross product misclassified: ok=%v err=%v", ok, err)
	}
}

// The unique-witness precondition of PolyBasis's one-witness case holds
// for the whole view iff the basis has one witness per view tuple, the O(1)
// test core.Delete routes key joins on.
func TestKeyJoinCheck(t *testing.T) {
	keyed := basisOf(t, keyedQuery(), keyedDB())
	if keyed.WitnessCount() != keyed.View.Len() {
		t.Errorf("key join has unique witnesses: %d witnesses over %d rows", keyed.WitnessCount(), keyed.View.Len())
	}
	ug := basisOf(t, userFileQuery(), userGroupDB())
	if ug.WitnessCount() == ug.View.Len() {
		t.Errorf("(john,f1) has two witnesses; check must fail")
	}
}

func TestViewUniqueWitness(t *testing.T) {
	db := keyedDB()
	q := keyedQuery()
	// (carol, noa): its Dept component (d2, noa) feeds only carol; its
	// Emp component likewise — side-effect-free either way.
	res, err := PolyBasis(basisOf(t, q, db), relation.StringTuple("carol", "noa"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() {
		t.Errorf("expected free deletion, got %v", res.SideEffects)
	}
	// (ann, mia): Dept(d1,mia) also feeds bob; Emp(ann,d1) feeds only ann.
	res, err = PolyBasis(basisOf(t, q, db), relation.StringTuple("ann", "mia"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() || res.T[0].Rel != "Emp" {
		t.Errorf("should delete the Emp row for a free deletion: %v (effects %v)", res.T, res.SideEffects)
	}
	// Agreement with the general exact solver.
	exact, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("ann", "mia")}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.SideEffects) != len(res.SideEffects) {
		t.Errorf("keyed=%d exact=%d side-effects", len(res.SideEffects), len(exact.SideEffects))
	}
}

func TestViewUniqueWitnessRejectsNonKey(t *testing.T) {
	ug := userGroupDB()
	_, err := PolyBasis(basisOf(t, userFileQuery(), ug), relation.StringTuple("john", "f1"))
	if !errors.Is(err, ErrNotPoly) {
		t.Errorf("expected ErrNotPoly, got %v", err)
	}
}

func TestViewUniqueWitnessMissingTarget(t *testing.T) {
	db := keyedDB()
	_, err := PolyBasis(basisOf(t, keyedQuery(), db), relation.StringTuple("no", "pe"))
	if !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
}
