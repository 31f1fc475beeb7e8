package deletion

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// chainDB builds a k-relation chain R1(A0,A1), R2(A1,A2), ..., Rk(Ak-1,Ak)
// with the given tuples per relation drawn from small domains.
func chainDB(r *rand.Rand, k, rows, domain int) (*relation.Database, algebra.Query) {
	db := relation.NewDatabase()
	var qs []algebra.Query
	for i := 1; i <= k; i++ {
		schema := relation.NewSchema("A"+strconv.Itoa(i-1), "A"+strconv.Itoa(i))
		rel := relation.New("R"+strconv.Itoa(i), schema)
		for j := 0; j < rows; j++ {
			rel.Insert(relation.NewTuple(
				relation.Int(int64(r.Intn(domain))),
				relation.Int(int64(r.Intn(domain)))))
		}
		db.MustAdd(rel)
		qs = append(qs, algebra.R(rel.Name()))
	}
	q := algebra.Pi([]relation.Attribute{"A0", "A" + strconv.Itoa(k)}, algebra.NatJoin(qs...))
	return db, q
}

func TestDetectChain(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db, q := chainDB(r, 3, 4, 3)
	info, err := DetectChain(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Relations) != 3 {
		t.Fatalf("chain length %d", len(info.Relations))
	}
	// Order must be R1,R2,R3 or reversed.
	if !(info.Relations[0] == "R1" && info.Relations[2] == "R3") &&
		!(info.Relations[0] == "R3" && info.Relations[2] == "R1") {
		t.Errorf("chain order %v", info.Relations)
	}
}

func TestDetectChainRejectsNonChain(t *testing.T) {
	db := relation.NewDatabase()
	db.MustAdd(relation.New("P", relation.NewSchema("A", "B")))
	db.MustAdd(relation.New("Q", relation.NewSchema("B", "C")))
	db.MustAdd(relation.New("S", relation.NewSchema("A", "C"))) // closes a cycle
	q := algebra.NatJoin(algebra.R("P"), algebra.R("Q"), algebra.R("S"))
	if _, err := DetectChain(q, db); err == nil {
		t.Error("triangle sharing graph must be rejected")
	}
	// Repeated relation.
	q2 := algebra.NatJoin(algebra.R("P"), algebra.R("P"))
	if _, err := DetectChain(q2, db); err == nil {
		t.Error("repeated relation must be rejected")
	}
	// Disconnected sharing graph (cross product in the middle).
	db2 := relation.NewDatabase()
	db2.MustAdd(relation.New("X", relation.NewSchema("A")))
	db2.MustAdd(relation.New("Y", relation.NewSchema("B")))
	db2.MustAdd(relation.New("Z", relation.NewSchema("C")))
	q3 := algebra.NatJoin(algebra.R("X"), algebra.R("Y"), algebra.R("Z"))
	if _, err := DetectChain(q3, db2); err == nil {
		t.Error("disconnected sharing graph must be rejected")
	}
}

func TestSourceChainMinCutSimple(t *testing.T) {
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A0", "A1"))
	r1.InsertStrings("a", "m1")
	r1.InsertStrings("a", "m2")
	db.MustAdd(r1)
	r2 := relation.New("R2", relation.NewSchema("A1", "A2"))
	r2.InsertStrings("m1", "z")
	r2.InsertStrings("m2", "z")
	db.MustAdd(r2)
	q := algebra.Pi([]relation.Attribute{"A0", "A2"}, algebra.NatJoin(algebra.R("R1"), algebra.R("R2")))
	// Two parallel paths a→m1→z and a→m2→z: the cut needs 2 deletions.
	res, err := SourceChainMinCut(q, db, relation.StringTuple("a", "z"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 2 {
		t.Errorf("cut size %d want 2: %v", len(res.T), res.T)
	}
}

func TestSourceChainMinCutBottleneck(t *testing.T) {
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A0", "A1"))
	r1.InsertStrings("a", "m1")
	r1.InsertStrings("a", "m2")
	db.MustAdd(r1)
	r2 := relation.New("R2", relation.NewSchema("A1", "A2"))
	r2.InsertStrings("m1", "w")
	r2.InsertStrings("m2", "w")
	db.MustAdd(r2)
	r3 := relation.New("R3", relation.NewSchema("A2", "A3"))
	r3.InsertStrings("w", "z")
	db.MustAdd(r3)
	q := algebra.Pi([]relation.Attribute{"A0", "A3"},
		algebra.NatJoin(algebra.R("R1"), algebra.R("R2"), algebra.R("R3")))
	// All paths go through R3(w,z): the min cut is that single tuple.
	res, err := SourceChainMinCut(q, db, relation.StringTuple("a", "z"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 1 || res.T[0].Rel != "R3" {
		t.Errorf("cut=%v want the R3 bottleneck", res.T)
	}
}

func TestSourceChainSingleRelation(t *testing.T) {
	db := relation.NewDatabase()
	r1 := relation.New("R1", relation.NewSchema("A", "B"))
	r1.InsertStrings("a", "b1")
	r1.InsertStrings("a", "b2")
	r1.InsertStrings("c", "b1")
	db.MustAdd(r1)
	q := algebra.Pi([]relation.Attribute{"A"}, algebra.R("R1"))
	res, err := SourceChainMinCut(q, db, relation.StringTuple("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.T) != 2 {
		t.Errorf("single-relation chain must delete all pre-images: %v", res.T)
	}
}

func TestSourceChainMissingTarget(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db, q := chainDB(r, 2, 3, 2)
	if _, err := SourceChainMinCut(q, db, relation.StringTuple("99", "99")); err == nil {
		t.Error("missing target must error")
	}
}

// Property (Theorem 2.6): the min-cut solution is optimal — it matches the
// generic exact hitting-set solver on random chains of length 2..4.
func TestChainMinCutOptimalQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(3)
		db, q := chainDB(r, k, 3+r.Intn(3), 2)
		view := algebra.MustEval(q, db)
		if view.Len() == 0 {
			return true
		}
		target := view.Tuples()[r.Intn(view.Len())]
		cut, err := SourceChainMinCut(q, db, target)
		if err != nil {
			t.Log(err)
			return false
		}
		exact, err := SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target})
		if err != nil {
			t.Log(err)
			return false
		}
		if len(cut.T) != len(exact.T) {
			t.Logf("min-cut=%d exact=%d (k=%d)\n%s", len(cut.T), len(exact.T), k, relation.WriteDatabaseString(db))
			return false
		}
		// And the cut must actually delete the target.
		_, gone, err := SideEffectsOf(q, db, cut.T, target)
		return err == nil && gone
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
