package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/workload"
)

func TestDeleteRoutesSPU(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db, q := workload.SPU(r, 2, 20, 5)
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		t.Fatal("empty view")
	}
	rep, err := Delete(q, db, target, MinimizeViewSideEffects, DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Algorithm, "SPU") {
		t.Errorf("algorithm %q, want SPU route", rep.Algorithm)
	}
	if rep.Class != algebra.ClassPoly {
		t.Errorf("class %v want P", rep.Class)
	}
	if !rep.Result.SideEffectFree() {
		t.Error("Theorem 2.3 guarantees side-effect-free for SPU")
	}
	if !rep.Exact {
		t.Error("SPU route is exact")
	}
}

// MaxWitnesses caps the basis on the NP-hard routes only: an SPU target
// with more singleton witnesses than the cap still gets its unique
// solution, while a PJ target over the cap fails.
func TestDeleteWitnessCapSkipsSPU(t *testing.T) {
	db := relation.NewDatabase()
	ug := relation.New("UserGroup", relation.NewSchema("user", "group"))
	ug.InsertStrings("john", "staff")
	ug.InsertStrings("john", "admin")
	ug.InsertStrings("mary", "admin")
	db.MustAdd(ug)
	gf := relation.New("GroupFile", relation.NewSchema("group", "file"))
	gf.InsertStrings("staff", "f1")
	gf.InsertStrings("admin", "f1")
	db.MustAdd(gf)
	capped := DeleteOptions{MaxWitnesses: 1}

	spu := algebra.Pi([]relation.Attribute{"group"}, algebra.R("UserGroup"))
	rep, err := Delete(spu, db, relation.StringTuple("admin"), MinimizeViewSideEffects, capped)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Algorithm, "SPU") || !rep.Exact || len(rep.Result.T) != 2 {
		t.Errorf("SPU under a cap of 1: %q exact=%v T=%v, want both admin rows", rep.Algorithm, rep.Exact, rep.Result.T)
	}

	pj := algebra.Pi([]relation.Attribute{"user", "file"}, algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
	if _, err := Delete(pj, db, relation.StringTuple("john", "f1"), MinimizeViewSideEffects, capped); !errors.Is(err, provenance.ErrLimit) {
		t.Errorf("PJ target with two witnesses under a cap of 1: err %v, want ErrLimit", err)
	}
}

func TestDeleteRoutesSJ(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	db, q := workload.SJ(r, 20, 4)
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		t.Fatal("empty view")
	}
	rep, err := Delete(q, db, target, MinimizeSourceDeletions, DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Algorithm, "SJ") {
		t.Errorf("algorithm %q, want SJ route", rep.Algorithm)
	}
	if len(rep.Result.T) != 1 {
		t.Errorf("Theorem 2.9: SJ needs one deletion, got %d", len(rep.Result.T))
	}
}

func TestDeleteRoutesChainMinCut(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db, q := workload.Chain(r, 3, 8, 3)
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		t.Fatal("empty view")
	}
	rep, err := Delete(q, db, target, MinimizeSourceDeletions, DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Algorithm, "min cut") {
		t.Errorf("algorithm %q, want chain min-cut route", rep.Algorithm)
	}
	if rep.Class != algebra.ClassNPHard {
		t.Errorf("PJ fragment classifies NP-hard even though chains are tractable; got %v", rep.Class)
	}
	if !rep.Exact {
		t.Error("min cut is exact")
	}
}

func TestDeleteRoutesExactAndGreedy(t *testing.T) {
	// A triangle-sharing join (B common to all three relations) is NOT a
	// chain, so the router must fall through to the generic solvers.
	r := rand.New(rand.NewSource(4))
	db := relation.NewDatabase()
	mk := func(name string, a1, a2 relation.Attribute) {
		rel := relation.New(name, relation.NewSchema(a1, a2))
		for i := 0; i < 8; i++ {
			rel.Insert(relation.NewTuple(
				relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
		}
		db.MustAdd(rel)
	}
	mk("P", "A", "B")
	mk("Q", "B", "C")
	mk("W", "B", "D")
	q := algebra.Pi([]relation.Attribute{"A", "C"},
		algebra.NatJoin(algebra.R("P"), algebra.R("Q"), algebra.R("W")))
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		t.Fatal("empty view")
	}
	exact, err := Delete(q, db, target, MinimizeSourceDeletions, DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact || !strings.Contains(exact.Algorithm, "exact") {
		t.Errorf("expected exact route, got %q", exact.Algorithm)
	}
	greedy, err := Delete(q, db, target, MinimizeSourceDeletions, DeleteOptions{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Exact || !strings.Contains(greedy.Algorithm, "greedy") {
		t.Errorf("expected greedy route, got %q", greedy.Algorithm)
	}
	if len(greedy.Result.T) < len(exact.Result.T) {
		t.Error("greedy cannot beat exact")
	}

	view, err := Delete(q, db, target, MinimizeViewSideEffects, DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(view.Algorithm, "hitting-set search") {
		t.Errorf("view objective algorithm %q", view.Algorithm)
	}
}

func TestAnnotateRoutes(t *testing.T) {
	r := rand.New(rand.NewSource(5))

	// SPU route.
	dbSPU, qSPU := workload.SPU(r, 2, 15, 5)
	tSPU, _ := workload.PickViewTuple(r, qSPU, dbSPU)
	rep, err := Annotate(qSPU, dbSPU, tSPU, "A")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Algorithm, "SPU") || rep.Class != algebra.ClassPoly {
		t.Errorf("SPU annotate route wrong: %q %v", rep.Algorithm, rep.Class)
	}
	if !rep.Placement.SideEffectFree() {
		t.Error("Theorem 3.3: SPU placements are side-effect-free")
	}

	// SJU route.
	dbSJU, qSJU := workload.SJU(r, 10, 3)
	tSJU, ok := workload.PickViewTuple(r, qSJU, dbSJU)
	if !ok {
		t.Fatal("empty SJU view")
	}
	rep, err = Annotate(qSJU, dbSJU, tSJU, "B")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Algorithm, "SJU") || rep.Class != algebra.ClassPoly {
		t.Errorf("SJU annotate route wrong: %q %v", rep.Algorithm, rep.Class)
	}

	// PJ route.
	dbPJ, qPJ := workload.TwoRelationPJ(r, 10, 3)
	tPJ, ok := workload.PickViewTuple(r, qPJ, dbPJ)
	if !ok {
		t.Fatal("empty PJ view")
	}
	rep, err = Annotate(qPJ, dbPJ, tPJ, "A")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Class != algebra.ClassNPHard || !strings.Contains(rep.Algorithm, "exact") {
		t.Errorf("PJ annotate route wrong: %q %v", rep.Algorithm, rep.Class)
	}
}

// TestDichotomyTables pins the three tables to the paper's values.
func TestDichotomyTables(t *testing.T) {
	check := func(p algebra.Problem, want map[string]algebra.Class) {
		for _, row := range DichotomyTable(p) {
			if c, ok := want[row.Fragment]; ok && c != row.Class {
				t.Errorf("%s / %s: got %s want %s", p, row.Fragment, row.Class, c)
			}
		}
	}
	check(algebra.ProblemViewSideEffect, map[string]algebra.Class{
		"queries involving PJ": algebra.ClassNPHard,
		"queries involving JU": algebra.ClassNPHard,
		"SPU":                  algebra.ClassPoly,
		"SJ":                   algebra.ClassPoly,
	})
	check(algebra.ProblemSourceSideEffect, map[string]algebra.Class{
		"queries involving PJ": algebra.ClassNPHard,
		"queries involving JU": algebra.ClassNPHard,
		"SPU":                  algebra.ClassPoly,
		"SJ":                   algebra.ClassPoly,
	})
	check(algebra.ProblemAnnotationPlacement, map[string]algebra.Class{
		"queries involving PJ": algebra.ClassNPHard,
		"SJU":                  algebra.ClassPoly,
		"SPU":                  algebra.ClassPoly,
	})
}

func TestDeleteErrorPaths(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	db, q := workload.SPU(r, 2, 10, 4)
	missing := relation.StringTuple("99999")
	if _, err := Delete(q, db, missing, MinimizeViewSideEffects, DeleteOptions{}); err == nil {
		t.Error("missing target through SPU route must error")
	}
	dbSJ, qSJ := workload.SJ(r, 10, 3)
	missingSJ := relation.StringTuple("99", "99", "99")
	if _, err := Delete(qSJ, dbSJ, missingSJ, MinimizeSourceDeletions, DeleteOptions{}); err == nil {
		t.Error("missing target through SJ route must error")
	}
	dbPJ, qPJ := workload.TwoRelationPJ(r, 8, 3)
	missingPJ := relation.StringTuple("99", "99")
	if _, err := Delete(qPJ, dbPJ, missingPJ, MinimizeViewSideEffects, DeleteOptions{}); err == nil {
		t.Error("missing target through exact route must error")
	}
	if _, err := Delete(qPJ, dbPJ, missingPJ, MinimizeSourceDeletions, DeleteOptions{Greedy: true}); err == nil {
		t.Error("missing target through greedy route must error")
	}
	if _, err := Annotate(qPJ, dbPJ, missingPJ, "A"); err == nil {
		t.Error("missing target through annotate route must error")
	}
	// Invalid query.
	if _, err := Delete(algebra.R("Ghost"), db, missing, MinimizeViewSideEffects, DeleteOptions{}); err == nil {
		t.Error("invalid query must error")
	}
}

// The keyed fast path: a foreign-key join through the router reports the
// §2.1.1 algorithm.
func TestDeleteRoutesKeyJoin(t *testing.T) {
	db := relation.NewDatabase()
	emp := relation.New("Emp", relation.NewSchema("emp", "dept"))
	emp.InsertStrings("ann", "d1")
	emp.InsertStrings("bob", "d1")
	db.MustAdd(emp)
	dept := relation.New("Dept", relation.NewSchema("dept", "mgr"))
	dept.InsertStrings("d1", "mia")
	db.MustAdd(dept)
	q := algebra.Pi([]relation.Attribute{"emp", "mgr"},
		algebra.NatJoin(algebra.R("Emp"), algebra.R("Dept")))
	rep, err := Delete(q, db, relation.StringTuple("ann", "mia"), MinimizeViewSideEffects, DeleteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Algorithm, "key join") {
		t.Errorf("algorithm %q, want the §2.1.1 fast path", rep.Algorithm)
	}
	if !rep.Exact || !rep.Result.SideEffectFree() {
		t.Errorf("keyed deletion should be exact and free here: %+v", rep.Result)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable(algebra.ProblemViewSideEffect)
	if !strings.Contains(out, "NP-hard") || !strings.Contains(out, "SPU") {
		t.Errorf("FormatTable output incomplete:\n%s", out)
	}
}

func TestObjectiveString(t *testing.T) {
	if MinimizeViewSideEffects.String() == MinimizeSourceDeletions.String() {
		t.Error("objective names must differ")
	}
}

func TestWorkloadGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db, q := workload.Curation(r, 10, 2)
	view, err := algebra.Eval(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() == 0 {
		t.Error("curation view empty")
	}
	if _, ok := workload.PickViewTuple(r, q, db); !ok {
		t.Error("PickViewTuple failed")
	}
	// Unknown relation: PickViewTuple reports not-ok.
	if _, ok := workload.PickViewTuple(r, algebra.R("Ghost"), db); ok {
		t.Error("PickViewTuple should fail on invalid query")
	}
	var _ relation.Tuple // keep import
}
