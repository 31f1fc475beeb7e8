package deletion

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/relation"
)

func TestResultString(t *testing.T) {
	r := &Result{
		T:           []relation.SourceTuple{{Rel: "R", Tuple: relation.StringTuple("a")}},
		SideEffects: []relation.Tuple{relation.StringTuple("x")},
	}
	if r.SideEffectFree() {
		t.Error("result with effects is not free")
	}
	if r.String() == "" {
		t.Error("empty rendering")
	}
	if !(&Result{}).SideEffectFree() {
		t.Error("empty result is free")
	}
}

// Property: side-effects computed from the witness basis equal those from
// direct re-evaluation, for random deletions on random PJ instances. This
// ties the two side-effect oracles together — the exact solvers rely on
// the basis version being truthful.
func TestBasisSideEffectsMatchEvaluationQuick(t *testing.T) {
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
		for i := 0; i < 2+r.Intn(4); i++ {
			r1.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
			r2.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
		}
		db.MustAdd(r1)
		db.MustAdd(r2)
		res, err := provenance.Compute(q, db)
		if err != nil {
			return false
		}
		if res.View.Len() == 0 {
			return true
		}
		target := res.View.Tuples()[r.Intn(res.View.Len())]
		// Random deletion set.
		var T []relation.SourceTuple
		for _, st := range db.AllSourceTuples() {
			if r.Intn(2) == 0 {
				T = append(T, st)
			}
		}
		fromBasis := deadRows(res, keySet(T), map[string]bool{target.Key(): true})
		fromEval, _, err := SideEffectsOf(q, db, T, target)
		if err != nil {
			return false
		}
		if len(fromBasis) != len(fromEval) {
			t.Logf("basis=%v eval=%v (T=%v target=%v)", fromBasis, fromEval, T, target)
			return false
		}
		evalSet := make(map[string]bool, len(fromEval))
		for _, tu := range fromEval {
			evalSet[tu.Key()] = true
		}
		for _, tu := range fromBasis {
			if !evalSet[tu.Key()] {
				t.Logf("basis effect %v missing from eval", tu)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestEnumerateMinimalHittingSetsExhaustive(t *testing.T) {
	// Witnesses {a,b}, {b,c}: minimal hitting sets are {b}, {a,c}.
	ws := []provenance.Witness{
		provenance.NewWitness(st("R", "a"), st("R", "b")),
		provenance.NewWitness(st("R", "b"), st("R", "c")),
	}
	var got [][]relation.SourceTuple
	enumerateMinimalHittingSets(ws, func(hs []relation.SourceTuple) bool {
		cp := append([]relation.SourceTuple(nil), hs...)
		got = append(got, cp)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("enumerated %d minimal hitting sets, want 2: %v", len(got), got)
	}
	sizes := map[int]int{}
	for _, hs := range got {
		sizes[len(hs)]++
	}
	if sizes[1] != 1 || sizes[2] != 1 {
		t.Errorf("expected one singleton and one pair: %v", got)
	}
}

func TestEnumerateMinimalHittingSetsEarlyStop(t *testing.T) {
	ws := []provenance.Witness{
		provenance.NewWitness(st("R", "a"), st("R", "b"), st("R", "c")),
	}
	count := 0
	completed := enumerateMinimalHittingSets(ws, func([]relation.SourceTuple) bool {
		count++
		return count < 2 // stop after the second candidate
	})
	if completed {
		t.Error("early stop must report incomplete enumeration")
	}
	if count != 2 {
		t.Errorf("visited %d candidates, want 2", count)
	}
}

// basisOf builds the witness basis of q over db, the solvers' input.
func basisOf(t *testing.T, q algebra.Query, db *relation.Database) *provenance.Result {
	t.Helper()
	res, err := provenance.Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func st(rel string, vals ...string) relation.SourceTuple {
	return relation.SourceTuple{Rel: rel, Tuple: relation.StringTuple(vals...)}
}
