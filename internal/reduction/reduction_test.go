package reduction

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/deletion"
	"repro/internal/provenance"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/setcover"
)

// basisOf builds the witness basis of q over db, the deletion solvers'
// input.
func basisOf(t *testing.T, q algebra.Query, db *relation.Database) *provenance.Result {
	t.Helper()
	res, err := provenance.Compute(q, db)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// --- Figure 1 / Theorem 2.1 ---

// TestFigure1Contents checks the encoded relations against Figure 1 of the
// paper, row for row.
func TestFigure1Contents(t *testing.T) {
	in := Figure1()
	r1 := in.DB.Relation("R1")
	wantR1 := [][2]string{
		{"a", "x1"}, {"a", "x2"}, {"a", "x3"}, {"a", "x4"}, {"a", "x5"},
		{"a2", "x2"}, {"a2", "x4"}, {"a2", "x5"},
	}
	if r1.Len() != len(wantR1) {
		t.Fatalf("R1 has %d rows, want %d:\n%s", r1.Len(), len(wantR1), r1.Table())
	}
	for _, w := range wantR1 {
		if !r1.Contains(relation.StringTuple(w[0], w[1])) {
			t.Errorf("R1 missing (%s, %s)", w[0], w[1])
		}
	}
	r2 := in.DB.Relation("R2")
	wantR2 := [][2]string{
		{"x1", "c"}, {"x2", "c"}, {"x3", "c"}, {"x4", "c"}, {"x5", "c"},
		{"x1", "c1"}, {"x2", "c1"}, {"x3", "c1"},
		{"x4", "c3"}, {"x1", "c3"}, {"x3", "c3"},
	}
	if r2.Len() != len(wantR2) {
		t.Fatalf("R2 has %d rows, want %d:\n%s", r2.Len(), len(wantR2), r2.Table())
	}
	for _, w := range wantR2 {
		if !r2.Contains(relation.StringTuple(w[0], w[1])) {
			t.Errorf("R2 missing (%s, %s)", w[0], w[1])
		}
	}
	// View per Figure 1: (a,c), (a,c1), (a,c3), (a2,c), (a2,c1), (a2,c3).
	view := algebra.MustEval(in.Query, in.DB)
	wantView := [][2]string{
		{"a", "c"}, {"a", "c1"}, {"a", "c3"},
		{"a2", "c"}, {"a2", "c1"}, {"a2", "c3"},
	}
	if view.Len() != len(wantView) {
		t.Fatalf("view has %d rows, want %d: %v", view.Len(), len(wantView), view)
	}
	for _, w := range wantView {
		if !view.Contains(relation.StringTuple(w[0], w[1])) {
			t.Errorf("view missing (%s, %s)", w[0], w[1])
		}
	}
}

func TestViewPJSatisfiableDirection(t *testing.T) {
	in := Figure1()
	a, ok := sat.Solve(in.Formula)
	if !ok {
		t.Fatal("paper formula is satisfiable")
	}
	T := in.EncodeAssignment(a)
	effects, gone, err := deletion.SideEffectsOf(in.Query, in.DB, T, in.Target)
	if err != nil {
		t.Fatal(err)
	}
	if !gone {
		t.Error("encoded assignment must delete (a,c)")
	}
	if len(effects) != 0 {
		t.Errorf("encoded satisfying assignment must be side-effect-free, got %v", effects)
	}
}

func TestViewPJRejectsNonMonotone(t *testing.T) {
	if _, err := EncodeViewPJ(sat.New(3, sat.Clause{1, -2, 3})); err == nil {
		t.Error("mixed clause must be rejected")
	}
}

// Property (Theorem 2.1 both directions): a side-effect-free deletion
// exists iff the formula is satisfiable, checked with the exact solver
// against DPLL on random monotone instances.
func TestViewPJEquivalenceQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := sat.RandomMonotone3SAT(r, 3+r.Intn(3), 2+r.Intn(4))
		in, err := EncodeViewPJ(f)
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := deletion.ViewExactGroupBasis(basisOf(t, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{})
		if err != nil {
			t.Log(err)
			return false
		}
		free := res.SideEffectFree()
		want := sat.Satisfiable(f)
		if free != want {
			t.Logf("side-effect-free=%v satisfiable=%v for %v", free, want, f)
			return false
		}
		if free {
			// Decoding the found deletion must yield a satisfying
			// assignment (after the proof's normalization).
			a := in.DecodeDeletion(res.T)
			if !a.Satisfies(f) {
				t.Logf("decoded assignment %v does not satisfy %v (T=%v)", a, f, res.T)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// --- Figure 2 / Theorem 2.2 ---

func TestFigure2Contents(t *testing.T) {
	in := Figure2()
	// 2(m+n) = 2(3+5) = 16 relations.
	if got := len(in.DB.Names()); got != 16 {
		t.Fatalf("database has %d relations, want 16", got)
	}
	view := algebra.MustEval(in.Query, in.DB)
	want := [][2]string{{"c1", "F"}, {"T", "c2"}, {"c3", "F"}, {"T", "F"}}
	if view.Len() != len(want) {
		t.Fatalf("view has %d rows, want %d: %v", view.Len(), len(want), view)
	}
	for _, w := range want {
		if !view.Contains(relation.StringTuple(w[0], w[1])) {
			t.Errorf("view missing (%s, %s)", w[0], w[1])
		}
	}
}

func TestViewJUSatisfiableDirection(t *testing.T) {
	in := Figure2()
	a, ok := sat.Solve(in.Formula)
	if !ok {
		t.Fatal("satisfiable")
	}
	T := in.EncodeAssignment(a)
	effects, gone, err := deletion.SideEffectsOf(in.Query, in.DB, T, in.Target)
	if err != nil {
		t.Fatal(err)
	}
	if !gone || len(effects) != 0 {
		t.Errorf("assignment deletion: gone=%v effects=%v", gone, effects)
	}
}

func TestViewJUEquivalenceQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := sat.RandomMonotone3SAT(r, 3+r.Intn(3), 2+r.Intn(4))
		in, err := EncodeViewJU(f)
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := deletion.ViewExactGroupBasis(basisOf(t, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{})
		if err != nil {
			t.Log(err)
			return false
		}
		free := res.SideEffectFree()
		want := sat.Satisfiable(f)
		if free != want {
			t.Logf("side-effect-free=%v satisfiable=%v for %v", free, want, f)
			return false
		}
		if free {
			a := in.DecodeDeletion(res.T)
			if !a.Satisfies(f) {
				t.Logf("decoded %v does not satisfy %v (T=%v)", a, f, res.T)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// --- Figure 3 / Theorem 2.5 ---

func TestFigure3Contents(t *testing.T) {
	in := Figure3()
	r0 := in.DB.Relation("R0")
	if r0 == nil || r0.Len() != 2 {
		t.Fatalf("R0 wrong: %v", r0)
	}
	// S1 = {x1, x3}: characteristic row (s1, x1, d, x3).
	if !r0.Contains(relation.StringTuple("s1", "x1", "d", "x3")) {
		t.Errorf("R0 missing characteristic vector of S1:\n%s", r0.Table())
	}
	if !r0.Contains(relation.StringTuple("s2", "d", "x2", "x3")) {
		t.Errorf("R0 missing characteristic vector of S2:\n%s", r0.Table())
	}
	// Each Ri has n+1 = 4 rows.
	for i := 1; i <= 3; i++ {
		ri := in.DB.Relation("R" + string(rune('0'+i)))
		if ri.Len() != 4 {
			t.Errorf("R%d has %d rows, want 4", i, ri.Len())
		}
	}
	// The view is exactly {(c)}.
	view := algebra.MustEval(in.Query, in.DB)
	if view.Len() != 1 || !view.Contains(relation.StringTuple("c")) {
		t.Errorf("view=%v want {(c)}", view)
	}
}

func TestSourcePJHittingSetDirection(t *testing.T) {
	in := Figure3()
	// {x3} hits both sets.
	T := in.EncodeHittingSet([]int{2})
	_, gone, err := deletion.SideEffectsOf(in.Query, in.DB, T, in.Target)
	if err != nil {
		t.Fatal(err)
	}
	if !gone {
		t.Error("hitting set deletion must remove (c)")
	}
}

// Theorem 2.5 equivalence: min source deletion == min hitting set, on
// random small set systems.
func TestSourcePJEquivalenceQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(2) // keep tiny: the join is n^Θ(n)
		m := 1 + r.Intn(3)
		sets := make([][]int, m)
		for i := range sets {
			sets[i] = []int{r.Intn(n)}
			for e := 0; e < n; e++ {
				if r.Intn(2) == 0 {
					sets[i] = append(sets[i], e)
				}
			}
		}
		sys := setcover.MustInstance(n, sets...)
		in, err := EncodeSourcePJ(sys)
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := deletion.SourceExactGroupBasis(basisOf(t, in.Query, in.DB), []relation.Tuple{in.Target})
		if err != nil {
			t.Log(err)
			return false
		}
		hs, err := setcover.ExactHittingSet(sys)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(res.T) != len(hs) {
			t.Logf("min deletion %d != min hitting set %d (n=%d sets=%v)", len(res.T), len(hs), n, sets)
			return false
		}
		// Decoded deletion must be a hitting set of the same size or less.
		decoded := in.DecodeDeletion(res.T)
		if !sys.IsHittingSet(decoded) {
			t.Logf("decoded %v is not a hitting set of %v", decoded, sets)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// --- Theorem 2.7 ---

func TestSourceJUEncode(t *testing.T) {
	sys := setcover.MustInstance(3, []int{0, 1}, []int{1, 2})
	in, err := EncodeSourceJU(sys)
	if err != nil {
		t.Fatal(err)
	}
	view := algebra.MustEval(in.Query, in.DB)
	if view.Len() != 1 || !view.Contains(in.Target) {
		t.Fatalf("view=%v want single all-a tuple", view)
	}
	// Element x2 (index 1) hits both sets: deleting R2's tuple kills it.
	T := in.EncodeHittingSet([]int{1})
	_, gone, err := deletion.SideEffectsOf(in.Query, in.DB, T, in.Target)
	if err != nil || !gone {
		t.Errorf("hitting set deletion failed: gone=%v err=%v", gone, err)
	}
	if got := in.DecodeDeletion(T); len(got) != 1 || got[0] != 1 {
		t.Errorf("decode=%v", got)
	}
}

func TestSourceJUPadsUnequalSets(t *testing.T) {
	sys := setcover.MustInstance(3, []int{0}, []int{0, 1, 2})
	in, err := EncodeSourceJU(sys)
	if err != nil {
		t.Fatal(err)
	}
	if in.K != 3 {
		t.Errorf("K=%d want 3", in.K)
	}
	// Padding added 2 fresh relations.
	if got := len(in.DB.Names()); got != 5 {
		t.Errorf("relations=%d want 5 (3 + 2 pads)", got)
	}
}

func TestSourceJUEquivalenceQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		m := 1 + r.Intn(4)
		sets := make([][]int, m)
		for i := range sets {
			sets[i] = []int{r.Intn(n)}
			for e := 0; e < n; e++ {
				if r.Intn(3) == 0 {
					sets[i] = append(sets[i], e)
				}
			}
		}
		sys := setcover.MustInstance(n, sets...)
		in, err := EncodeSourceJU(sys)
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := deletion.SourceExactGroupBasis(basisOf(t, in.Query, in.DB), []relation.Tuple{in.Target})
		if err != nil {
			t.Log(err)
			return false
		}
		if err := in.VerifyAgainstHittingSet(len(res.T)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// --- Theorem 3.2 ---

func TestAnnPJBasic(t *testing.T) {
	// (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ x2 ∨ x4): connected, satisfiable.
	f := sat.New(4, sat.Clause{1, 2, 3}, sat.Clause{-1, 2, 4})
	in, err := EncodeAnnPJ(f)
	if err != nil {
		t.Fatal(err)
	}
	view := algebra.MustEval(in.Query, in.DB)
	if view.Len() != 2 {
		t.Fatalf("view has %d tuples, want 2: %v", view.Len(), view)
	}
	if !view.Contains(in.TargetTuple) || !view.Contains(in.OtherTuple) {
		t.Fatalf("view %v missing expected tuples", view)
	}
	// Satisfiable: the assignment row's annotation is side-effect-free.
	a, ok := sat.Solve(f)
	if !ok {
		t.Fatal("satisfiable")
	}
	loc := in.AssignmentLocation(a)
	got, err := annotation.ForwardPropagate(in.Query, in.DB, loc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("assignment-row annotation reaches %d locations, want 1: %v", got.Len(), got.Sorted())
	}
	// The dummy row annotates both output tuples.
	dummy := relation.Loc("R1", relation.StringTuple("c1", "d", "d", "d"), "C1")
	got, err = annotation.ForwardPropagate(in.Query, in.DB, dummy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("dummy annotation reaches %d locations, want 2", got.Len())
	}
}

func TestAnnPJRejectsDisconnected(t *testing.T) {
	f := sat.New(6, sat.Clause{1, 2, 3}, sat.Clause{4, 5, 6})
	if _, err := EncodeAnnPJ(f); err == nil {
		t.Error("disconnected formula must be rejected")
	}
}

// Theorem 3.2 equivalence: a side-effect-free annotation of the target
// exists iff the formula is satisfiable.
func TestAnnPJEquivalenceQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := sat.RandomConnected3SAT(r, 3+r.Intn(3), 1+r.Intn(3))
		in, err := EncodeAnnPJ(f)
		if err != nil {
			t.Log(err)
			return false
		}
		p, err := annotation.Place(in.Query, in.DB, in.TargetTuple, in.TargetAttr)
		if err != nil {
			t.Log(err)
			return false
		}
		want := sat.Satisfiable(f)
		if p.SideEffectFree() != want {
			t.Logf("side-effect-free=%v satisfiable=%v for %v", p.SideEffectFree(), want, f)
			return false
		}
		if p.SideEffectFree() {
			// Decoding the chosen location must give a satisfying partial
			// assignment extendable to a full one — at minimum it must be
			// an assignment row, not the dummy.
			if _, ok := in.DecodeLocation(p.Source); !ok {
				t.Logf("side-effect-free placement chose the dummy row: %v", p.Source)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Corollary 3.1 sanity: witness membership for the Theorem 3.2 instance is
// the satisfiability question in disguise — an R1 assignment row is part
// of a witness of the target iff it extends to a satisfying assignment.
func TestCorollary31(t *testing.T) {
	f := sat.New(3, sat.Clause{1, 2, 3}, sat.Clause{-1, -2, 3})
	in, err := EncodeAnnPJ(f)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := annotation.ComputeWhere(in.Query, in.DB)
	if err != nil {
		t.Fatal(err)
	}
	srcs := wv.WhereOf(in.TargetTuple, "C1")
	// x3=true satisfies both clauses: rows with x3=T (position depends on
	// clause 1's variable order x1,x2,x3) must appear among the sources.
	foundAssignmentRow := false
	for _, s := range srcs {
		if _, ok := in.DecodeLocation(s); ok {
			foundAssignmentRow = true
			break
		}
	}
	if !foundAssignmentRow {
		t.Error("satisfiable formula: some assignment row must reach the target")
	}
}
