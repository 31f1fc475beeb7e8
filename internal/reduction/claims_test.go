package reduction

// claims_test pins sentences of the paper's proofs to executable checks,
// beyond the headline theorem equivalences.

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/deletion"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/setcover"
)

// Theorem 2.1's proof: "The project join query ... produces (i) the tuple
// (a, c), (ii) a tuple (ai, c) for each [positive] clause Ci, and (iii) a
// tuple (a, cj) for each [negative] clause Cj." (The full view also holds
// mixed pairs, as Figure 1 shows; (i)-(iii) must be present.)
func TestTheorem21ViewInventory(t *testing.T) {
	in := Figure1()
	view := algebra.MustEval(in.Query, in.DB)
	if !view.Contains(relation.StringTuple("a", "c")) {
		t.Error("(i): (a, c) missing")
	}
	// Clause 2 is the positive one → (a2, c).
	if !view.Contains(relation.StringTuple("a2", "c")) {
		t.Error("(ii): (a2, c) missing")
	}
	// Clauses 1, 3 negative → (a, c1), (a, c3).
	for _, cj := range []string{"c1", "c3"} {
		if !view.Contains(relation.StringTuple("a", cj)) {
			t.Errorf("(iii): (a, %s) missing", cj)
		}
	}
}

// Theorem 2.1's proof: "in order to [delete (a,c)], for each variable xi,
// we must delete either (a, xi) or (xi, c)". Verified: any deletion that
// removes the target touches one of the two per variable.
func TestTheorem21VariableTouching(t *testing.T) {
	in := Figure1()
	res, err := deletion.ViewExactGroupBasis(basisOf(t, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	touched := make(map[int]bool)
	for _, st := range res.T {
		switch st.Rel {
		case "R1":
			if st.Tuple[0] == relation.String("a") {
				if v, ok := parseVar(st.Tuple[1]); ok {
					touched[v] = true
				}
			}
		case "R2":
			if st.Tuple[1] == relation.String("c") {
				if v, ok := parseVar(st.Tuple[0]); ok {
					touched[v] = true
				}
			}
		}
	}
	for v := 1; v <= in.Formula.NumVars; v++ {
		if !touched[v] {
			t.Errorf("variable x%d untouched by %v — target cannot be gone", v, res.T)
		}
	}
}

// Theorem 2.2's proof: "The output of these queries consists of m+1
// tuples" — for Figure 2, m=3 clauses plus (T,F) gives 4.
func TestTheorem22OutputCount(t *testing.T) {
	in := Figure2()
	view := algebra.MustEval(in.Query, in.DB)
	if view.Len() != len(in.Formula.Clauses)+1 {
		t.Errorf("view=%d want m+1=%d", view.Len(), len(in.Formula.Clauses)+1)
	}
}

// Theorem 2.2's proof: "we must delete either the tuple T from relation
// Ri or tuple F from relation R'i" for every variable.
func TestTheorem22VariableTouching(t *testing.T) {
	in := Figure2()
	res, err := deletion.ViewExactGroupBasis(basisOf(t, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	touched := make(map[string]bool)
	for _, st := range res.T {
		touched[st.Rel] = true
	}
	for v := 1; v <= in.Formula.NumVars; v++ {
		if !touched[fmtRel("R", v)] && !touched[fmtRel("Rp", v)] {
			t.Errorf("variable %d: neither R%d nor R'%d touched", v, v, v)
		}
	}
}

func fmtRel(prefix string, v int) string {
	return prefix + string(rune('0'+v))
}

// Theorem 2.5's proof: "each set Si will generate n^(n-|Si|) tuples in the
// intermediate expression" — checked via the instrumented evaluator on a
// one-set instance where the join node's output is exactly n^(n-|S1|).
func TestTheorem25IntermediateCount(t *testing.T) {
	// Universe {x1,x2,x3}, single set {x1}: n=3, |S1|=1 → 3^2 = 9.
	in, err := EncodeSourcePJ(setcover.MustInstance(3, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := algebra.EvalWithStats(in.Query, in.DB)
	if err != nil {
		t.Fatal(err)
	}
	// The last join before projection holds the full intermediate result.
	if got := stats.MaxIntermediate(); got != 9 {
		t.Errorf("intermediate=%d want n^(n-|S|)=9", got)
	}
}

// §3.1: "in the annotation placement problem, the optimal solution is
// always a single location in the view" — Place returns one source
// location and its side-effect count is minimal among all candidates
// (checked by brute force in placement_test; here we pin the single-ness).
func TestPlacementSingleLocation(t *testing.T) {
	f := sat.New(4, sat.Clause{1, 2, 3}, sat.Clause{-1, 2, 4})
	in, err := EncodeAnnPJ(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := annotation.Place(in.Query, in.DB, in.TargetTuple, in.TargetAttr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source.Rel == "" || len(p.Source.Tuple) == 0 {
		t.Error("placement must be a single concrete source location")
	}
}

// Theorem 3.2's proof: "There are two possible solutions — annotate either
// one of the assignment tuples in R1 or annotate the dummy tuple."
func TestTheorem32CandidateInventory(t *testing.T) {
	f := sat.New(4, sat.Clause{1, 2, 3}, sat.Clause{-1, 2, 4})
	in, err := EncodeAnnPJ(f)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := annotation.ComputeWhere(in.Query, in.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range wv.WhereOf(in.TargetTuple, in.TargetAttr) {
		if src.Rel != "R1" || src.Attr != "C1" {
			t.Errorf("candidate outside R1.C1: %v", src)
		}
	}
}
