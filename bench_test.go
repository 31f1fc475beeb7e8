// Benchmark harness regenerating the paper's evaluation artifacts (the
// README's "Paper map" section maps each table, theorem and figure to its
// code, tests and benchmarks):
//
//	Table 1 (§2.1, view side-effect):   BenchmarkTable1_*
//	Table 2 (§2.2, source side-effect): BenchmarkTable2_*
//	Table 3 (§3.1, annotation):         BenchmarkTable3_*
//	Figure 1/2/3 (reductions):          BenchmarkFigure*_Reduction
//	Theorem 2.6 (chain joins):          BenchmarkChainJoin_*
//	Theorem 3.1 (normal form):          BenchmarkNormalForm
//	Cui–Widom baseline:                 BenchmarkBaseline_CuiWidom
//	Ablations:                          BenchmarkAblation_*
//
// The paper has no wall-clock numbers; the claims are complexity shapes.
// The P-row benches scale the data (ns/op should grow polynomially); the
// NP-hard-row benches scale the instance (vars/sets) and blow up; the
// approximation benches report cost ratios via ReportMetric.
package propview_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/setcover"
	"repro/internal/workload"
)

// basisOf builds the witness basis of q over db: the input of every
// deletion solver but the chain min cut, so the one-shot benches below
// build it inside the timed loop.
func basisOf(tb testing.TB, q algebra.Query, db *relation.Database) *provenance.Result {
	tb.Helper()
	res, err := provenance.Compute(q, db)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// --- Table 1: view side-effect problem ---

// P row: SPU queries, scaling data size. Expect polynomial growth.
func BenchmarkTable1_SPU_Poly(b *testing.B) {
	for _, rows := range []int{100, 400, 1600} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			db, q := workload.SPU(r, 3, rows, rows/4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Fatal("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.PolyBasis(basisOf(b, q, db), target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// P row: SJ queries, scaling data size.
func BenchmarkTable1_SJ_Poly(b *testing.B) {
	for _, rows := range []int{100, 400, 1600} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(2))
			db, q := workload.SJ(r, rows, rows/4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Fatal("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.PolyBasis(basisOf(b, q, db), target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// NP-hard row: PJ side-effect-free decision on monotone-3SAT-derived
// instances (Theorem 2.1). Growth in vars is the hardness signature.
func BenchmarkTable1_PJ_Exact(b *testing.B) {
	for _, vars := range []int{4, 6, 8, 10, 12} {
		b.Run("vars="+strconv.Itoa(vars), func(b *testing.B) {
			// Average over several instances (satisfiable ones short-
			// circuit; unsatisfiable ones force the full search).
			r := rand.New(rand.NewSource(3))
			var ins []*reduction.ViewPJInstance
			for k := 0; k < 5; k++ {
				f := sat.RandomMonotone3SAT(r, vars, 2*vars)
				in, err := reduction.EncodeViewPJ(f)
				if err != nil {
					b.Fatal(err)
				}
				ins = append(ins, in)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := ins[i%len(ins)]
				if _, err := deletion.ViewExactGroupBasis(basisOf(b, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// NP-hard row: JU side-effect-free decision (Theorem 2.2).
func BenchmarkTable1_JU_Exact(b *testing.B) {
	for _, vars := range []int{4, 6, 8, 10, 12} {
		b.Run("vars="+strconv.Itoa(vars), func(b *testing.B) {
			r := rand.New(rand.NewSource(4))
			var ins []*reduction.ViewJUInstance
			for k := 0; k < 5; k++ {
				f := sat.RandomMonotone3SAT(r, vars, 2*vars)
				in, err := reduction.EncodeViewJU(f)
				if err != nil {
					b.Fatal(err)
				}
				ins = append(ins, in)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := ins[i%len(ins)]
				if _, err := deletion.ViewExactGroupBasis(basisOf(b, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: source side-effect problem ---

func BenchmarkTable2_SPU_Poly(b *testing.B) {
	for _, rows := range []int{100, 400, 1600} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(5))
			db, q := workload.SPU(r, 3, rows, rows/4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Fatal("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.PolyBasis(basisOf(b, q, db), target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2_SJ_Poly(b *testing.B) {
	for _, rows := range []int{100, 400, 1600} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(6))
			db, q := workload.SJ(r, rows, rows/4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Fatal("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.PolyBasis(basisOf(b, q, db), target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// NP-hard row: exact minimum source deletion on random PJ data. The
// reported "deletions" metric is the optimum size.
func BenchmarkTable2_PJ_Exact(b *testing.B) {
	for _, rows := range []int{10, 20, 40} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(7))
			db, q := workload.TwoRelationPJ(r, rows, 4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Fatal("empty view")
			}
			var dels int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := deletion.SourceExactGroupBasis(basisOf(b, q, db), []relation.Tuple{target})
				if err != nil {
					b.Fatal(err)
				}
				dels = len(res.T)
			}
			b.ReportMetric(float64(dels), "deletions")
		})
	}
}

// Approximation quality: greedy vs exact cost ratio stays ≤ H(n)
// (Theorems 2.5/2.7 say no poly algorithm beats Θ(log n)).
func BenchmarkTable2_GreedyVsExact(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	// Hitting-set-derived JU instances (Theorem 2.7's family).
	sets := make([][]int, 6)
	n := 8
	for i := range sets {
		sets[i] = []int{r.Intn(n)}
		for e := 0; e < n; e++ {
			if r.Intn(3) == 0 {
				sets[i] = append(sets[i], e)
			}
		}
	}
	sys := setcover.MustInstance(n, sets...)
	in, err := reduction.EncodeSourceJU(sys)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact, err := deletion.SourceExactGroupBasis(basisOf(b, in.Query, in.DB), []relation.Tuple{in.Target})
		if err != nil {
			b.Fatal(err)
		}
		greedy, err := deletion.SourceGreedyGroupBasis(basisOf(b, in.Query, in.DB), []relation.Tuple{in.Target})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(len(greedy.T)) / float64(len(exact.T))
	}
	b.ReportMetric(ratio, "greedy/exact")
	b.ReportMetric(setcover.HarmonicBound(n), "H(n)-bound")
}

// --- Theorem 2.6: chain joins ---

func BenchmarkChainJoin_MinCut(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			r := rand.New(rand.NewSource(9))
			db, q := workload.Chain(r, k, 30, 4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Skip("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.SourceChainMinCut(q, db, target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: the generic exact solver on the same chain instances — the
// min-cut specialization should win and the gap widen with k.
func BenchmarkChainJoin_GenericExact(b *testing.B) {
	for _, k := range []int{2, 4} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			r := rand.New(rand.NewSource(9))
			db, q := workload.Chain(r, k, 10, 3)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Skip("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.SourceExactGroupBasis(basisOf(b, q, db), []relation.Tuple{target}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 3: annotation placement ---

func BenchmarkTable3_SPU_Poly(b *testing.B) {
	for _, rows := range []int{100, 400, 1600} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(10))
			db, q := workload.SPU(r, 3, rows, rows/4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Fatal("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := annotation.Place(q, db, target, "A")
				if err != nil {
					b.Fatal(err)
				}
				if !p.SideEffectFree() {
					b.Fatal("Theorem 3.3 violated")
				}
			}
		})
	}
}

func BenchmarkTable3_SJU_Poly(b *testing.B) {
	for _, rows := range []int{50, 200, 800} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(11))
			db, q := workload.SJU(r, rows, rows/4)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Skip("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := annotation.Place(q, db, target, "B"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// NP-hard row: PJ placement on 3SAT-derived instances (Theorem 3.2).
// Growth in clauses is the hardness signature (the join has one relation
// per clause).
func BenchmarkTable3_PJ_Exact(b *testing.B) {
	for _, clauses := range []int{2, 3, 4, 5, 6} {
		b.Run("clauses="+strconv.Itoa(clauses), func(b *testing.B) {
			r := rand.New(rand.NewSource(12))
			var ins []*reduction.AnnPJInstance
			for k := 0; k < 5; k++ {
				f := sat.RandomConnected3SAT(r, clauses+2, clauses)
				in, err := reduction.EncodeAnnPJ(f)
				if err != nil {
					b.Fatal(err)
				}
				ins = append(ins, in)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := ins[i%len(ins)]
				if _, err := annotation.Place(in.Query, in.DB, in.TargetTuple, in.TargetAttr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures 1-3: the reduction constructions themselves ---

func BenchmarkFigure1_Reduction(b *testing.B) {
	f := sat.PaperFormula()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := reduction.EncodeViewPJ(f)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := deletion.ViewExactGroupBasis(basisOf(b, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !dec.SideEffectFree() {
			b.Fatal("paper instance is satisfiable; deletion must be free")
		}
	}
}

func BenchmarkFigure2_Reduction(b *testing.B) {
	f := sat.PaperFormula()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := reduction.EncodeViewJU(f)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := deletion.ViewExactGroupBasis(basisOf(b, in.Query, in.DB), []relation.Tuple{in.Target}, deletion.ViewOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !dec.SideEffectFree() {
			b.Fatal("paper instance is satisfiable; deletion must be free")
		}
	}
}

func BenchmarkFigure3_Reduction(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run("universe="+strconv.Itoa(n), func(b *testing.B) {
			r := rand.New(rand.NewSource(13))
			sets := make([][]int, n)
			for i := range sets {
				sets[i] = []int{r.Intn(n)}
				for e := 0; e < n; e++ {
					if r.Intn(2) == 0 {
						sets[i] = append(sets[i], e)
					}
				}
			}
			sys := setcover.MustInstance(n, sets...)
			in, err := reduction.EncodeSourcePJ(sys)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := deletion.SourceExactGroupBasis(basisOf(b, in.Query, in.DB), []relation.Tuple{in.Target})
				if err != nil {
					b.Fatal(err)
				}
				hs, err := setcover.ExactHittingSet(sys)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.T) != len(hs) {
					b.Fatal("Theorem 2.5 equivalence violated")
				}
			}
		})
	}
}

// --- Theorem 3.1: normal form ---

func BenchmarkNormalForm(b *testing.B) {
	// A deep query mixing every operator.
	q := algebra.Sigma(algebra.Eq("A", "x"),
		algebra.Pi([]string{"A", "B"},
			algebra.NatJoin(
				algebra.Un(algebra.R("R"), algebra.R("T")),
				algebra.Un(algebra.R("S"), algebra.R("S2")))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := algebra.Normalize(q)
		if !algebra.IsNormalForm(n) {
			b.Fatal("not a fixpoint")
		}
	}
}

// --- Baseline: Cui–Widom lineage enumeration vs witness-based exact ---

func BenchmarkBaseline_CuiWidom(b *testing.B) {
	for _, rows := range []int{10, 20} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(14))
			db, q := workload.UserGroupFile(r, rows, rows/2, rows, 2, 2)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Skip("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.CuiWidom(q, db, target, deletion.CuiWidomOptions{MaxEvaluations: 100000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBaseline_ViewExactSameInstances(b *testing.B) {
	for _, rows := range []int{10, 20} {
		b.Run("rows="+strconv.Itoa(rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(14))
			db, q := workload.UserGroupFile(r, rows, rows/2, rows, 2, 2)
			target, ok := workload.PickViewTuple(r, q, db)
			if !ok {
				b.Skip("empty view")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deletion.ViewExactGroupBasis(basisOf(b, q, db), []relation.Tuple{target}, deletion.ViewOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations ---

// Witness basis via derivation tracking vs naive subset enumeration.
func BenchmarkAblation_WitnessBasis(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	db, q := workload.TwoRelationPJ(r, 12, 3)
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		b.Skip("empty view")
	}
	b.Run("derivation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := provenance.Compute(q, db)
			if err != nil {
				b.Fatal(err)
			}
			_ = res.Witnesses(target)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := provenance.WitnessesNaive(q, db, target); err != nil {
				b.Skip(err) // infeasible above 20 lineage tuples
			}
		}
	})
}

// Placement via one where-provenance pass vs per-candidate forward runs.
func BenchmarkAblation_PlacementPruning(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	db, q := workload.Curation(r, 30, 2)
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		b.Skip("empty view")
	}
	attr := "function"
	b.Run("single-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := annotation.Place(q, db, target, attr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wv, err := annotation.ComputeWhere(q, db)
			if err != nil {
				b.Fatal(err)
			}
			cands := wv.WhereOf(target, attr)
			best := -1
			for _, c := range cands {
				aff, err := annotation.ForwardPropagate(q, db, c) // re-evaluates every time
				if err != nil {
					b.Fatal(err)
				}
				if best < 0 || aff.Len() < best {
					best = aff.Len()
				}
			}
		}
	})
}

// Heuristic vs exact on the view side-effect problem: the heuristic is
// polynomial, the exact solver exponential; ReportMetric records the
// quality gap (extra side-effects) the speed buys.
func BenchmarkAblation_ViewHeuristic(b *testing.B) {
	r := rand.New(rand.NewSource(20))
	db, q := workload.TwoRelationPJ(r, 25, 4)
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		b.Skip("empty view")
	}
	exact, err := deletion.ViewExactGroupBasis(basisOf(b, q, db), []relation.Tuple{target}, deletion.ViewOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("heuristic", func(b *testing.B) {
		var extra int
		for i := 0; i < b.N; i++ {
			h, err := deletion.ViewHeuristicBasis(basisOf(b, q, db), target)
			if err != nil {
				b.Fatal(err)
			}
			extra = len(h.SideEffects) - len(exact.SideEffects)
		}
		b.ReportMetric(float64(extra), "extra-side-effects")
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := deletion.ViewExactGroupBasis(basisOf(b, q, db), []relation.Tuple{target}, deletion.ViewOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Batch placement: one where-provenance pass for every view cell vs. a
// Place call per cell.
func BenchmarkAblation_PlaceAll(b *testing.B) {
	r := rand.New(rand.NewSource(18))
	db, q := workload.Curation(r, 25, 2)
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := annotation.PlaceAll(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-cell", func(b *testing.B) {
		view, err := algebra.Eval(q, db)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range view.Tuples() {
				for _, a := range view.Schema().Attrs() {
					if _, err := annotation.Place(q, db, t, a); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// Group deletion vs a per-tuple loop on the same batch of targets.
func BenchmarkGroupDeletion(b *testing.B) {
	r := rand.New(rand.NewSource(19))
	db, q := workload.UserGroupFile(r, 15, 6, 12, 2, 2)
	view, err := algebra.Eval(q, db)
	if err != nil {
		b.Fatal(err)
	}
	if view.Len() < 4 {
		b.Skip("small view")
	}
	targets := view.Tuples()[:4]
	b.Run("group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := deletion.SourceExactGroupBasis(basisOf(b, q, db), targets); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-tuple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range targets {
				if _, err := deletion.SourceExactGroupBasis(basisOf(b, q, db), []relation.Tuple{t}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Join-order optimization: evaluation work with and without OptimizeJoins
// on a skew-sized chain presented in the worst order.
func BenchmarkAblation_JoinOrder(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	db, _ := workload.Chain(r, 4, 40, 4)
	// Worst order: R1 ⋈ R3 and R2 ⋈ R4 are cross products.
	bad := algebra.NatJoin(algebra.R("R1"), algebra.R("R3"), algebra.R("R2"), algebra.R("R4"))
	opt := algebra.OptimizeJoins(bad, db)
	b.Run("unoptimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Eval(bad, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Eval(opt, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Prepared-view engine vs one-shot solvers ---

// engineWorkload is the shared instance for the engine benchmarks: big
// enough that re-evaluating the view and rebuilding the witness basis per
// request dominates the one-shot path.
func engineWorkload() (*relation.Database, algebra.Query) {
	// View of ~1800 (user, file) pairs; source-minimal deletions kill ~7
	// view tuples each, so 100 sequential deletions stay well within it.
	r := rand.New(rand.NewSource(25))
	return workload.UserGroupFile(r, 120, 40, 100, 3, 3)
}

// BenchmarkEngine_RepeatedDelete pits the prepared engine — solve on the
// cached witness basis, maintain view and basis incrementally — against
// the one-shot router — re-evaluate and rebuild per request — on the same
// workload of 100 sequential deletions against the same view. Both paths
// delete the first remaining view tuple each round. The streams start
// identical but may diverge: both sides find minimum-cardinality source
// deletions, yet on ties the router's chain-min-cut and the engine's
// hitting-set solver can pick different sets, shifting later targets. The
// comparison is between the two serving paths end to end, not the same
// algorithm with and without caching.
func BenchmarkEngine_RepeatedDelete(b *testing.B) {
	const deletions = 100
	b.Run("prepared-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, q := engineWorkload()
			e := engine.New(db)
			if err := e.Prepare("v", q); err != nil {
				b.Fatal(err)
			}
			for d := 0; d < deletions; d++ {
				view, err := e.Query("v")
				if err != nil {
					b.Fatal(err)
				}
				if view.Len() == 0 {
					b.Fatal("view exhausted before 100 deletions")
				}
				if _, err := e.Delete("v", view.Tuple(0), core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, q := engineWorkload()
			for d := 0; d < deletions; d++ {
				view, err := algebra.Eval(q, db)
				if err != nil {
					b.Fatal(err)
				}
				if view.Len() == 0 {
					b.Fatal("view exhausted before 100 deletions")
				}
				rep, err := core.Delete(q, db, view.Tuple(0), core.MinimizeSourceDeletions, core.DeleteOptions{})
				if err != nil {
					b.Fatal(err)
				}
				db = db.DeleteAll(rep.Result.T)
			}
		}
	})
}

// BenchmarkEngine_RepeatedAnnotate compares serving annotation placements
// from the cached where-provenance index against one-shot Place calls that
// re-evaluate the query with location tracking per request.
func BenchmarkEngine_RepeatedAnnotate(b *testing.B) {
	const requests = 100
	db, q := engineWorkload()
	view, err := algebra.Eval(q, db)
	if err != nil {
		b.Fatal(err)
	}
	if view.Len() < requests {
		b.Fatalf("view too small: %d", view.Len())
	}
	attr := view.Schema().Attrs()[1]
	b.Run("prepared-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(db)
			if err := e.Prepare("v", q); err != nil {
				b.Fatal(err)
			}
			for d := 0; d < requests; d++ {
				if _, err := e.Annotate("v", view.Tuple(d), attr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("one-shot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for d := 0; d < requests; d++ {
				if _, err := annotation.Place(q, db, view.Tuple(d), attr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEngine_GroupDelete compares one batched DeleteGroup request
// against the same targets deleted one by one through the engine: the
// batch amortizes one basis pass and one maintenance sweep.
func BenchmarkEngine_GroupDelete(b *testing.B) {
	const batch = 8
	db, q := engineWorkload()
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(db)
			if err := e.Prepare("v", q); err != nil {
				b.Fatal(err)
			}
			view, _ := e.Query("v")
			targets := append([]relation.Tuple(nil), view.Tuples()[:batch]...)
			if _, err := e.DeleteGroup("v", targets, core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-tuple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := engine.New(db)
			if err := e.Prepare("v", q); err != nil {
				b.Fatal(err)
			}
			view, _ := e.Query("v")
			targets := append([]relation.Tuple(nil), view.Tuples()[:batch]...)
			for _, tg := range targets {
				cur, _ := e.Query("v")
				if !cur.Contains(tg) {
					continue // removed as a side-effect of an earlier delete
				}
				if _, err := e.Delete("v", tg, core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEngine_ParallelDelete{1,8,64}Views measures per-delete wall
// time on the write pipeline as the number of prepared views grows: four
// concurrent writers delete distinct tuples of the hot view while 0, 7 or
// 63 sibling views must also be maintained on every commit. Concurrent
// requests coalesce into shared group solves, so each commit's per-view
// maintenance is paid once per batch rather than once per request; the
// reported ns/delete grows with the view count by one maintenance pass
// per view per batch.
func benchmarkEngineParallelDelete(b *testing.B, nViews int) {
	db, q := engineWorkload()
	const writers = 4
	const perWriter = 8
	var totalDeletes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := engine.New(db, engine.Options{MaxBatchSize: 16})
		if err := e.Prepare("v", q); err != nil {
			b.Fatal(err)
		}
		for s := 1; s < nViews; s++ {
			sq := "project(user, group; UserGroup)"
			if s%2 == 1 {
				sq = "project(group, file; GroupFile)"
			}
			if err := e.PrepareText("sib"+strconv.Itoa(s), sq); err != nil {
				b.Fatal(err)
			}
		}
		view, err := e.Query("v")
		if err != nil {
			b.Fatal(err)
		}
		sorted := view.SortedTuples()
		need := writers * perWriter
		if len(sorted) < need {
			b.Fatalf("view too small: %d", len(sorted))
		}
		stride := len(sorted) / need
		targets := make([]relation.Tuple, need)
		for j := range targets {
			targets[j] = sorted[j*stride]
		}
		b.StartTimer()

		var ok atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < perWriter; j++ {
					tg := targets[w*perWriter+j]
					if _, err := e.Delete("v", tg, core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
						// A sibling writer's deletion may have removed the
						// target as a side-effect; anything else is a bug.
						if !errors.Is(err, deletion.ErrNotInView) {
							b.Error(err)
						}
						continue
					}
					ok.Add(1)
				}
			}(w)
		}
		wg.Wait()
		if ok.Load() == 0 {
			b.Fatal("no delete succeeded")
		}
		totalDeletes += ok.Load()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalDeletes), "ns/delete")
	b.ReportMetric(float64(nViews), "views")
}

func BenchmarkEngine_ParallelDelete1Views(b *testing.B)  { benchmarkEngineParallelDelete(b, 1) }
func BenchmarkEngine_ParallelDelete8Views(b *testing.B)  { benchmarkEngineParallelDelete(b, 8) }
func BenchmarkEngine_ParallelDelete64Views(b *testing.B) { benchmarkEngineParallelDelete(b, 64) }

// BenchmarkEngine_MixedInsertDelete measures the steady-state grow/shrink
// write loop the insertion path enables: each round deletes the first
// remaining view tuple and then restores exactly the deleted source tuples
// via Insert — so the view and basis are maintained incrementally in both
// directions (ApplyDeletion and ApplyInsertion delta passes) without ever
// recomputing from scratch, and the database returns to its original state
// every round.
func BenchmarkEngine_MixedInsertDelete(b *testing.B) {
	const rounds = 50
	db, q := engineWorkload()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := engine.New(db)
		if err := e.Prepare("v", q); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for d := 0; d < rounds; d++ {
			view, err := e.Query("v")
			if err != nil {
				b.Fatal(err)
			}
			if view.Len() == 0 {
				b.Fatal("view exhausted")
			}
			rep, err := e.Delete("v", view.Tuple(0), core.MinimizeSourceDeletions, core.DeleteOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Insert(rep.Result.T); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds*2), "ns/write")
}

// benchmarkCommitSourceSize measures the engine's end-to-end commit cost
// at a fixed write size while the total source grows: a small working
// relation serves a prepared view, and a ballast relation scales |S|.
// Each round is one delete commit (a view tuple propagated to one source
// deletion) plus one insert commit restoring it. With the versioned store
// a commit derives O(|Δ|) overlay versions and shares the ballast by
// pointer, so ns/commit stays flat as the ballast grows 100×; the old
// copy-the-world DeleteAll/InsertAll re-copied the ballast every commit,
// making the same number linear in |S|. Compare the _SourceSize1k and
// _SourceSize100k ns/commit (and, with -benchmem, allocs/op) figures:
// they should be within ~2× of each other.
func benchmarkCommitSourceSize(b *testing.B, ballast int) {
	const working = 64
	db := relation.NewDatabase()
	w := relation.New("W", relation.NewSchema("A", "B"))
	for i := 0; i < working; i++ {
		w.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i))
	}
	l := relation.New("L", relation.NewSchema("X", "Y"))
	for i := 0; i < ballast; i++ {
		l.InsertStrings("x"+strconv.Itoa(i), "y"+strconv.Itoa(i))
	}
	db.MustAdd(w)
	db.MustAdd(l)
	e := engine.New(db)
	if err := e.PrepareText("v", "W"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := e.Query("v")
		if err != nil {
			b.Fatal(err)
		}
		rep, err := e.Delete("v", view.Tuple(i%view.Len()), core.MinimizeSourceDeletions, core.DeleteOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Insert(rep.Result.T); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2), "ns/commit")
	b.ReportMetric(float64(working+ballast), "source-tuples")
}

func BenchmarkCommit_SourceSize1k(b *testing.B)   { benchmarkCommitSourceSize(b, 1_000) }
func BenchmarkCommit_SourceSize100k(b *testing.B) { benchmarkCommitSourceSize(b, 100_000) }

// bulkBenchSeed builds the 1M-tuple relation once per process; the
// benchmark freezes it per run (cheap next to the churn loop).
var bulkBenchSeed struct {
	once sync.Once
	db   *relation.Database
	all  []relation.SourceTuple
}

// BenchmarkCommit_Bulk measures raw commit throughput on a bulk write:
// each iteration deletes an 8,192-tuple batch from a 1M-tuple relation
// and re-inserts it — two Database-level commits whose overlay
// derivation, presence probes and folds run on the one frozen store.
// CI runs it at -cpu 1 and -cpu 2: the store has no parallel parts, so a
// second core should not change ns/commit, and a parallel store would
// have to beat these numbers.
func BenchmarkCommit_Bulk(b *testing.B) {
	const (
		tuples = 1_000_000
		batch  = 8192
	)
	s := &bulkBenchSeed
	s.once.Do(func() {
		s.db = relation.NewDatabase()
		r := relation.New("R", relation.NewSchema("A", "B"))
		for i := 0; i < tuples; i++ {
			r.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i%997))
		}
		s.db.MustAdd(r)
		s.all = s.db.AllSourceTuples()
	})
	db := s.db.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (tuples - batch)
		T := s.all[off : off+batch]
		next := db.DeleteAll(T)
		restored, err := next.InsertAll(T)
		if err != nil {
			b.Fatal(err)
		}
		db = restored
	}
	b.StopTimer()
	if db.Size() != tuples {
		b.Fatalf("store size drifted to %d", db.Size())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2), "ns/commit")
}

// benchmarkApplyInsertionTreeSize measures view-side maintenance cost at a
// fixed write size while the provenance tree grows: a PJ plan over R ⋈ S
// whose operator nodes hold ~3×rows tuples, written one tuple per round
// (insert a fresh R tuple, delta-maintain, then delete it again). With the
// node overlays a round derives O(|Δ|) generations — layered witness-map
// updates, persistent join-bucket probes, one tombstone/append overlay
// version of the view — so ns/write stays flat as the tree grows
// 100×; the old maintenance rebuilt every node's output relation with a
// full pass over its child per ApplyInsertion (and flushed a deferred
// deletion backlog with a full-tree rebuild), making the same number
// linear in tree size. Compare the _TreeSize1k and _TreeSize100k ns/write
// (and, with -benchmem, allocs/op) figures: they should be within ~2× of
// each other, the same criterion BenchmarkCommit_* pinned for the source
// store in the previous round.
func benchmarkApplyInsertionTreeSize(b *testing.B, rows int) {
	const fanout = 16
	db := relation.NewDatabase()
	r1 := relation.New("R", relation.NewSchema("A", "B"))
	for i := 0; i < rows; i++ {
		r1.InsertStrings("a"+strconv.Itoa(i), "b"+strconv.Itoa(i%fanout))
	}
	r2 := relation.New("S", relation.NewSchema("B", "C"))
	for i := 0; i < fanout; i++ {
		r2.InsertStrings("b"+strconv.Itoa(i), "c"+strconv.Itoa(i))
	}
	db.MustAdd(r1)
	db.MustAdd(r2)
	q := algebra.Pi([]string{"A", "C"}, algebra.NatJoin(algebra.R("R"), algebra.R("S")))
	res, err := provenance.Compute(q, db)
	if err != nil {
		b.Fatal(err)
	}
	treeSize := res.TreeStats().NodeTuples
	cur := db
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := relation.SourceTuple{Rel: "R", Tuple: relation.StringTuple("z"+strconv.Itoa(i), "b"+strconv.Itoa(i%fanout))}
		I := []relation.SourceTuple{st}
		newDB, err := cur.InsertAll(I)
		if err != nil {
			b.Fatal(err)
		}
		if res, err = res.ApplyInsertion(I); err != nil {
			b.Fatal(err)
		}
		res = res.ApplyDeletion(I)
		cur = newDB.DeleteAll(I)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2), "ns/write")
	b.ReportMetric(float64(treeSize), "tree-tuples")
}

func BenchmarkApplyInsertion_TreeSize1k(b *testing.B)   { benchmarkApplyInsertionTreeSize(b, 1_000) }
func BenchmarkApplyInsertion_TreeSize100k(b *testing.B) { benchmarkApplyInsertionTreeSize(b, 100_000) }

// benchmarkReadAfterWrite measures what a read costs once the view it
// reads has changed. Each round deletes one view tuple (one source tuple,
// on the Gene⋈Protein key join), restores it, and then reads the new
// generation with read(e, i, view, targets), targets being the 64 view
// tuples the rounds delete in turn. The whole round is timed, so b.N —
// and the run — stay bounded by the writes at the default -benchtime,
// where timing the read alone let b.N climb past 10^5 rounds of untimed
// writes. The read alone is reported as ns/op, B/op and allocs/op,
// overriding the round's figures; it is measured as the framework
// measures an op, by the clock and runtime.MemStats around each read.
// ms/round is the whole round. Round -1 is a first read, before the timer.
func benchmarkReadAfterWrite(b *testing.B, genes int, read func(e *engine.Engine, i int, view *relation.Relation, targets []relation.Tuple) error) {
	db, q := workload.Curation(rand.New(rand.NewSource(3)), genes, 1)
	e := engine.New(db)
	if err := e.Prepare("v", q); err != nil {
		b.Fatal(err)
	}
	view, err := e.Query("v")
	if err != nil {
		b.Fatal(err)
	}
	targets := view.SortedTuples()[:64]
	if err := read(e, -1, view, targets); err != nil {
		b.Fatal(err)
	}
	var readNs, readBytes, readAllocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Delete("v", targets[i%len(targets)], core.MinimizeSourceDeletions, core.DeleteOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Insert(rep.Result.T); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = read(e, i, view, targets)
		readNs += uint64(time.Since(start))
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		readBytes += after.TotalAlloc - before.TotalAlloc
		readAllocs += after.Mallocs - before.Mallocs
	}
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n/1e6, "ms/round")
	b.ReportMetric(float64(readNs)/n, "ns/op")
	b.ReportMetric(float64(readBytes)/n, "B/op")
	b.ReportMetric(float64(readAllocs)/n, "allocs/op")
	b.ReportMetric(float64(view.Len()), "view-tuples")
}

// benchmarkAnnotateAfterWrite times an Annotate after a write pair. It
// catches the view's where-provenance index up by replaying the two
// writes and reads placement from the maintained reach counts, so ns/op
// and allocs/op should stay within ~2× across the 16× view-size spread
// of _ViewSize1k and _ViewSize16k; rebuilding the index or walking the
// view per Annotate would scale them with the view.
func benchmarkAnnotateAfterWrite(b *testing.B, genes int) {
	benchmarkReadAfterWrite(b, genes, func(e *engine.Engine, i int, _ *relation.Relation, targets []relation.Tuple) error {
		_, err := e.Annotate("v", targets[(i+1)%len(targets)], "protein")
		return err
	})
}

func BenchmarkAnnotate_AfterWrite_ViewSize1k(b *testing.B)  { benchmarkAnnotateAfterWrite(b, 1_000) }
func BenchmarkAnnotate_AfterWrite_ViewSize16k(b *testing.B) { benchmarkAnnotateAfterWrite(b, 16_000) }

// benchmarkQueryPageAfterWrite times one page read after a write pair.
// The read catches the view's sorted rows up by netting the two writes'
// view deltas, which cancel, so it keeps the previous generation's sorted
// rows; ns/op and allocs/op should stay within ~2× across the 16×
// view-size spread of _ViewSize1k and _ViewSize16k, where a full sort per
// read grows as n log n with the view. A net delta that does not cancel
// costs one O(n) copying merge.
func benchmarkQueryPageAfterWrite(b *testing.B, genes int) {
	benchmarkReadAfterWrite(b, genes, func(e *engine.Engine, i int, view *relation.Relation, _ []relation.Tuple) error {
		_, err := e.QueryPage("v", (max(i, 0)*50)%view.Len(), 50)
		return err
	})
}

func BenchmarkQueryPage_AfterWrite_ViewSize1k(b *testing.B)  { benchmarkQueryPageAfterWrite(b, 1_000) }
func BenchmarkQueryPage_AfterWrite_ViewSize16k(b *testing.B) { benchmarkQueryPageAfterWrite(b, 16_000) }

// buildInstance is the from-scratch build benchmarks' input: the paper's
// UserGroup/GroupFile access view Π_{user,file}(UserGroup ⋈ GroupFile),
// whose projection merges several witnesses and where-sets per view
// tuple. users scales both relations; the view grows linearly with it.
func buildInstance(users int) (*relation.Database, algebra.Query) {
	return workload.UserGroupFile(rand.New(rand.NewSource(21)), users, users/10, users, 3, 3)
}

// benchmarkCompute times one from-scratch witness-basis build (Compute) of
// the access view at the given size.
func benchmarkCompute(b *testing.B, users int) {
	db, q := buildInstance(users)
	b.ReportAllocs()
	b.ResetTimer()
	var res *provenance.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = provenance.Compute(q, db); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.View.Len()), "view-tuples")
}

func BenchmarkCompute_Small(b *testing.B) { benchmarkCompute(b, 100) }
func BenchmarkCompute_Large(b *testing.B) { benchmarkCompute(b, 2_000) }

// benchmarkComputeWhere times one from-scratch where-provenance index
// build (ComputeWhere) of the access view at the given size.
func benchmarkComputeWhere(b *testing.B, users int) {
	db, q := buildInstance(users)
	b.ReportAllocs()
	b.ResetTimer()
	var wv *annotation.WhereView
	for i := 0; i < b.N; i++ {
		var err error
		if wv, err = annotation.ComputeWhere(q, db); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wv.View.Len()), "view-tuples")
}

func BenchmarkComputeWhere_Small(b *testing.B) { benchmarkComputeWhere(b, 100) }
func BenchmarkComputeWhere_Large(b *testing.B) { benchmarkComputeWhere(b, 2_000) }

// Router overhead: the core dispatch on top of the direct algorithms.
func BenchmarkRouter_Delete(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	db, q := workload.Chain(r, 3, 40, 5)
	target, ok := workload.PickViewTuple(r, q, db)
	if !ok {
		b.Skip("empty view")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Delete(q, db, target, core.MinimizeSourceDeletions, core.DeleteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ExampleDichotomy pins the three tables in testable output form.
func Example() {
	fmt.Print(core.FormatTable(algebra.ProblemAnnotationPlacement))
	// Output:
	// Query class              annotation placement
	// queries involving PJ     NP-hard
	// queries involving JU     P
	// SPU                      P
	// SJ                       P
	// SJU                      P
}
