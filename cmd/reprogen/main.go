// Command reprogen regenerates the paper's figures as text: the exact
// relations and views of Figures 1 and 2 (the reduction instances for the
// formula (x̄1+x̄2+x̄3)(x2+x4+x5)(x̄4+x̄1+x̄3)) and a Figure 3 instance, each
// followed by a machine-checked verification of the theorem it supports.
//
//	reprogen          # all figures
//	reprogen -fig 2   # one figure
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/algebra"
	"repro/internal/deletion"
	"repro/internal/provenance"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/setcover"
)

func main() {
	fig := flag.Int("fig", 0, "figure to print (1, 2 or 3); 0 = all")
	work := flag.Bool("work", false, "also print the Theorem 2.5 intermediate-work series")
	flag.Parse()
	ok := true
	if *fig == 0 || *fig == 1 {
		ok = figure1() && ok
	}
	if *fig == 0 || *fig == 2 {
		ok = figure2() && ok
	}
	if *fig == 0 || *fig == 3 {
		ok = figure3() && ok
	}
	if *work {
		ok = workSeries() && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// workSeries prints the machine-independent cost series behind Theorem
// 2.5: on Figure 3 instances the view is always one tuple while the join
// work grows like Σ n^(n-|Si|).
func workSeries() bool {
	fmt.Println("=== Theorem 2.5 work series: intermediate join work on Figure 3 instances ===")
	fmt.Printf("%-10s %-12s %-12s %s\n", "universe", "view rows", "join work", "max intermediate")
	for n := 2; n <= 5; n++ {
		sets := make([][]int, n)
		for i := range sets {
			sets[i] = []int{i} // singleton sets: worst padding, d-heavy rows
		}
		sys := setcover.MustInstance(n, sets...)
		in, err := reduction.EncodeSourcePJ(sys)
		if err != nil {
			fmt.Println("ERROR:", err)
			return false
		}
		stats, err := algebra.EvalWithStats(in.Query, in.DB)
		if err != nil {
			fmt.Println("ERROR:", err)
			return false
		}
		if stats.View.Len() != 1 {
			fmt.Printf("ERROR: view has %d rows, want 1\n", stats.View.Len())
			return false
		}
		fmt.Printf("%-10d %-12d %-12d %d\n", n, stats.View.Len(), stats.TotalWork(), stats.MaxIntermediate())
	}
	fmt.Println("(the view never grows; the work does — the blow-up the hardness proof exploits)")
	return true
}

// viewExact runs the exact view side-effect search for target on a fresh
// witness basis of q over db.
func viewExact(q algebra.Query, db *relation.Database, target relation.Tuple) (*deletion.ViewExactResult, error) {
	basis, err := provenance.Compute(q, db)
	if err != nil {
		return nil, err
	}
	return deletion.ViewExactGroupBasis(basis, []relation.Tuple{target}, deletion.ViewOptions{})
}

func figure1() bool {
	in := reduction.Figure1()
	fmt.Println("=== Figure 1: reduction of Theorem 2.1 (monotone 3SAT → PJ view deletion) ===")
	fmt.Printf("formula: %v\n\n", in.Formula)
	fmt.Println(in.DB.Relation("R1").Table())
	fmt.Println(in.DB.Relation("R2").Table())
	view := algebra.MustEval(in.Query, in.DB)
	fmt.Println(view.WithName("Π_{A,C}(R1 ⋈ R2)").Table())
	fmt.Printf("goal: delete %v side-effect-free\n", in.Target)

	res, err := viewExact(in.Query, in.DB, in.Target)
	if err != nil {
		fmt.Println("ERROR:", err)
		return false
	}
	free := res.SideEffectFree()
	want := sat.Satisfiable(in.Formula)
	fmt.Printf("side-effect-free deletion exists: %v; formula satisfiable: %v", free, want)
	if free == want {
		fmt.Println("  ✓ (Theorem 2.1)")
	} else {
		fmt.Println("  ✗ REDUCTION VIOLATION")
		return false
	}
	if free {
		fmt.Printf("one such deletion: %v\n", res.T)
	}
	fmt.Println()
	return free == want
}

func figure2() bool {
	in := reduction.Figure2()
	fmt.Println("=== Figure 2: reduction of Theorem 2.2 (monotone 3SAT → JU view deletion) ===")
	fmt.Printf("formula: %v\n", in.Formula)
	fmt.Printf("%d unary relations (R1..R5, R'1..R'5, S1..S3, S'1..S'3)\n\n", len(in.DB.Names()))
	view := algebra.MustEval(in.Query, in.DB)
	fmt.Println(view.WithName("Q (union of joins)").Table())
	fmt.Printf("goal: delete %v side-effect-free\n", in.Target)

	res, err := viewExact(in.Query, in.DB, in.Target)
	if err != nil {
		fmt.Println("ERROR:", err)
		return false
	}
	free := res.SideEffectFree()
	want := sat.Satisfiable(in.Formula)
	fmt.Printf("side-effect-free deletion exists: %v; formula satisfiable: %v", free, want)
	if free == want {
		fmt.Println("  ✓ (Theorem 2.2)")
	} else {
		fmt.Println("  ✗ REDUCTION VIOLATION")
	}
	fmt.Println()
	return free == want
}

func figure3() bool {
	in := reduction.Figure3()
	fmt.Println("=== Figure 3: reduction of Theorem 2.5 (hitting set → PJ source deletion) ===")
	fmt.Println("set system: S1 = {x1, x3}, S2 = {x2, x3} over {x1, x2, x3}")
	fmt.Println()
	for _, name := range in.DB.Names() {
		fmt.Println(in.DB.Relation(name).Table())
	}
	fmt.Printf("query: %s, goal: minimum deletions removing (c)\n", algebra.Format(in.Query))

	basis, err := provenance.Compute(in.Query, in.DB)
	if err != nil {
		fmt.Println("ERROR:", err)
		return false
	}
	res, err := deletion.SourceExactGroupBasis(basis, []relation.Tuple{in.Target})
	if err != nil {
		fmt.Println("ERROR:", err)
		return false
	}
	hs, err := setcover.ExactHittingSet(in.SetSystem)
	if err != nil {
		fmt.Println("ERROR:", err)
		return false
	}
	fmt.Printf("minimum source deletion: %d tuple(s) %v\n", len(res.T), res.T)
	fmt.Printf("minimum hitting set:     %d element(s)", len(hs))
	if len(res.T) == len(hs) {
		fmt.Println("  ✓ (Theorem 2.5)")
	} else {
		fmt.Println("  ✗ REDUCTION VIOLATION")
	}
	fmt.Println()
	return len(res.T) == len(hs)
}
