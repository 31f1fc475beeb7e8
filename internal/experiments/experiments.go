// Package experiments runs the deterministic, machine-independent
// experiment series listed in the README's "Paper map" section: instead
// of wall-clock times it reports certified quantities — work counters
// from the instrumented evaluator, solver candidate counts, solution sizes
// and agreement flags — so the complexity shapes of the paper's tables
// reproduce exactly on any machine. The wall-clock companions live in
// bench_test.go.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/deletion"
	"repro/internal/provenance"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/setcover"
	"repro/internal/workload"
)

// Point is one measurement in a series.
type Point struct {
	// X is the scale parameter (rows, variables, clauses, universe...).
	X int
	// Metrics maps metric names to values.
	Metrics map[string]float64
}

// Series is a named sequence of measurements.
type Series struct {
	Name    string
	XLabel  string
	Columns []string
	Points  []Point
}

// Render draws the series as an aligned text table.
func (s *Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	fmt.Fprintf(&b, "%-10s", s.XLabel)
	for _, c := range s.Columns {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%-10d", p.X)
		for _, c := range s.Columns {
			fmt.Fprintf(&b, " %16.3f", p.Metrics[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// add appends a point, keeping column order stable.
func (s *Series) add(x int, metrics map[string]float64) {
	s.Points = append(s.Points, Point{X: x, Metrics: metrics})
}

// Table1PolySeries measures the §2.1 polynomial rows: evaluation work for
// SPU and SJ deletion at growing data sizes. Work grows polynomially
// (near-linearly) with rows.
func Table1PolySeries(seed int64, sizes []int) (*Series, error) {
	s := &Series{
		Name:    "Table 1 (view side-effect, P rows): evaluation work vs data size",
		XLabel:  "rows",
		Columns: []string{"spu_work", "sj_work"},
	}
	for _, rows := range sizes {
		r := rand.New(rand.NewSource(seed))
		dbSPU, qSPU := workload.SPU(r, 3, rows, rows/4+1)
		spuStats, err := algebra.EvalWithStats(qSPU, dbSPU)
		if err != nil {
			return nil, err
		}
		dbSJ, qSJ := workload.SJ(r, rows, rows/4+1)
		sjStats, err := algebra.EvalWithStats(qSJ, dbSJ)
		if err != nil {
			return nil, err
		}
		s.add(rows, map[string]float64{
			"spu_work": float64(spuStats.TotalWork()),
			"sj_work":  float64(sjStats.TotalWork()),
		})
	}
	return s, nil
}

// Table1HardSeries measures the §2.1 NP-hard rows on Theorem 2.1/2.2
// instances: candidates explored by the exact side-effect-free decision,
// averaged over instances, plus agreement with DPLL (must be 1.0).
func Table1HardSeries(seed int64, varSizes []int, perSize int) (*Series, error) {
	s := &Series{
		Name:    "Table 1 (view side-effect, NP-hard rows): exact-search candidates vs variables",
		XLabel:  "vars",
		Columns: []string{"pj_candidates", "ju_candidates", "agreement"},
	}
	r := rand.New(rand.NewSource(seed))
	for _, vars := range varSizes {
		var pjC, juC float64
		agree := true
		for k := 0; k < perSize; k++ {
			f := sat.RandomMonotone3SAT(r, vars, 2*vars)
			want := sat.Satisfiable(f)

			pj, err := reduction.EncodeViewPJ(f)
			if err != nil {
				return nil, err
			}
			res, err := viewExact(pj.Query, pj.DB, pj.Target)
			if err != nil {
				return nil, err
			}
			agree = agree && res.SideEffectFree() == want
			pjC += float64(res.Candidates)

			ju, err := reduction.EncodeViewJU(f)
			if err != nil {
				return nil, err
			}
			res, err = viewExact(ju.Query, ju.DB, ju.Target)
			if err != nil {
				return nil, err
			}
			agree = agree && res.SideEffectFree() == want
			juC += float64(res.Candidates)
		}
		a := 0.0
		if agree {
			a = 1.0
		}
		s.add(vars, map[string]float64{
			"pj_candidates": pjC / float64(perSize),
			"ju_candidates": juC / float64(perSize),
			"agreement":     a,
		})
	}
	return s, nil
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

// Table2ApproxSeries measures the §2.2 approximation landscape on Theorem
// 2.7 families: greedy vs exact hitting-set cost and the H(n) bound.
func Table2ApproxSeries(seed int64, universes []int, perSize int) (*Series, error) {
	s := &Series{
		Name:    "Table 2 (source side-effect): greedy/exact ratio vs universe (bound H(n))",
		XLabel:  "universe",
		Columns: []string{"ratio", "hn_bound", "agreement"},
	}
	r := rand.New(rand.NewSource(seed))
	for _, n := range universes {
		worst := 1.0
		agree := true
		for k := 0; k < perSize; k++ {
			sets := make([][]int, n-1)
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
				return nil, err
			}
			basis, err := provenance.Compute(in.Query, in.DB)
			if err != nil {
				return nil, err
			}
			targets := []relation.Tuple{in.Target}
			exact, err := deletion.SourceExactGroupBasis(basis, targets)
			if err != nil {
				return nil, err
			}
			greedy, err := deletion.SourceGreedyGroupBasis(basis, targets)
			if err != nil {
				return nil, err
			}
			ratio := float64(len(greedy.T)) / float64(len(exact.T))
			if ratio > worst {
				worst = ratio
			}
			agree = agree && in.VerifyAgainstHittingSet(len(exact.T)) == nil
		}
		a := 0.0
		if agree {
			a = 1.0
		}
		s.add(n, map[string]float64{
			"ratio":     worst,
			"hn_bound":  setcover.HarmonicBound(n),
			"agreement": a,
		})
	}
	return s, nil
}

// Theorem25WorkSeries measures the intermediate-work blow-up of the
// Figure 3 construction: view stays one tuple while join work explodes.
func Theorem25WorkSeries(universes []int) (*Series, error) {
	s := &Series{
		Name:    "Theorem 2.5 (Figure 3): join work vs universe (view is always 1 tuple)",
		XLabel:  "universe",
		Columns: []string{"join_work", "max_intermediate", "view_rows"},
	}
	for _, n := range universes {
		sets := make([][]int, n)
		for i := range sets {
			sets[i] = []int{i}
		}
		in, err := reduction.EncodeSourcePJ(setcover.MustInstance(n, sets...))
		if err != nil {
			return nil, err
		}
		stats, err := algebra.EvalWithStats(in.Query, in.DB)
		if err != nil {
			return nil, err
		}
		s.add(n, map[string]float64{
			"join_work":        float64(stats.TotalWork()),
			"max_intermediate": float64(stats.MaxIntermediate()),
			"view_rows":        float64(stats.View.Len()),
		})
	}
	return s, nil
}

// ChainSeries measures Theorem 2.6: min-cut size equals the exact optimum
// at every chain length (optimal flag 1.0) with polynomial network sizes.
func ChainSeries(seed int64, lengths []int, rows int) (*Series, error) {
	s := &Series{
		Name:    "Theorem 2.6 (chain joins): min-cut vs exact optimum",
		XLabel:  "k",
		Columns: []string{"cut_size", "exact_size", "optimal"},
	}
	for _, k := range lengths {
		r := rand.New(rand.NewSource(seed))
		db, q := workload.Chain(r, k, rows, 3)
		target, ok := workload.PickViewTuple(r, q, db)
		if !ok {
			continue
		}
		cut, err := deletion.SourceChainMinCut(q, db, target)
		if err != nil {
			return nil, err
		}
		basis, err := provenance.Compute(q, db)
		if err != nil {
			return nil, err
		}
		exact, err := deletion.SourceExactGroupBasis(basis, []relation.Tuple{target})
		if err != nil {
			return nil, err
		}
		opt := 0.0
		if len(cut.T) == len(exact.T) {
			opt = 1.0
		}
		s.add(k, map[string]float64{
			"cut_size":   float64(len(cut.T)),
			"exact_size": float64(len(exact.T)),
			"optimal":    opt,
		})
	}
	return s, nil
}

// Table3Series measures §3.1: SPU placements are always side-effect-free
// (Theorem 3.3) and PJ placement agreement with DPLL on Theorem 3.2
// instances.
func Table3Series(seed int64, clauseSizes []int, perSize int) (*Series, error) {
	s := &Series{
		Name:    "Table 3 (annotation placement): PJ decision agreement and SPU guarantee",
		XLabel:  "clauses",
		Columns: []string{"pj_agreement", "spu_free"},
	}
	r := rand.New(rand.NewSource(seed))
	for _, m := range clauseSizes {
		agree := true
		for k := 0; k < perSize; k++ {
			f := sat.RandomConnected3SAT(r, m+2, m)
			in, err := reduction.EncodeAnnPJ(f)
			if err != nil {
				return nil, err
			}
			p, err := annotation.Place(in.Query, in.DB, in.TargetTuple, in.TargetAttr)
			if err != nil {
				return nil, err
			}
			agree = agree && p.SideEffectFree() == sat.Satisfiable(f)
		}
		// SPU guarantee on a fresh instance of comparable size.
		db, q := workload.SPU(r, 3, 50*m, 10)
		target, ok := workload.PickViewTuple(r, q, db)
		spuFree := 0.0
		if ok {
			p, err := annotation.Place(q, db, target, "A")
			if err != nil {
				return nil, err
			}
			if p.SideEffectFree() {
				spuFree = 1.0
			}
		}
		a := 0.0
		if agree {
			a = 1.0
		}
		s.add(m, map[string]float64{"pj_agreement": a, "spu_free": spuFree})
	}
	return s, nil
}

// All runs every series with default parameters sized for seconds, not
// minutes.
func All(seed int64) ([]*Series, error) {
	var out []*Series
	t1p, err := Table1PolySeries(seed, []int{100, 200, 400, 800})
	if err != nil {
		return nil, err
	}
	out = append(out, t1p)
	t1h, err := Table1HardSeries(seed, []int{4, 6, 8, 10}, 3)
	if err != nil {
		return nil, err
	}
	out = append(out, t1h)
	t2, err := Table2ApproxSeries(seed, []int{4, 6, 8}, 3)
	if err != nil {
		return nil, err
	}
	out = append(out, t2)
	t25, err := Theorem25WorkSeries([]int{2, 3, 4, 5})
	if err != nil {
		return nil, err
	}
	out = append(out, t25)
	chain, err := ChainSeries(seed, []int{2, 3, 4}, 8)
	if err != nil {
		return nil, err
	}
	out = append(out, chain)
	t3, err := Table3Series(seed, []int{2, 3, 4}, 3)
	if err != nil {
		return nil, err
	}
	out = append(out, t3)
	return out, nil
}
