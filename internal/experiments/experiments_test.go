package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

func TestTable1PolySeriesShape(t *testing.T) {
	s, err := Table1PolySeries(1, []int{50, 100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points=%d", len(s.Points))
	}
	// Work grows with data but polynomially: doubling rows must not
	// square the work (allow generous slack for hash effects).
	for i := 1; i < len(s.Points); i++ {
		prev := s.Points[i-1].Metrics["spu_work"]
		cur := s.Points[i].Metrics["spu_work"]
		if cur <= prev {
			t.Errorf("SPU work must grow: %v -> %v", prev, cur)
		}
		if cur > prev*prev {
			t.Errorf("SPU work grew super-polynomially: %v -> %v", prev, cur)
		}
	}
}

func TestTable1HardSeriesAgreement(t *testing.T) {
	s, err := Table1HardSeries(2, []int{4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Metrics["agreement"] != 1.0 {
			t.Errorf("vars=%d: reduction disagreed with DPLL", p.X)
		}
		if p.Metrics["pj_candidates"] < 1 {
			t.Errorf("vars=%d: no candidates explored", p.X)
		}
	}
}

func TestTable2ApproxSeries(t *testing.T) {
	s, err := Table2ApproxSeries(3, []int{4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Metrics["agreement"] != 1.0 {
			t.Errorf("universe=%d: Theorem 2.7 equivalence violated", p.X)
		}
		if p.Metrics["ratio"] > p.Metrics["hn_bound"]+1e-9 {
			t.Errorf("universe=%d: greedy ratio %v exceeds H(n)=%v",
				p.X, p.Metrics["ratio"], p.Metrics["hn_bound"])
		}
	}
}

func TestTheorem25WorkSeriesBlowsUp(t *testing.T) {
	s, err := Theorem25WorkSeries([]int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Metrics["view_rows"] != 1 {
			t.Errorf("universe=%d: view rows %v want 1", p.X, p.Metrics["view_rows"])
		}
	}
	// max_intermediate is n^n exactly for the singleton-set family.
	want := map[int]float64{2: 4, 3: 27, 4: 256}
	for _, p := range s.Points {
		if p.Metrics["max_intermediate"] != want[p.X] {
			t.Errorf("universe=%d: max intermediate %v want %v (n^n)",
				p.X, p.Metrics["max_intermediate"], want[p.X])
		}
	}
}

func TestChainSeriesOptimal(t *testing.T) {
	s, err := ChainSeries(4, []int{2, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Metrics["optimal"] != 1.0 {
			t.Errorf("k=%d: min-cut not optimal (%v vs %v)",
				p.X, p.Metrics["cut_size"], p.Metrics["exact_size"])
		}
	}
}

func TestTable3Series(t *testing.T) {
	s, err := Table3Series(5, []int{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Metrics["pj_agreement"] != 1.0 {
			t.Errorf("clauses=%d: Theorem 3.2 decision disagreed with DPLL", p.X)
		}
		if p.Metrics["spu_free"] != 1.0 {
			t.Errorf("clauses=%d: Theorem 3.3 guarantee violated", p.X)
		}
	}
}

func TestAllAndRender(t *testing.T) {
	series, err := All(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("series=%d want 6", len(series))
	}
	for _, s := range series {
		out := s.Render()
		if !strings.Contains(out, s.XLabel) || len(s.Points) == 0 {
			t.Errorf("series %q renders badly:\n%s", s.Name, out)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestAllGolden pins every series of All(1) as rendered.
func TestAllGolden(t *testing.T) {
	series, err := All(1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range series {
		b.WriteString(s.Render())
	}
	const path = "testdata/all.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("%s differs from All(1) (rerun with -update to rewrite it):\n%s", path, b.String())
	}
}
