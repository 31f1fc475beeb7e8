package summary_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/summary"
)

const probeSrc = `package probe

import "sync"

type T struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

var gate sync.Mutex

// lockIt returns holding the receiver's mutex.
func (t *T) lockIt() {
	t.mu.Lock()
}

// unlockIt releases on the caller's behalf.
func (t *T) unlockIt() {
	t.mu.Unlock()
}

// nested acquires gate under t.mu, all through helpers.
func (t *T) nested() {
	t.lockIt()
	gate.Lock()
	gate.Unlock()
	t.unlockIt()
}

// launch starts a worker the WaitGroup joins.
func (t *T) launch() {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
	}()
	t.wg.Wait()
}
`

// TestSummaryContents pins down the summary model on a probe package: a
// lock-and-return helper has NetHeld, its inverse has Releases, a caller
// composing the two acquires both locks with a nesting edge, and a go
// statement gets a waitgroup proof.
func TestSummaryContents(t *testing.T) {
	var res *summary.Result
	probe := &analysis.Analyzer{
		Name:     "probe",
		Doc:      "captures the summary result for inspection",
		Requires: []*analysis.Analyzer{summary.Analyzer},
		Run: func(pass *analysis.Pass) (any, error) {
			res = pass.ResultOf[summary.Analyzer].(*summary.Result)
			return nil, nil
		},
	}
	analysistest.RunFiles(t, probe, "probe", map[string]string{"probe.go": probeSrc})
	if res == nil {
		t.Fatal("probe analyzer never ran")
	}

	sums := make(map[string]*summary.FuncSummary)
	for obj, sum := range res.Funcs {
		sums[obj.Name()] = sum
	}

	lockIt := sums["lockIt"]
	if len(lockIt.NetHeld) != 1 || lockIt.NetHeld[0].Class != "probe.T.mu" ||
		lockIt.NetHeld[0].Field != "mu" || lockIt.NetHeld[0].Level != "write" {
		t.Errorf("lockIt.NetHeld = %+v, want one write-held probe.T.mu via field mu", lockIt.NetHeld)
	}

	unlockIt := sums["unlockIt"]
	if len(unlockIt.Releases) != 1 || unlockIt.Releases[0].Class != "probe.T.mu" {
		t.Errorf("unlockIt.Releases = %+v, want probe.T.mu", unlockIt.Releases)
	}

	nested := sums["nested"]
	acq := make(map[string]bool)
	for _, a := range nested.Acquires {
		acq[a.Class] = true
	}
	if !acq["probe.T.mu"] || !acq["probe.gate"] {
		t.Errorf("nested.Acquires = %+v, want both probe.T.mu and probe.gate (spliced through helpers)", nested.Acquires)
	}
	if len(nested.NetHeld) != 0 {
		t.Errorf("nested.NetHeld = %+v, want empty (balanced through helpers)", nested.NetHeld)
	}

	foundEdge := false
	for _, e := range res.Edges {
		if e.From == "probe.T.mu" && e.To == "probe.gate" {
			foundEdge = true
			if len(e.Path) == 0 {
				t.Error("edge probe.T.mu -> probe.gate has no acquisition path")
			}
		}
	}
	if !foundEdge {
		t.Errorf("edges %+v missing probe.T.mu -> probe.gate", res.Edges)
	}

	launch := sums["launch"]
	if len(launch.Launches) != 1 || launch.Launches[0].Proof != "waitgroup" {
		t.Errorf("launch.Launches = %+v, want one launch with waitgroup proof", launch.Launches)
	}
}
