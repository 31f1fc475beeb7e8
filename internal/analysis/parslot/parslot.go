// Package parslot holds fan-out workers to the per-index-slot write
// discipline: a closure passed to a propview:fanout function (parallel.For,
// the engine's fanOut) runs once per index, concurrently with its
// siblings, so the only captured state it may write is a slot positioned by
// its own index (`slots[i] = ...`, `&slots[i]` through a helper) or state
// behind a mutex it holds. Any other captured mutation — a plain captured
// variable, a shared map, a helper whose effect summary mutates a captured
// argument — is a cross-worker race that surfaces as width-dependent
// output, exactly what differential tests can only catch
// probabilistically. The checking itself lives in summary.Order (it needs
// the ordering summaries and the Mutates effect facts); this analyzer
// reports the parslot slice of that result under its own name so
// suppression and budgeting stay per-analyzer.
package parslot

import (
	"repro/internal/analysis"
	"repro/internal/analysis/summary"
)

// Analyzer reports captured-state writes in parallel workers that bypass
// the per-index-slot discipline.
var Analyzer = &analysis.Analyzer{
	Name:     "parslot",
	Doc:      "checks that closures passed to parallel fan-outs write captured state only through per-index slots or under a mutex",
	Requires: []*analysis.Analyzer{summary.Order},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	res := pass.ResultOf[summary.Order].(*summary.OrderResult)
	for _, v := range res.Parslot {
		pass.Reportf(v.Pos, "%s", v.Message)
	}
	return nil, nil
}
