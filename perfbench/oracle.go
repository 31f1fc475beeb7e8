package main

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/engine"
	"repro/internal/provenance"
)

// checkFinal is the end-of-run oracle. It recomputes every view from the
// engine's final source with the plain evaluator and the from-scratch
// witness basis, so it shares no maintained state with the engine:
//
//   - each view equals algebra.Eval over e.Database(), with its initial
//     size (every delete was restored);
//   - each view's witness count equals provenance.Compute's;
//   - each sampled placement propagates to its target location and has
//     the side-effect count the engine reported.
func checkFinal(e *engine.Engine, w *workloadSpec, placements []placementSample) []string {
	var wrong []string
	db := e.Database()
	st := e.Stats()
	witnesses := make(map[string]int, len(st.Views))
	for _, v := range st.Views {
		witnesses[v.Name] = v.WitnessCount
	}
	byView := make(map[string][]placementSample)
	for _, p := range placements {
		byView[p.view] = append(byView[p.view], p)
	}
	for _, v := range w.views {
		want, err := algebra.Eval(v.query, db)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("eval %s: %v", v.name, err))
			continue
		}
		got, err := e.Query(v.name)
		if err != nil {
			wrong = append(wrong, err.Error())
			continue
		}
		if !got.Equal(want) {
			wrong = append(wrong, fmt.Sprintf("view %s: engine has %d rows, evaluation %d, or they differ", v.name, got.Len(), want.Len()))
		}
		if want.Len() != v.size {
			wrong = append(wrong, fmt.Sprintf("view %s ends with %d rows, started with %d", v.name, want.Len(), v.size))
		}
		prov, err := provenance.Compute(v.query, db)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("witnesses of %s: %v", v.name, err))
			continue
		}
		n := 0
		for _, t := range want.Tuples() {
			n += len(prov.Witnesses(t))
		}
		if n != witnesses[v.name] {
			wrong = append(wrong, fmt.Sprintf("view %s: engine counts %d witnesses, recomputation %d", v.name, witnesses[v.name], n))
		}
		if len(byView[v.name]) == 0 {
			continue
		}
		wv, err := annotation.ComputeWhere(v.query, db)
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("where-provenance of %s: %v", v.name, err))
			continue
		}
		for _, p := range byView[v.name] {
			if err := checkPlacement(wv, p); err != nil {
				wrong = append(wrong, err.Error())
			}
		}
	}
	return wrong
}
