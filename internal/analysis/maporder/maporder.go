// Package maporder guards the propview:deterministic contract: a marked
// function's results must be a pure function of its inputs. Two things
// break that, and both are reported here.
//
// Iteration order: Go map `range` order varies run to run, so a value
// whose element order derives from one (an append inside a map-range body,
// a slice write positioned by a loop counter rather than the map key, a
// call returning a map-ordered result — tracked across packages via
// ordering facts) must not reach an order-sensitive sink. Sinks are the
// returns of propview:deterministic functions and JSON encoding (the
// propviewd response path); sorting the value (sort.*, slices.Sort*) or
// gathering it into keyed slots clears the taint.
//
// Nondeterminism roots: a propview:deterministic function must reach no
// wall-clock or randomness source (time.Now, math/rand, crypto/rand, ...),
// directly or through callees, unless the callee is itself marked
// deterministic (it is then checked at its own definition).
//
// The walk lives in summary.Order; this analyzer reports its violations.
package maporder

import (
	"repro/internal/analysis"
	"repro/internal/analysis/summary"
)

// Analyzer reports map-range-ordered values flowing into order-sensitive
// sinks and propview:deterministic functions that reach nondeterminism.
var Analyzer = &analysis.Analyzer{
	Name:     "maporder",
	Doc:      "checks that map-iteration-ordered values do not reach order-sensitive sinks without a sort or keyed-slot gather, and that propview:deterministic functions transitively avoid clock and randomness sources",
	Requires: []*analysis.Analyzer{summary.Order},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	res := pass.ResultOf[summary.Order].(*summary.OrderResult)
	for _, v := range res.Violations {
		pass.Reportf(v.Pos, "%s", v.Message)
	}
	return nil, nil
}
