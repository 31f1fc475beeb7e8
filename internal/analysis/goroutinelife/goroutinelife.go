// Package goroutinelife checks that every `go` statement has a provable
// join or termination edge — an unmatched launch is a goroutine leak (or a
// worker that can outlive the state it reads).
//
// Three proofs are accepted, in the order they are tried:
//
//   - WaitGroup balance: the launched literal calls Done on a WaitGroup the
//     launching function Waits on (the parallel.For / fan-out
//     worker shape).
//   - Channel hand-off: the literal sends on or closes a channel the
//     launching function receives from (the propviewd serve-error and
//     shutdown-timeout shapes).
//   - Drain registration: the launched function signals as it returns — a
//     deferred close, send or Done — on a classifiable channel or
//     WaitGroup (a struct field or package-level var) that some other
//     function receives from or waits on, possibly in another package.
//     This is the graceful-shutdown pattern: the engine's `go e.drain(nil)`
//     defers e.committer.Done, and Engine.Close blocks in
//     e.committer.Wait. A signal in the body, such as drain's close of
//     each committed request's done channel, proves nothing about when
//     the goroutine ends, so it does not count.
//
// The first two are read off the launch site; the third comes from the
// concurrency summaries, which is what makes join evidence spanning
// functions (or packages) visible at all.
package goroutinelife

import (
	"repro/internal/analysis"
	"repro/internal/analysis/summary"
)

// Analyzer is the goroutinelife analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "goroutinelife",
	Doc:      "checks every go statement for a provable join or termination edge (WaitGroup balance, channel hand-off, or shutdown-drain registration)",
	Requires: []*analysis.Analyzer{summary.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	res := pass.ResultOf[summary.Analyzer].(*summary.Result)
	if len(res.Launches) == 0 {
		return nil, nil
	}

	// Classes some function provably receives from or waits on — in this
	// package, or in any package whose facts we can see.
	joined := make(map[string]bool)
	for c := range res.Joins {
		joined[c] = true
	}
	for _, pf := range pass.AllPackageFacts(&summary.PkgFact{}) {
		for _, c := range pf.Fact.(*summary.PkgFact).Joins {
			joined[c] = true
		}
	}

	for _, l := range res.Launches {
		if l.Proof != "" {
			continue // joined at the launch site itself
		}
		drained := false
		for _, c := range l.JoinClasses {
			if joined[c] {
				drained = true
				break
			}
		}
		if drained {
			continue
		}
		what := "goroutine"
		if l.Callee != "" {
			what = "goroutine running " + l.Callee
		}
		pass.Reportf(l.Pos, "%s launched in %s has no provable join: no WaitGroup Done/Wait balance, channel hand-off received by the launcher, or drain signal another function waits on",
			what, l.FuncName)
	}
	return nil, nil
}
