// Propviewlint machine-checks the engine's concurrency, aliasing and
// determinism invariants (see the internal/analysis package doc for the
// contract vocabulary). It runs two ways:
//
//	propviewlint ./...                         standalone, from source
//	go vet -vettool=$(which propviewlint) ./...  as a vet tool
//
// Standalone mode also accepts -suppression-budget=<file> (fail when
// //lint:ignore counts grow past the checked-in budget) and -stats=<file>
// (write per-analyzer wall-clock and finding counts as JSON).
// Both modes accept -json: one diagnostic object per line
// ({"analyzer","file","line","col","message","suppressed"}), suppressed
// findings included, for machine consumption (CI turns them into inline
// PR annotations).
//
// Exit status: 0 clean, 1 operational error or budget violation, 2 findings.
package main

import (
	"repro/internal/analysis/driver"
	"repro/internal/analysis/eachretain"
	"repro/internal/analysis/genmonotonic"
	"repro/internal/analysis/goroutinelife"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/snapshotaliasing"
)

func main() {
	// The summary analyzers (concurrency and ordering) are pulled in
	// automatically as requirements of lockguard, lockorder,
	// goroutinelife and maporder.
	driver.Main(
		snapshotaliasing.Analyzer,
		lockguard.Analyzer,
		eachretain.Analyzer,
		genmonotonic.Analyzer,
		lockorder.Analyzer,
		goroutinelife.Analyzer,
		maporder.Analyzer,
	)
}
