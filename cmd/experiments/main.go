// Command experiments prints the deterministic experiment series listed in
// the README's "Paper map" section: machine-independent counters
// (evaluation work, solver candidates, solution sizes, solver-agreement
// flags) for every table and figure of the paper. Wall-clock companions:
// go test -bench=. .
//
//	experiments            # all series with default sizes
//	experiments -seed 42   # different instance draws
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for instance generation")
	flag.Parse()
	series, err := experiments.All(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	for i, s := range series {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(s.Render())
	}
	fmt.Println("\nall agreement columns must read 1.000 — any other value is a reproduction failure")
}
