// Batch view deletion: revoke every access pair of a departing user in
// one shot, comparing per-tuple deletion against the group solvers (the
// batch shape Cui–Widom's warehouse system translates).
//
//	go run ./examples/groupdelete
package main

import (
	"fmt"
	"log"
	"math/rand"

	propview "repro"
	"repro/internal/algebra"
	"repro/internal/deletion"
	"repro/internal/provenance"
	"repro/internal/workload"
)

func main() {
	r := rand.New(rand.NewSource(11))
	db, q := workload.UserGroupFile(r, 12, 6, 10, 3, 2)
	view, err := propview.Eval(q, db)
	if err != nil {
		log.Fatal(err)
	}

	// Collect every pair belonging to user u3.
	var targets []propview.Tuple
	for _, t := range view.Tuples() {
		if t[0] == propview.String("u3") {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		log.Fatal("u3 has no access pairs in this instance")
	}
	fmt.Printf("view has %d pairs; u3 holds %d of them\n\n", view.Len(), len(targets))

	// Group source-minimal deletion, on the view's witness basis.
	basis, err := provenance.Compute(q, db)
	if err != nil {
		log.Fatal(err)
	}
	g, err := deletion.SourceExactGroupBasis(basis, targets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("group solver: %d source deletions, %d side-effects on other users\n",
		len(g.T), len(g.SideEffects))
	for _, st := range g.T {
		fmt.Printf("  - %v\n", st)
	}

	// Naive per-tuple loop for comparison (may delete redundantly).
	naiveTotal := 0
	seen := map[string]bool{}
	for _, t := range targets {
		res, err := deletion.SourceExactGroupBasis(basis, []propview.Tuple{t})
		if err != nil {
			log.Fatal(err)
		}
		for _, st := range res.T {
			if !seen[st.Key()] {
				seen[st.Key()] = true
				naiveTotal++
			}
		}
	}
	fmt.Printf("\nper-tuple loop: %d distinct source deletions (group ≤ loop: %v)\n",
		naiveTotal, len(g.T) <= naiveTotal)

	// Verify the group deletion end-to-end.
	after := algebra.MustEval(q, db.DeleteAll(g.T))
	for _, t := range targets {
		if after.Contains(t) {
			log.Fatalf("target %v survived", t)
		}
	}
	fmt.Printf("verified: all %d target pairs removed; view now has %d pairs\n",
		len(targets), after.Len())
}
