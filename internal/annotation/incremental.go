// Incremental maintenance of the where-provenance index under source
// deletions and insertions.
//
// A source write can change the where-set of a *surviving* view tuple —
// when one pre-image of a projected tuple dies, the tuple survives via its
// other pre-images but its merged set shrinks; when a new pre-image
// arrives, the set grows — so the delta of the index is not the delta of
// the view. ComputeWhere therefore retains the full annotated operator
// tree, and ApplyDeletion / ApplyInsertion derive the next generation by
// one step of the shared delta evaluator (package annotree) under the
// location-set algebra below: each node maps its children's (died,
// changed, added) rows to the output rows they can reach, settles exactly
// those, prunes propagation where the sets are unchanged, and derives its
// overlay maps in O(|Δ|).
//
// Under insertion where-sets only grow, so a candidate's new sets are its
// old sets ∪ the contributions of its added or changed pre-images. Under
// deletion a candidate's sets are recomputed from the live pre-images in
// its children's new generation: the projection keeps a pre-image index
// for this, a union and a join read their one or two operand rows.
package annotation

import (
	"repro/internal/annotree"
	"repro/internal/layered"
	"repro/internal/relation"
)

// whereMetrics is shared along a WhereView generation chain, like the
// provenance tree's metrics: the tree's work and overlay-map counters plus
// the maintained view relation's compaction counters.
type whereMetrics struct {
	om annotree.Metrics
	vm layered.Counters
}

// MaintenanceTouched reports the cumulative number of entries and partner
// probes the incremental maintenance examined across this index's
// generation chain. The regression tests pin it to O(|Δ| · fan-out): a
// full-index rebuild per write would scale it with the view instead.
func (wv *WhereView) MaintenanceTouched() int64 { return wv.met.om.Touched() }

// setsEq reports whether two per-position set lists are identical.
// Where-sets are canonical (sorted), so equality is positional.
func setsEq(a, b []locSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// ApplyDeletion derives the where-provenance index of the generation with
// the source tuples T removed, reusing the receiver's index: the retained
// operator tree propagates T upward touching only the entries T can
// reach, so the cost is O(|Δ| · fan-out) instead of the O(view + all
// intermediates) full recomputation. The receiver is unchanged and both
// generations share all untouched state. A deletion disjoint from the
// query's base relations returns the receiver.
func (wv *WhereView) ApplyDeletion(T []relation.SourceTuple) *WhereView {
	return wv.apply(T, false)
}

// ApplyDeletionWorkers is ApplyDeletion; workers is ignored. It is kept
// only for the benchmark driver (perfbench), until the next change allowed
// to edit it.
func (wv *WhereView) ApplyDeletionWorkers(T []relation.SourceTuple, workers int) *WhereView {
	return wv.ApplyDeletion(T)
}

// ApplyInsertion derives the where-provenance index of the generation with
// the source tuples I added — the dual of ApplyDeletion, at the same
// O(|Δ| · fan-out) cost. Tuples already in the indexed source are no-ops.
// The index retains the inserted tuples, which must not be mutated
// afterwards. Locations of inserted tuples are interned into the chain's
// shared interner, so every generation keeps answering for the locations
// it knows.
func (wv *WhereView) ApplyInsertion(I []relation.SourceTuple) *WhereView {
	return wv.apply(I, true)
}

// apply runs one maintenance step and assembles the next generation: the
// root's delta versions the view and adjusts the reach counts.
func (wv *WhereView) apply(ts []relation.SourceTuple, ins bool) *WhereView {
	root, rows, _ := wv.root.Step(annotree.NewWrite(ts, ins, &wv.met.om), whereAlgebra{wv.in}) // never fails
	if root == wv.root {
		return wv
	}
	view := wv.View
	dead := make(map[string]struct{})
	var added []relation.Tuple
	for _, r := range rows {
		switch r.S {
		case annotree.Died:
			dead[r.K] = struct{}{}
		case annotree.Added:
			added = append(added, r.T)
		}
	}
	if len(dead) > 0 {
		view = view.DeleteVersion(dead, &wv.met.vm)
	}
	if len(added) > 0 {
		view = view.InsertVersion(added, &wv.met.vm)
	}
	counts := wv.reach.derive(reachDelta(rows, wv.setsOf))
	return &WhereView{View: view, root: root, in: wv.in, reach: counts, met: wv.met}
}

// whereAlgebra is where-provenance as an annotree algebra: a row's
// annotation is one location set per attribute, combined by the paper's
// propagation rules. Scans intern the locations of inserted tuples in in.
type whereAlgebra struct{ in *interner }

// Scan interns an inserted tuple's locations, one singleton set per
// attribute.
func (a whereAlgebra) Scan(rel string, attrs []relation.Attribute, t relation.Tuple, k string) []locSet {
	return a.in.scanSets(rel, t, k, attrs)
}

// Lift moves sets to their output positions: projection keeps the
// projected attributes' sets, union aligns the right operand's.
func (whereAlgebra) Lift(pos []int, sets []locSet) []locSet {
	out := make([]locSet, len(pos))
	for i, p := range pos {
		out[i] = sets[p]
	}
	return out
}

// Join gives each output attribute the sets of the operand attributes it
// comes from; a common attribute merges both (rules for R1 and R2 both
// apply).
func (whereAlgebra) Join(m []annotree.SrcPos, l, r []locSet) []locSet {
	out := make([]locSet, len(m))
	for i, sp := range m {
		var s locSet
		if sp.L >= 0 {
			s = s.union(l[sp.L])
		}
		if sp.R >= 0 {
			s = s.union(r[sp.R])
		}
		out[i] = s
	}
	return out
}

// Add merges two contributions position by position.
func (whereAlgebra) Add(acc, c []locSet) []locSet {
	if acc == nil {
		return c
	}
	out := make([]locSet, len(acc))
	for i := range acc {
		out[i] = acc[i].union(c[i])
	}
	return out
}

// Grow unions a candidate's contributions into its old sets: under
// insertion sets only grow, so this equals a recomputation from the new
// children. The delta handed up is the new sets.
func (a whereAlgebra) Grow(old []locSet, had bool, acc []locSet) (next, delta []locSet, grew bool, err error) {
	if !had {
		return acc, acc, true, nil
	}
	next = a.Add(old, acc)
	return next, next, !setsEq(old, next), nil
}

// Shrink takes the sets recomputed from the live pre-images; a candidate
// without one dies.
func (whereAlgebra) Shrink(old, acc []locSet, live bool) (next []locSet, alive, changed bool) {
	return acc, live, !setsEq(old, acc)
}

// Recomputes is true: a deletion recomputes from the live pre-images.
func (whereAlgebra) Recomputes() bool { return true }
