package annotation

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// Placement is the solution to an annotation placement problem: the chosen
// source location, the full set of view locations its annotation reaches,
// and the side-effect count (reached locations other than the target).
type Placement struct {
	// Source is the location to annotate in the source database.
	Source relation.Location
	// Affected is every view location receiving the annotation, target
	// included.
	Affected *relation.LocationSet
	// SideEffects = Affected.Len() - 1.
	SideEffects int
}

// SideEffectFree reports whether only the target view location is
// annotated.
func (p *Placement) SideEffectFree() bool { return p.SideEffects == 0 }

// ErrNoPlacement is returned when no source location propagates to the
// requested view location (e.g. the view tuple does not exist, or the
// column is a view-defined constant — see the remark after Theorem 3.1).
var ErrNoPlacement = fmt.Errorf("annotation: no source location propagates to the target")

// Place solves the annotation placement problem exactly for any monotone
// SPJRU query: among all source locations whose annotation reaches the
// target view location (t, attr), it returns one minimizing the number of
// other view locations annotated.
//
// The optimum is always a single source location (§3.1: "the optimal
// solution is always a single location"). Complexity: polynomial in the
// size of the source, the view and all intermediate join results; for PJ
// queries the intermediate results — and hence the running time — can be
// exponential in the query size, which is consistent with Theorem 3.2's
// NP-hardness (the query is part of the input).
func Place(q algebra.Query, db *relation.Database, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	wv, err := ComputeWhere(q, db)
	if err != nil {
		return nil, err
	}
	return placeOn(wv, t, attr)
}

// PlaceOn solves the placement problem against a precomputed
// where-provenance view, skipping the ComputeWhere evaluation Place pays on
// every call. The prepared-view engine (internal/engine) caches a WhereView
// per prepared query and serves all placement requests through this.
func PlaceOn(wv *WhereView, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	return placeOn(wv, t, attr)
}

// placeOn compares the target's candidates by their reach counts — one
// O(1) read per candidate, the counts carried by the index generation —
// and expands only the winner into its Affected set.
func placeOn(wv *WhereView, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	if !wv.View.Contains(t) {
		return nil, fmt.Errorf("%w: tuple %v not in view", ErrNoPlacement, t)
	}
	candidates := wv.WhereOf(t, attr)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w: view location (%v, %s)", ErrNoPlacement, t, attr)
	}
	best := candidates[0]
	bestCount := -1
	for _, cand := range candidates {
		id, _ := wv.in.lookup(cand)
		c := int(wv.reach.get(id))
		if bestCount < 0 || c < bestCount || (c == bestCount && cand.Less(best)) {
			best, bestCount = cand, c
		}
	}
	return &Placement{
		Source:      best,
		Affected:    wv.Affected(best),
		SideEffects: bestCount - 1,
	}, nil
}

// CellPlacement pairs a view location with its optimal placement.
type CellPlacement struct {
	ViewTuple relation.Tuple
	Attr      relation.Attribute
	Placement *Placement
}

// PlaceAll solves the placement problem for every cell of the view in one
// where-provenance pass — the batch a curation front-end wants when
// pre-computing "annotate here" affordances. Cells with no propagating
// source location (view constants) are skipped.
func PlaceAll(q algebra.Query, db *relation.Database) ([]CellPlacement, error) {
	wv, err := ComputeWhere(q, db)
	if err != nil {
		return nil, err
	}
	attrs := wv.View.Schema().Attrs()
	var out []CellPlacement
	for _, tu := range wv.View.Tuples() {
		sets := wv.setsOf(tu.Key())
		for pos, set := range sets {
			if len(set) == 0 {
				continue
			}
			best := wv.in.loc(set[0])
			bestCount := int(wv.reach.get(set[0]))
			for _, id := range set[1:] {
				if c, l := int(wv.reach.get(id)), wv.in.loc(id); c < bestCount || (c == bestCount && l.Less(best)) {
					best, bestCount = l, c
				}
			}
			out = append(out, CellPlacement{
				ViewTuple: tu,
				Attr:      attrs[pos],
				Placement: &Placement{
					Source:      best,
					Affected:    wv.Affected(best),
					SideEffects: bestCount - 1,
				},
			})
		}
	}
	return out, nil
}

// PlaceSPU is the linear-time algorithm of Theorem 3.3 for SPU queries: it
// scans the base relation of each select-project branch for a tuple that
// satisfies the branch's selection and projects onto the target view
// tuple, and annotates the matching attribute of the first such tuple.
// The result is always side-effect-free.
//
// It returns an error if q is not an SPU query (use Place for the general
// case).
func PlaceSPU(q algebra.Query, db *relation.Database, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	ops := algebra.OperatorsOf(q)
	if ops.HasAny(algebra.OpJoin | algebra.OpRename) {
		return nil, fmt.Errorf("annotation: PlaceSPU requires an SPU query, got %s", ops)
	}
	viewSchema, err := algebra.SchemaOf(q, db)
	if err != nil {
		return nil, err
	}
	if !viewSchema.Has(attr) {
		return nil, fmt.Errorf("annotation: attribute %q not in view schema %s", attr, viewSchema)
	}
	for _, branch := range algebra.UnionTerms(algebra.Normalize(q)) {
		src, found, err := spBranchSource(branch, db, t, attr, viewSchema)
		if err != nil {
			return nil, err
		}
		if found {
			return &Placement{
				Source:      src,
				Affected:    relation.NewLocationSet(relation.Loc(algebra.DefaultViewName, t, attr)),
				SideEffects: 0,
			}, nil
		}
	}
	return nil, fmt.Errorf("%w: no SPU branch produces %v", ErrNoPlacement, t)
}

// spBranchSource scans one select-project branch for a source tuple that
// satisfies the selection and projects onto t, returning the location of
// attr in that tuple.
func spBranchSource(branch algebra.Query, db *relation.Database, t relation.Tuple, attr relation.Attribute, viewSchema relation.Schema) (relation.Location, bool, error) {
	// A normalized SPU branch is Project*(Select*(Scan)) — peel it.
	var conds []algebra.Condition
	q := branch
	projAttrs := viewSchema.Attrs()
peel:
	for {
		switch n := q.(type) {
		case algebra.Project:
			projAttrs = n.Attrs
			q = n.Child
		case algebra.Select:
			conds = append(conds, n.Cond)
			q = n.Child
		case algebra.Scan:
			break peel
		default:
			return relation.Location{}, false, fmt.Errorf("annotation: branch %s is not select-project-scan", algebra.Format(branch))
		}
	}
	scan := q.(algebra.Scan)
	base := db.Relation(scan.Rel)
	if base == nil {
		return relation.Location{}, false, fmt.Errorf("annotation: unknown relation %q", scan.Rel)
	}
	// Align the target tuple to the branch's projection order.
	aligned := relation.ProjectAttrs(viewSchema, t, projAttrs)
	for _, cand := range base.Tuples() {
		ok := true
		for _, c := range conds {
			if !c.Holds(base.Schema(), cand) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if !relation.ProjectAttrs(base.Schema(), cand, projAttrs).Equal(aligned) {
			continue
		}
		return relation.Loc(scan.Rel, cand, attr), true, nil
	}
	return relation.Location{}, false, nil
}

// PlaceSJU is the polynomial algorithm of Theorem 3.4 for SJU queries in
// normal form: for each SJ subquery in which the target attribute occurs,
// it considers annotating the attribute on the component tuple t.Rij of
// each participating relation, counting the side-effects that location
// causes through every subquery of the union; it returns the minimum.
//
// Implementation note: the side-effect counting for a candidate location
// is exactly the Affected set of the where-provenance view, so this shares
// the propagation engine with Place; the SJU structure guarantees the
// engine runs in polynomial time (joins of distinct relations do not merge
// derivations). The dedicated entry point validates the query class and
// restricts candidates to the component locations the theorem enumerates.
func PlaceSJU(q algebra.Query, db *relation.Database, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	ops := algebra.OperatorsOf(q)
	if ops.HasAny(algebra.OpProject) {
		return nil, fmt.Errorf("annotation: PlaceSJU requires an SJU query, got %s", ops)
	}
	return Place(q, db, t, attr)
}
