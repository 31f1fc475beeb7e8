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

// Route is the §3.1 dichotomy as Place applies it to a query with
// operators ops. spu reports whether the query is SPU — no join, no
// renaming — which Place answers with Theorem 3.3's scan; every other query
// takes the candidate scan of its where-provenance, polynomial for SJU
// queries (Theorem 3.4) and exponential in the query size at worst once
// projection meets join (Theorem 3.2). alg names the algorithm and the
// theorem of the query's class.
func Route(ops algebra.Ops) (spu bool, alg string) {
	switch {
	case !ops.HasAny(algebra.OpJoin | algebra.OpRename):
		return true, "SPU scan (Thm 3.3)"
	case !ops.HasAny(algebra.OpProject):
		return false, "SJU component enumeration (Thm 3.4)"
	case !ops.HasAny(algebra.OpJoin):
		return false, "SPU candidate scan (Thm 3.3)"
	}
	return false, "exact candidate scan (NP-hard, Thm 3.2)"
}

// Place solves the annotation placement problem exactly for any monotone
// SPJRU query: among all source locations whose annotation reaches the
// target view location (t, attr), it returns one minimizing the number of
// other view locations annotated, ties going to the least Location.
//
// The optimum is always a single source location (§3.1: "the optimal
// solution is always a single location"). Place routes by Route: an SPU
// query takes the linear scan of Theorem 3.3, and every other query scans
// the target's candidates in its where-provenance (ComputeWhere, then
// PlaceOn). That is polynomial in the size of the source, the view and all
// intermediate join results; for PJ queries the intermediate results — and
// hence the running time — can be exponential in the query size, which is
// consistent with Theorem 3.2's NP-hardness (the query is part of the
// input).
func Place(q algebra.Query, db *relation.Database, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	if spu, _ := Route(algebra.OperatorsOf(q)); spu {
		return placeSPU(q, db, t, attr)
	}
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

// placeOn places on the target's where set: the candidates' interned ids.
func placeOn(wv *WhereView, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	sets := wv.setsOf(t.Key())
	if sets == nil {
		return nil, fmt.Errorf("%w: tuple %v not in view", ErrNoPlacement, t)
	}
	pos, ok := wv.View.Schema().Index(attr)
	if !ok || len(sets[pos]) == 0 {
		return nil, fmt.Errorf("%w: view location (%v, %s)", ErrNoPlacement, t, attr)
	}
	return wv.place(sets[pos]), nil
}

// place returns the placement on the candidate that comes first under
// before, expanding only that winner into its Affected set.
func (wv *WhereView) place(set locSet) *Placement {
	best := set[0]
	for _, id := range set[1:] {
		if wv.before(id, best) {
			best = id
		}
	}
	src := wv.in.loc(best)
	return &Placement{
		Source:      src,
		Affected:    wv.affected(best, src),
		SideEffects: int(wv.reach.get(best)) - 1,
	}
}

// before is the placement order on candidates a and b: fewer side effects
// first — one O(1) read of each reach count, carried by the index
// generation — then the least Location.
func (wv *WhereView) before(a, b int32) bool {
	if ca, cb := wv.reach.get(a), wv.reach.get(b); ca != cb {
		return ca < cb
	}
	return wv.in.loc(a).Less(wv.in.loc(b))
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
		for pos, set := range wv.setsOf(tu.Key()) {
			if len(set) > 0 {
				out = append(out, CellPlacement{ViewTuple: tu, Attr: attrs[pos], Placement: wv.place(set)})
			}
		}
	}
	return out, nil
}

// placeSPU is the linear-time algorithm of Theorem 3.3 for SPU queries: it
// scans the base relation of each select-project branch for the tuples
// that satisfy the branch's selection and project onto the target view
// tuple, and annotates attr on the least of them in Location order. Each
// such location reaches the target alone, so the result is side-effect-free
// and is the one placeOn picks from the where-provenance.
func placeSPU(q algebra.Query, db *relation.Database, t relation.Tuple, attr relation.Attribute) (*Placement, error) {
	viewSchema, err := algebra.SchemaOf(q, db)
	if err != nil {
		return nil, err
	}
	if !viewSchema.Has(attr) {
		return nil, fmt.Errorf("%w: attribute %q not in view schema %s", ErrNoPlacement, attr, viewSchema)
	}
	if len(t) != viewSchema.Len() {
		return nil, fmt.Errorf("%w: tuple %v not in view", ErrNoPlacement, t)
	}
	var best relation.Location
	found := false
	for _, branch := range algebra.UnionTerms(algebra.Normalize(q)) {
		// A normalized SPU branch is Project*(Select*(Scan)) — peel it.
		var conds []algebra.Condition
		sub := branch
		projAttrs := viewSchema.Attrs()
	peel:
		for {
			switch n := sub.(type) {
			case algebra.Project:
				projAttrs = n.Attrs
				sub = n.Child
			case algebra.Select:
				conds = append(conds, n.Cond)
				sub = n.Child
			case algebra.Scan:
				break peel
			default:
				return nil, fmt.Errorf("annotation: branch %s is not select-project-scan", algebra.Format(branch))
			}
		}
		rel := sub.(algebra.Scan).Rel
		base := db.Relation(rel)
		if found && rel > best.Rel {
			continue
		}
		// A match holds want[i] at position pos[i]: the branch projects
		// it onto the target.
		s := base.Schema()
		pos := make([]int, len(projAttrs))
		want := make(relation.Tuple, len(projAttrs))
		for i, a := range projAttrs {
			pos[i], _ = s.Index(a)
			vp, _ := viewSchema.Index(a)
			want[i] = t[vp]
		}
	scan:
		for _, cand := range base.Tuples() {
			for i, p := range pos {
				if cand[p] != want[i] {
					continue scan
				}
			}
			if found && rel == best.Rel && !cand.Less(best.Tuple) {
				continue
			}
			for _, c := range conds {
				if !c.Holds(s, cand) {
					continue scan
				}
			}
			best, found = relation.Loc(rel, cand, attr), true
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: no SPU branch produces %v", ErrNoPlacement, t)
	}
	return &Placement{
		Source:      best,
		Affected:    relation.NewLocationSet(relation.Loc(algebra.DefaultViewName, t, attr)),
		SideEffects: 0,
	}, nil
}
