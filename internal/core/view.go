package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// View is a stateful convenience wrapper pairing a query with a source
// database: the object a downstream application holds. It lazily caches
// the evaluated view, the witness basis and the where-provenance, and
// invalidates the caches when the source changes through it.
type View struct {
	q  algebra.Query
	db *relation.Database

	view  *relation.Relation
	wit   *provenance.Result
	where *annotation.WhereView
}

// NewView validates the query against the database and returns the
// wrapper. The database is shared, not copied: mutations must go through
// Apply so caches stay coherent.
func NewView(q algebra.Query, db *relation.Database) (*View, error) {
	if err := algebra.Validate(q, db); err != nil {
		return nil, err
	}
	return &View{q: q, db: db}, nil
}

// Query returns the view definition.
func (v *View) Query() algebra.Query { return v.q }

// Database returns the underlying source database.
func (v *View) Database() *relation.Database { return v.db }

// Fragment names the query's operator fragment.
func (v *View) Fragment() string { return algebra.Fragment(v.q) }

// Eval returns the materialized view, computing it on first use.
func (v *View) Eval() (*relation.Relation, error) {
	if v.view == nil {
		view, err := algebra.Eval(v.q, v.db)
		if err != nil {
			return nil, err
		}
		v.view = view
	}
	return v.view, nil
}

// Witnesses returns the minimal witnesses of a view tuple, computing the
// basis on first use.
func (v *View) Witnesses(t relation.Tuple) ([]provenance.Witness, error) {
	res, err := v.basis()
	if err != nil {
		return nil, err
	}
	return res.Witnesses(t), nil
}

// basis returns the view's uncapped witness basis, computing it on first
// use.
func (v *View) basis() (*provenance.Result, error) {
	if v.wit == nil {
		res, err := computeBasis(v.q, v.db, provenance.Limit{})
		if err != nil {
			return nil, err
		}
		v.wit = res
	}
	return v.wit, nil
}

// WhereProvenance returns the source locations propagating to a view cell.
func (v *View) WhereProvenance(t relation.Tuple, attr relation.Attribute) ([]relation.Location, error) {
	if v.where == nil {
		wv, err := annotation.ComputeWhere(v.q, v.db)
		if err != nil {
			return nil, err
		}
		v.where = wv
	}
	return v.where.WhereOf(t, attr), nil
}

// Delete routes a deletion request and, when apply is true, applies the
// resulting source deletions to the database and invalidates caches. A
// route that needs the uncapped witness basis (SPU, SJ, or any route with
// opts.MaxWitnesses 0) uses the cached one, building and caching it on
// first use; a capped route builds its own, as Delete does.
func (v *View) Delete(target relation.Tuple, obj Objective, opts DeleteOptions, apply bool) (*DeleteReport, error) {
	rep, err := deleteWith(v.q, v.db, target, obj, opts, v.basis)
	if err != nil {
		return nil, err
	}
	if apply {
		v.Apply(rep.Result.T)
	}
	return rep, nil
}

// Annotate routes an annotation placement request against the view.
func (v *View) Annotate(target relation.Tuple, attr relation.Attribute) (*AnnotateReport, error) {
	return Annotate(v.q, v.db, target, attr)
}

// Apply deletes the given source tuples from the underlying database and
// invalidates all caches.
func (v *View) Apply(T []relation.SourceTuple) {
	for _, st := range T {
		if r := v.db.Relation(st.Rel); r != nil {
			r.Delete(st.Tuple)
		}
	}
	v.Invalidate()
}

// Invalidate drops the cached evaluation and provenance structures; the
// next access recomputes them.
func (v *View) Invalidate() {
	v.view = nil
	v.wit = nil
	v.where = nil
}

// Contains reports whether the view currently contains t.
func (v *View) Contains(t relation.Tuple) (bool, error) {
	view, err := v.Eval()
	if err != nil {
		return false, err
	}
	return view.Contains(t), nil
}

// Len returns the current view cardinality.
func (v *View) Len() (int, error) {
	view, err := v.Eval()
	if err != nil {
		return 0, err
	}
	return view.Len(), nil
}

// Explain renders a deletion report for humans: the chosen tuples, the
// algorithm and class, and the witnesses of the target it destroyed.
func (v *View) Explain(target relation.Tuple, rep *DeleteReport) (string, error) {
	ws, err := v.Witnesses(target)
	out := fmt.Sprintf("delete %v from the view (%s, %s)\n", target, rep.Fragment, rep.Class)
	out += fmt.Sprintf("algorithm: %s (exact: %v)\n", rep.Algorithm, rep.Exact)
	if err == nil && len(ws) > 0 {
		out += fmt.Sprintf("the target has %d witness(es); all are destroyed:\n", len(ws))
		for _, w := range ws {
			out += fmt.Sprintf("  %v\n", w)
		}
	}
	out += fmt.Sprintf("source deletions (%d):\n", len(rep.Result.T))
	for _, st := range rep.Result.T {
		out += fmt.Sprintf("  - %v\n", st)
	}
	if rep.Result.SideEffectFree() {
		out += "no view side-effects\n"
	} else {
		out += fmt.Sprintf("view side-effects (%d):\n", len(rep.Result.SideEffects))
		for _, t := range rep.Result.SideEffects {
			out += fmt.Sprintf("  - also lose %v\n", t)
		}
	}
	return out, nil
}
