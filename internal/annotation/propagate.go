// Package annotation implements the annotation model of §3 of the paper:
// annotations live on locations (R, t, A), are carried from source to view
// by the forward propagation rules (one per monotone operator), and the
// annotation placement problem asks for a source location whose annotation
// reaches a given view location with the fewest side-effects.
//
// The central computation is where-provenance: for every view location,
// the set of source locations whose annotation would propagate there. The
// propagation rules are implemented exactly as stated:
//
//	Selection:  (R,t',A) → (σ_C(R),t,A)        if t = t'
//	Projection: (R,t',A) → (Π_B(R),t,A)        if A ∈ B and t'.B = t
//	Join:       (R1,t1,A) → (R1⋈R2,t,A)        if t.R1 = t1   (symm. R2)
//	Union:      (R1,t1,A) → (R1∪R2,t,A)        if t = t1      (symm. R2)
//	Renaming:   (R,t,A)  → (δ_θ(R),t',θ(A))    if t' = t
//
// "Equality of similarly named fields" is the propagation reason; explicit
// equality in selection conditions does NOT transport annotations across
// attributes, which is why σ_{A=B} does not copy A's annotations to B.
package annotation

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/overlay"
	"repro/internal/relation"
)

// locSet is a small set of source-location ids (dense ints), kept sorted.
// Where-provenance sets are typically tiny; sorted slices beat maps here
// and give canonical forms for free.
type locSet []int32

func (s locSet) has(id int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == id
}

// union merges two sorted sets.
func (s locSet) union(t locSet) locSet {
	if len(t) == 0 {
		return s
	}
	if len(s) == 0 {
		return t
	}
	out := make(locSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// interner assigns dense ids to source locations.
type interner struct {
	ids  map[string]int32
	locs []relation.Location
}

func newInterner() *interner { return &interner{ids: make(map[string]int32)} }

func (in *interner) id(l relation.Location) int32 {
	k := l.Key()
	if id, ok := in.ids[k]; ok {
		return id
	}
	id := int32(len(in.locs))
	in.ids[k] = id
	in.locs = append(in.locs, l)
	return id
}

func (in *interner) lookup(l relation.Location) (int32, bool) {
	id, ok := in.ids[l.Key()]
	return id, ok
}

// WhereView is a view evaluated with where-provenance: every (tuple,
// attribute) position carries the set of source locations that propagate
// to it under the forward rules. The view keeps the full annotated
// operator tree it was computed from, so a source deletion derives the
// next generation of the index incrementally (ApplyDeletion) instead of
// forcing a recomputation.
type WhereView struct {
	// View is Q(S), named algebra.DefaultViewName.
	View *relation.Relation
	// root is the retained annotated operator tree; its ann map keys view
	// tuple keys to per-position source location sets.
	root *annNode
	in   *interner
	met  *whereMetrics
}

// setsOf returns the per-position where sets of the view tuple with key k,
// nil when the tuple is not in the view.
func (wv *WhereView) setsOf(k string) []locSet {
	if e, ok := wv.root.ann.Get(k); ok {
		return e.sets
	}
	return nil
}

// ComputeWhere evaluates q over db with full where-provenance tracking.
// Polynomial in the total size of all intermediate results.
func ComputeWhere(q algebra.Query, db *relation.Database) (*WhereView, error) {
	if err := algebra.Validate(q, db); err != nil {
		return nil, err
	}
	in := newInterner()
	ar, err := annEval(q, db, in)
	if err != nil {
		return nil, err
	}
	view := relation.New(algebra.DefaultViewName, ar.rel.Schema())
	ar.rel.Each(func(t relation.Tuple) bool {
		view.Insert(t)
		return true
	})
	return &WhereView{View: view.Seal(), root: ar.node, in: in, met: &whereMetrics{}}, nil
}

// WhereOf returns the source locations whose annotation propagates to view
// location (t, attr): the where-provenance of that location. Nil if the
// tuple or attribute is absent.
func (wv *WhereView) WhereOf(t relation.Tuple, attr relation.Attribute) []relation.Location {
	sets := wv.setsOf(t.Key())
	if sets == nil {
		return nil
	}
	pos, ok := wv.View.Schema().Index(attr)
	if !ok {
		return nil
	}
	set := sets[pos]
	out := make([]relation.Location, len(set))
	for i, id := range set {
		out[i] = wv.in.locs[id]
	}
	return out
}

// PropagatesTo reports whether annotating source location src would
// annotate view location (t, attr).
func (wv *WhereView) PropagatesTo(src relation.Location, t relation.Tuple, attr relation.Attribute) bool {
	id, ok := wv.in.lookup(src)
	if !ok {
		return false
	}
	sets := wv.setsOf(t.Key())
	if sets == nil {
		return false
	}
	pos, ok := wv.View.Schema().Index(attr)
	if !ok {
		return false
	}
	return sets[pos].has(id)
}

// Affected returns every view location annotated by placing an annotation
// at source location src — the forward image of src, including the target
// itself when it propagates.
func (wv *WhereView) Affected(src relation.Location) *relation.LocationSet {
	out := relation.NewLocationSet()
	id, ok := wv.in.lookup(src)
	if !ok {
		return out
	}
	attrs := wv.View.Schema().Attrs()
	for _, t := range wv.View.Tuples() {
		for pos, set := range wv.setsOf(t.Key()) {
			if set.has(id) {
				out.Add(relation.Loc(wv.View.Name(), t, attrs[pos]))
			}
		}
	}
	return out
}

// SourceLocations returns every source location that reaches at least one
// view location (the union of all where-sets), in interning order.
func (wv *WhereView) SourceLocations() []relation.Location {
	seen := make([]bool, len(wv.in.locs))
	wv.root.ann.Each(func(_ string, e annEntry) bool {
		for _, set := range e.sets {
			for _, id := range set {
				seen[id] = true
			}
		}
		return true
	})
	var out []relation.Location
	for i, ok := range seen {
		if ok {
			out = append(out, wv.in.locs[i])
		}
	}
	return out
}

// annRel is an intermediate result of the annotated evaluation: the
// operator's output relation (driving the parent's iteration during the
// full computation) and its retained tree node. The relations of inner
// nodes are transient — only the node survives into the WhereView.
type annRel struct {
	rel  *relation.Relation
	node *annNode
}

// get resolves one build-time entry of this node (always present for a
// tuple the operator just produced).
func (ar *annRel) get(t relation.Tuple) annEntry {
	e, _ := ar.node.ann.Get(t.Key())
	return e
}

func annEval(q algebra.Query, db *relation.Database, in *interner) (*annRel, error) {
	switch q := q.(type) {
	case algebra.Scan:
		base := db.Relation(q.Rel)
		attrs := base.Schema().Attrs()
		m := make(map[string]annEntry, base.Len())
		base.Each(func(t relation.Tuple) bool {
			sets := make([]locSet, len(attrs))
			for i, a := range attrs {
				sets[i] = locSet{in.id(relation.Loc(q.Rel, t, a))}
			}
			m[t.Key()] = annEntry{t: t, sets: sets}
			return true
		})
		node := &annNode{kind: nodeScan, relName: q.Rel, ann: overlay.NewMap(m)}
		return &annRel{rel: base, node: node}, nil

	case algebra.Select:
		child, err := annEval(q.Child, db, in)
		if err != nil {
			return nil, err
		}
		rel := relation.New("σ", child.rel.Schema())
		m := make(map[string]annEntry)
		child.rel.Each(func(t relation.Tuple) bool {
			if q.Cond.Holds(child.rel.Schema(), t) {
				rel.Insert(t)
				m[t.Key()] = child.get(t)
			}
			return true
		})
		node := &annNode{kind: nodeSelect, kids: []*annNode{child.node}, ann: overlay.NewMap(m)}
		return &annRel{rel: rel, node: node}, nil

	case algebra.Project:
		child, err := annEval(q.Child, db, in)
		if err != nil {
			return nil, err
		}
		schema, perr := child.rel.Schema().Project(q.Attrs)
		if perr != nil {
			return nil, perr
		}
		positions := make([]int, len(q.Attrs))
		for i, a := range q.Attrs {
			positions[i], _ = child.rel.Schema().Index(a)
		}
		rel := relation.New("π", schema)
		m := make(map[string]annEntry)
		pre := make(map[string][]string)
		child.rel.Each(func(t relation.Tuple) bool {
			pt := t.Project(positions)
			rel.Insert(pt)
			k := pt.Key()
			e, ok := m[k]
			if !ok {
				e = annEntry{t: pt, sets: make([]locSet, len(positions))}
			}
			// Projection merges all pre-images: every child tuple with
			// t'.B = t contributes its sets (rule 2).
			childSets := child.get(t).sets
			for i, p := range positions {
				e.sets[i] = e.sets[i].union(childSets[p])
			}
			m[k] = e
			pre[k] = append(pre[k], t.Key())
			return true
		})
		node := &annNode{kind: nodeProject, kids: []*annNode{child.node},
			ann: overlay.NewMap(m), positions: positions, preimages: pre}
		return &annRel{rel: rel, node: node}, nil

	case algebra.Join:
		left, err := annEval(q.Left, db, in)
		if err != nil {
			return nil, err
		}
		right, err := annEval(q.Right, db, in)
		if err != nil {
			return nil, err
		}
		ls, rs := left.rel.Schema(), right.rel.Schema()
		outSchema := ls.Join(rs)
		rel := relation.New("⋈", outSchema)
		common := ls.Common(rs)
		lbuck := make(map[string][]relation.Tuple)
		left.rel.Each(func(lt relation.Tuple) bool {
			k := relation.ProjectAttrs(ls, lt, common).Key()
			//lint:ignore eachretain join buckets alias the immutable annotated snapshot and are only probed, never written through
			lbuck[k] = append(lbuck[k], lt)
			return true
		})
		rbuck := make(map[string][]relation.Tuple)
		right.rel.Each(func(rt relation.Tuple) bool {
			k := relation.ProjectAttrs(rs, rt, common).Key()
			//lint:ignore eachretain join buckets alias the immutable annotated snapshot and are only probed, never written through
			rbuck[k] = append(rbuck[k], rt)
			return true
		})
		// Output position → (left position, right position); -1 if absent
		// on that side. Common attributes pull from both (rules for R1 and
		// R2 both apply). rpos/ronly record where each right position lands
		// in the output (the output is the left tuple plus the right side's
		// non-common attributes, in right-schema order).
		mapping := make([]srcPos, outSchema.Len())
		for i, a := range outSchema.Attrs() {
			lp, lok := ls.Index(a)
			rp, rok := rs.Index(a)
			sp := srcPos{l: -1, r: -1}
			if lok {
				sp.l = lp
			}
			if rok {
				sp.r = rp
			}
			mapping[i] = sp
		}
		rpos := make([]int, rs.Len())
		var ronly []int
		for j, a := range rs.Attrs() {
			if lp, ok := ls.Index(a); ok {
				rpos[j] = lp
			} else {
				rpos[j] = ls.Len() + len(ronly)
				ronly = append(ronly, j)
			}
		}
		node := &annNode{kind: nodeJoin, kids: []*annNode{left.node, right.node},
			ls: ls, rs: rs, common: common, ronly: ronly,
			lbuck: lbuck, rbuck: rbuck, mapping: mapping, rpos: rpos}
		m := make(map[string]annEntry)
		left.rel.Each(func(lt relation.Tuple) bool {
			k := relation.ProjectAttrs(ls, lt, common).Key()
			lsets := left.get(lt).sets
			for _, rt := range rbuck[k] {
				rsets := right.get(rt).sets
				joined := node.joined(lt, rt)
				rel.Insert(joined)
				sets := make([]locSet, len(mapping))
				for i, sp := range mapping {
					var s locSet
					if sp.l >= 0 {
						s = s.union(lsets[sp.l])
					}
					if sp.r >= 0 {
						s = s.union(rsets[sp.r])
					}
					sets[i] = s
				}
				m[joined.Key()] = annEntry{t: joined, sets: sets}
			}
			return true
		})
		node.ann = overlay.NewMap(m)
		return &annRel{rel: rel, node: node}, nil

	case algebra.Union:
		left, err := annEval(q.Left, db, in)
		if err != nil {
			return nil, err
		}
		right, err := annEval(q.Right, db, in)
		if err != nil {
			return nil, err
		}
		rel := relation.New("∪", left.rel.Schema())
		m := make(map[string]annEntry)
		left.rel.Each(func(t relation.Tuple) bool {
			rel.Insert(t)
			le := left.get(t)
			sets := make([]locSet, len(le.sets))
			copy(sets, le.sets)
			m[t.Key()] = annEntry{t: t, sets: sets}
			return true
		})
		attrs := left.rel.Schema().Attrs()
		positions := make([]int, len(attrs))
		for i, a := range attrs {
			positions[i], _ = right.rel.Schema().Index(a)
		}
		inv := make([]int, len(positions))
		for i, p := range positions {
			inv[p] = i
		}
		right.rel.Each(func(t relation.Tuple) bool {
			aligned := t.Project(positions)
			rel.Insert(aligned)
			rsets := right.get(t).sets
			k := aligned.Key()
			e, ok := m[k]
			if !ok {
				e = annEntry{t: aligned, sets: make([]locSet, len(attrs))}
			}
			for i, p := range positions {
				e.sets[i] = e.sets[i].union(rsets[p])
			}
			m[k] = e
			return true
		})
		node := &annNode{kind: nodeUnion, kids: []*annNode{left.node, right.node},
			ann: overlay.NewMap(m), positions: positions, inv: inv}
		return &annRel{rel: rel, node: node}, nil

	case algebra.Rename:
		child, err := annEval(q.Child, db, in)
		if err != nil {
			return nil, err
		}
		schema, rerr := child.rel.Schema().Rename(q.Theta)
		if rerr != nil {
			return nil, rerr
		}
		rel := relation.New("δ", schema)
		m := make(map[string]annEntry)
		child.rel.Each(func(t relation.Tuple) bool {
			rel.Insert(t)
			m[t.Key()] = child.get(t)
			return true
		})
		node := &annNode{kind: nodeRename, kids: []*annNode{child.node}, ann: overlay.NewMap(m)}
		return &annRel{rel: rel, node: node}, nil

	default:
		return nil, fmt.Errorf("annotation: unknown query node %T", q)
	}
}

// ForwardPropagate computes the view locations annotated by a single
// annotation placed at src, by evaluating the query once with full
// where-provenance. The Mark variant below avoids the full computation.
func ForwardPropagate(q algebra.Query, db *relation.Database, src relation.Location) (*relation.LocationSet, error) {
	wv, err := ComputeWhere(q, db)
	if err != nil {
		return nil, err
	}
	return wv.Affected(src), nil
}

// PropagationRelation materializes the relation R(Q,S) of Theorem 3.1
// between source locations and view locations, as a sorted list of pairs.
// Used by the normal-form preservation tests.
func PropagationRelation(q algebra.Query, db *relation.Database) ([][2]relation.Location, error) {
	wv, err := ComputeWhere(q, db)
	if err != nil {
		return nil, err
	}
	var out [][2]relation.Location
	attrs := wv.View.Schema().Attrs()
	for _, t := range wv.View.Tuples() {
		sets := wv.setsOf(t.Key())
		for pos, set := range sets {
			vloc := relation.Loc(wv.View.Name(), t, attrs[pos])
			for _, id := range set {
				out = append(out, [2]relation.Location{wv.in.locs[id], vloc})
			}
		}
	}
	sortPairs(out)
	return out, nil
}

func sortPairs(ps [][2]relation.Location) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a[0].Key() != b[0].Key() {
			return a[0].Less(b[0])
		}
		return a[1].Less(b[1])
	})
}
