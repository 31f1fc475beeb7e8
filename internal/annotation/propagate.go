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
	"sync"

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

// interner assigns dense ids to source locations, the attributes of one
// source tuple getting consecutive ids. One interner serves every
// generation of an index and only ever appends: an id, once given, names
// the same location for the life of the chain — a deleted and restored
// tuple gets its old ids back — so where-sets and reach counts stay
// comparable across generations. The lock lets concurrent maintenance
// passes intern at once: two catch-ups replaying from the same base
// generation.
type interner struct {
	mu sync.Mutex
	// rels maps a relation name to its interned tuples.
	// guarded-by: mu
	rels map[string]*internedRel
	// tuples lists the interned tuples in interning order.
	// guarded-by: mu
	tuples []internedTuple
	// owner maps a location id to its tuple's index in tuples.
	// guarded-by: mu
	owner []int32
}

// internedRel is one source relation's part of an interner.
type internedRel struct {
	name  string
	attrs []relation.Attribute
	byKey map[string]int32 // tuple key → index in interner.tuples
}

// internedTuple is one source tuple whose locations have ids first,
// first+1, … in attribute order.
type internedTuple struct {
	rel   *internedRel
	t     relation.Tuple
	first int32
}

func newInterner() *interner { return &interner{rels: make(map[string]*internedRel)} }

// scanSets interns the locations of source tuple t of relation rel (tk is
// t's key), one per attribute, and returns them as the tuple's
// per-position singleton where-sets.
func (in *interner) scanSets(rel string, t relation.Tuple, tk string, attrs []relation.Attribute) []locSet {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rels[rel]
	if r == nil {
		r = &internedRel{name: rel, attrs: attrs, byKey: make(map[string]int32)}
		in.rels[rel] = r
	}
	var first int32
	if ti, ok := r.byKey[tk]; ok {
		first = in.tuples[ti].first
	} else {
		first = int32(len(in.owner))
		r.byKey[tk] = int32(len(in.tuples))
		for range attrs {
			in.owner = append(in.owner, int32(len(in.tuples)))
		}
		in.tuples = append(in.tuples, internedTuple{rel: r, t: t, first: first})
	}
	ids := make([]int32, len(attrs))
	sets := make([]locSet, len(attrs))
	for i := range attrs {
		ids[i] = first + int32(i)
		sets[i] = ids[i : i+1 : i+1]
	}
	return sets
}

func (in *interner) lookup(l relation.Location) (int32, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rels[l.Rel]
	if r == nil {
		return 0, false
	}
	ti, ok := r.byKey[l.Tuple.Key()]
	if !ok {
		return 0, false
	}
	for i, a := range r.attrs {
		if a == l.Attr {
			return in.tuples[ti].first + int32(i), true
		}
	}
	return 0, false
}

// loc returns the location with the given id.
func (in *interner) loc(id int32) relation.Location {
	in.mu.Lock()
	defer in.mu.Unlock()
	it := in.tuples[in.owner[id]]
	return relation.Loc(it.rel.name, it.t, it.rel.attrs[id-it.first])
}

// size returns the number of locations interned so far.
func (in *interner) size() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.owner)
}

// WhereView is a view evaluated with where-provenance: every (tuple,
// attribute) position carries the set of source locations that propagate
// to it under the forward rules. The view keeps the full annotated
// operator tree it was computed from, so a source deletion or insertion
// derives the next generation of the index incrementally (ApplyDeletion,
// ApplyInsertion) instead of forcing a recomputation.
type WhereView struct {
	// View is Q(S), named algebra.DefaultViewName.
	View *relation.Relation
	// root is the retained annotated operator tree; its ann map keys view
	// tuple keys to per-position source location sets.
	root *annNode
	in   *interner
	// reach holds, per interned location id, the number of view locations
	// its annotation reaches — the side-effect count placement compares.
	reach *reach
	met   *whereMetrics
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
	// The view shares its tuples with the root's entries, in evaluation
	// order.
	rows := make([]relation.Tuple, 0, ar.rel.Len())
	ar.rel.Each(func(t relation.Tuple) bool {
		rows = append(rows, ar.get(t).t)
		return true
	})
	counts := make([]int32, in.size())
	ar.node.ann.Each(func(_ string, e annEntry) bool {
		for _, set := range e.sets {
			for _, id := range set {
				counts[id]++
			}
		}
		return true
	})
	view := relation.Adopt(algebra.DefaultViewName, ar.rel.Schema(), rows)
	return &WhereView{View: view, root: ar.node, in: in, reach: newReach(counts), met: &whereMetrics{}}, nil
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
		out[i] = wv.in.loc(id)
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
// itself when it propagates — inserted in location order. It follows src's
// tuple up the retained operator tree (reachUp), so the cost is the
// tuple's fan-out through the operators, not the size of the view.
func (wv *WhereView) Affected(src relation.Location) *relation.LocationSet {
	out := relation.NewLocationSet()
	id, ok := wv.in.lookup(src)
	if !ok {
		return out
	}
	attrs := wv.View.Schema().Attrs()
	var locs []relation.Location
	for _, e := range wv.root.reachUp(src.Rel, src.Tuple, id) {
		for pos, set := range e.sets {
			if set.has(id) {
				locs = append(locs, relation.Loc(wv.View.Name(), e.t, attrs[pos]))
			}
		}
	}
	relation.SortLocations(locs)
	for _, l := range locs {
		out.Add(l)
	}
	return out
}

// SourceLocations returns every source location that reaches at least one
// view location (the union of all where-sets), in interning order.
func (wv *WhereView) SourceLocations() []relation.Location {
	var out []relation.Location
	for id, n := 0, wv.in.size(); id < n; id++ {
		if wv.reach.get(int32(id)) > 0 {
			out = append(out, wv.in.loc(int32(id)))
		}
	}
	return out
}

// InternedLocations returns the number of source locations the index's
// interner has given ids, over the whole generation chain: every location
// of every tuple a scan ever held, live or not.
func (wv *WhereView) InternedLocations() int { return wv.in.size() }

// LiveLocations returns the number of source locations this generation's
// scans hold: one per attribute of every live tuple of each scanned
// relation. A from-scratch ComputeWhere interns exactly these, so the gap
// to InternedLocations is what maintenance has accumulated.
func (wv *WhereView) LiveLocations() int {
	seen := make(map[string]bool)
	n := 0
	var walk func(an *annNode)
	walk = func(an *annNode) {
		if an.kind == nodeScan && !seen[an.relName] {
			seen[an.relName] = true
			n += an.ann.Size() * len(an.attrs)
		}
		for _, k := range an.kids {
			walk(k)
		}
	}
	walk(wv.root)
	return n
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
			k := t.Key()
			m[k] = annEntry{t: t, sets: in.scanSets(q.Rel, t, k, attrs)}
			return true
		})
		node := &annNode{kind: nodeScan, relName: q.Rel, attrs: attrs, ann: overlay.NewMap(m)}
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
		node := &annNode{kind: nodeSelect, kids: []*annNode{child.node}, ann: overlay.NewMap(m),
			cond: q.Cond, csch: child.rel.Schema()}
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
		pre := make(map[string][]relation.Tuple)
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
			ce := child.get(t)
			for i, p := range positions {
				e.sets[i] = e.sets[i].union(ce.sets[p])
			}
			m[k] = e
			pre[k] = append(pre[k], ce.t)
			return true
		})
		node := &annNode{kind: nodeProject, kids: []*annNode{child.node},
			ann: overlay.NewMap(m), positions: positions, pre: overlay.NewBuckets(pre)}
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
		lkey, rkey := make([]int, len(common)), make([]int, len(common))
		for i, a := range common {
			lkey[i], _ = ls.Index(a)
			rkey[i], _ = rs.Index(a)
		}
		lbuck := make(map[string][]relation.Tuple)
		left.rel.Each(func(lt relation.Tuple) bool {
			k := lt.Project(lkey).Key()
			//lint:ignore eachretain join buckets alias the immutable annotated snapshot and are only probed, never written through
			lbuck[k] = append(lbuck[k], lt)
			return true
		})
		rbuck := make(map[string][]relation.Tuple)
		right.rel.Each(func(rt relation.Tuple) bool {
			k := rt.Project(rkey).Key()
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
			ls: ls, ronly: ronly, lkey: lkey, rkey: rkey,
			lbuck: overlay.NewBuckets(lbuck), rbuck: overlay.NewBuckets(rbuck), mapping: mapping, rpos: rpos}
		m := make(map[string]annEntry)
		left.rel.Each(func(lt relation.Tuple) bool {
			k := lt.Project(lkey).Key()
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
		// A left entry is shared as is until a right tuple merges into it;
		// the alignment is a permutation, so that happens at most once per
		// key, and the merge copies the sets first.
		left.rel.Each(func(t relation.Tuple) bool {
			rel.Insert(t)
			m[t.Key()] = left.get(t)
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
			sets := make([]locSet, len(attrs))
			if ok {
				copy(sets, e.sets)
			} else {
				e.t = aligned
			}
			for i, p := range positions {
				sets[i] = sets[i].union(rsets[p])
			}
			m[k] = annEntry{t: e.t, sets: sets}
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
				out = append(out, [2]relation.Location{wv.in.loc(id), vloc})
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
