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
//
// The rules are one annotation algebra of the shared delta evaluator
// (package annotree), the evaluator that also carries the witness bases
// of package provenance: a row's annotation is one location set per
// attribute, a scan interns a source tuple's locations, π and ∪ move sets
// to their output positions, ⋈ merges the sets of common attributes, an
// insertion unions a candidate's new contributions into its sets, and a
// deletion recomputes them from the live pre-images. ComputeWhere is an
// insertion from the empty instance, and the incremental maintenance in
// incremental.go is the same step. The test-only where reference
// (where_ref_test.go) evaluates the rules on plain maps, independently.
package annotation

import (
	"sort"
	"sync"

	"repro/internal/algebra"
	"repro/internal/annotree"
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
	// root is the retained annotated operator tree; its rows are the
	// view's, annotated with per-position source location sets.
	root *annotree.Node[[]locSet]
	in   *interner
	// reach holds, per interned location id, the number of view locations
	// its annotation reaches — the side-effect count placement compares.
	reach *reach
	met   *whereMetrics
}

// setsOf returns the per-position where sets of the view tuple with key k,
// nil when the tuple is not in the view.
func (wv *WhereView) setsOf(k string) []locSet {
	sets, _ := wv.root.Get(k)
	return sets
}

// ComputeWhere evaluates q over db with full where-provenance tracking.
// Polynomial in the total size of all intermediate results. The build is
// an insertion from the empty instance: ApplyInsertion of every tuple of
// q's base relations, in store order, into q's empty annotated tree — the
// step maintenance runs. The index starts with fresh counters, so
// MaintenanceTouched reports maintenance only.
func ComputeWhere(q algebra.Query, db *relation.Database) (*WhereView, error) {
	if err := algebra.Validate(q, db); err != nil {
		return nil, err
	}
	root := annotree.Empty[[]locSet](q, db, true)
	empty := &WhereView{View: relation.New(algebra.DefaultViewName, root.Schema()).Seal(), root: root,
		in: newInterner(), reach: &reach{}, met: &whereMetrics{}}
	wv := *empty.ApplyInsertion(db.SourceTuplesOf(algebra.BaseRelations(q)))
	wv.met = &whereMetrics{}
	return &wv, nil
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
	id, ok := wv.in.lookup(src)
	if !ok {
		return relation.NewLocationSet()
	}
	return wv.affected(id, src)
}

// affected is Affected of src, whose interned id is id.
func (wv *WhereView) affected(id int32, src relation.Location) *relation.LocationSet {
	attrs := wv.View.Schema().Attrs()
	var locs []relation.Location
	holds := func(sets []locSet) bool {
		for _, s := range sets {
			if s.has(id) {
				return true
			}
		}
		return false
	}
	for _, h := range wv.root.ReachUp(src.Rel, src.Tuple, holds) {
		for pos, set := range h.A {
			if set.has(id) {
				locs = append(locs, relation.Loc(wv.View.Name(), h.T, attrs[pos]))
			}
		}
	}
	relation.SortLocations(locs)
	return relation.NewLocationSet(locs...)
}

// InternedLocations returns the number of source locations the index's
// interner has given ids, over the whole generation chain: every location
// of every tuple a scan ever held, live or not.
func (wv *WhereView) InternedLocations() int { return wv.in.size() }

// LiveLocations returns the number of source locations this generation's
// scans hold: one per attribute of every live tuple of each scanned
// relation. ComputeWhere interns exactly these, so the gap to
// InternedLocations is the locations of tuples maintenance has since
// deleted.
func (wv *WhereView) LiveLocations() int {
	seen := make(map[string]bool)
	n := 0
	wv.root.Scans(func(rel string, arity, rows int) {
		if !seen[rel] {
			seen[rel] = true
			n += rows * arity
		}
	})
	return n
}

// ForwardPropagate computes the view locations annotated by a single
// annotation placed at src, by evaluating the query once with full
// where-provenance; a caller holding a WhereView asks its Affected instead.
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
