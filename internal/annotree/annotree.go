// Package annotree is the delta evaluator behind both kinds of provenance
// the paper carries through SPJRU views: why-provenance (minimal witness
// bases, package provenance) and where-provenance (source-location sets,
// package annotation). In the semiring view of Green, Karvounarakis and
// Tannen (PODS 2007) these are one evaluation with one annotation algebra
// per kind. This package is that one evaluation. It owns the operator
// tree, its statics and the step that propagates a source write up the
// tree; an Algebra supplies only the scan annotation and the
// per-candidate rules.
//
// A tree mirrors the query's operator tree. Every node keeps, as
// persistent overlay generations (package overlay), a map from its rows'
// keys to their annotations; the map's keys are the node's rows, and no
// node keeps a relation. A join node also keeps bucket indexes of both
// operands on the join attributes, and a projection keeps a pre-image
// index when its algebra recomputes deletions from the live pre-images.
//
// Step derives a node's next generation in O(|Δ|): children first, then
// the candidates (the images of the children's delta rows through the
// operator), then one rule per candidate, then the overlay derives. A
// subtree the write cannot reach is shared by pointer.
package annotree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/layered"
	"repro/internal/overlay"
	"repro/internal/relation"
)

// Algebra is one kind of annotation: how a scan annotates an inserted
// source tuple, how π, ∪ and ⋈ carry child annotations up, and the rule
// each direction applies to a candidate row. Annotations are immutable
// once stored: the methods build fresh values and never write through
// their arguments.
type Algebra[A any] interface {
	// Scan annotates the inserted source tuple t, with key k, of relation
	// rel, whose attributes are attrs.
	Scan(rel string, attrs []relation.Attribute, t relation.Tuple, k string) A
	// Lift carries a child annotation through π, or through ∪ from its
	// right operand: output position i reads input position pos[i].
	Lift(pos []int, a A) A
	// Join combines the annotations of a ⋈ output row's two operands.
	Join(m []SrcPos, l, r A) A
	// Add accumulates the contribution c onto acc, the zero A at first.
	Add(acc, c A) A
	// Grow is the insertion rule: a candidate holding old (had is false
	// when the node lacks it) gains the accumulated contributions acc. It
	// returns the next annotation, the delta the parent folds in, and
	// whether the row changed.
	Grow(old A, had bool, acc A) (next, delta A, grew bool, err error)
	// Shrink is the deletion rule for a candidate the node holds with
	// annotation old. acc accumulates the contributions of its live
	// pre-images and live reports whether there are any; both are
	// computed only for an algebra that Recomputes.
	Shrink(old, acc A, live bool) (next A, alive, changed bool)
	// Recomputes reports whether Shrink reads the live pre-images.
	Recomputes() bool
}

// SrcPos maps one join output position to its operand positions: -1 when
// the attribute is absent on that side. Common attributes read both.
type SrcPos struct{ L, R int }

// Status says how a delta row changed at its node.
type Status uint8

const (
	// Died rows left the node.
	Died Status = iota
	// Changed rows stayed with a new annotation.
	Changed
	// Added rows are new to the node.
	Added
)

// Row is one row of a node's delta: the row, its key, how it changed and
// an annotation. A died row carries its old annotation; a changed or added
// row carries what the parent folds in — the algebra's delta on an
// insertion, the new annotation on a deletion.
type Row[A any] struct {
	T relation.Tuple
	K string
	S Status
	A A
}

// Metrics counts a tree's maintenance over its generation chain: one
// instance is shared by every generation, so the counters are cumulative
// and safe for concurrent readers. The embedded counters count the
// compactions of every overlay map of the tree, annotations and indexes
// alike.
type Metrics struct {
	layered.Counters
	// scan tuples, candidates, join partners and pre-images examined
	// guarded-by: atomic
	touched atomic.Int64
	// subtrees a step passed on by pointer
	// guarded-by: atomic
	shared atomic.Int64
	// nodes given a new generation
	// guarded-by: atomic
	rewritten atomic.Int64
}

// Touched reports the scan tuples, candidate rows, join partners and
// projection pre-images that maintenance examined: the O(|Δ|) work a
// step does, not the tree's size.
func (m *Metrics) Touched() int64 { return m.touched.Load() }

// Shared reports the subtrees maintenance passed on by pointer.
func (m *Metrics) Shared() int64 { return m.shared.Load() }

// Rewritten reports the nodes maintenance gave a new generation.
func (m *Metrics) Rewritten() int64 { return m.rewritten.Load() }

// touch advances the work counter; nil (a read-only walk) counts nothing.
func (m *Metrics) touch() {
	if m != nil {
		m.touched.Add(1)
	}
}

type kind uint8

const (
	kScan kind = iota
	kSelect
	kProject
	kJoin
	kUnion
	kRename
)

// op is one operator's statics, fixed when Empty builds the tree and
// shared by every generation.
type op struct {
	kind kind
	sch  relation.Schema // output schema
	rels []string        // base relations of the subtree, for sharing

	// scan: the relation and its attributes.
	rel   string
	attrs []relation.Attribute
	// σ: the condition and the child schema it reads.
	cond algebra.Condition
	csch relation.Schema
	// π: pos[i] is the child position of output position i. ∪: pos[i] is
	// the right operand's position of output position i, and inv its
	// inverse.
	pos, inv []int
	// ⋈: the output is the left row followed by the right row's ronly
	// positions; lkey and rkey are the join attributes' positions in each
	// operand, rpos each right position's output position, and mapping
	// each output position's operand positions. ls is the left arity.
	ls                      int
	lkey, rkey, ronly, rpos []int
	mapping                 []SrcPos
}

func (o *op) leftKey(t relation.Tuple) string  { return t.Project(o.lkey).Key() }
func (o *op) rightKey(t relation.Tuple) string { return t.Project(o.rkey).Key() }
func (o *op) imageKey(t relation.Tuple) string { return t.Project(o.pos).Key() }

// joined builds the ⋈ output row of a (left, right) pair.
func (o *op) joined(lt, rt relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, 0, o.ls+len(o.ronly))
	out = append(out, lt...)
	for _, p := range o.ronly {
		out = append(out, rt[p])
	}
	return out
}

// Node is one operator of an annotated tree. Its annotation map and
// indexes are persistent overlay generations; its statics are shared by
// every generation derived from it.
type Node[A any] struct {
	op   *op
	kids []*Node[A]
	ann  *overlay.Map[A]
	// ⋈: join key → the live rows of each operand.
	lbuck, rbuck *overlay.Map[overlay.BucketVal]
	// π, when the algebra recomputes: output key → child rows projecting
	// onto it.
	pre *overlay.Map[overlay.BucketVal]
}

// Empty builds q's annotated tree over the empty instance: every node's
// statics, with empty maps and indexes. preimages gives projections a
// pre-image index, for an algebra that Recomputes. q must have passed
// algebra.Validate against db.
func Empty[A any](q algebra.Query, db *relation.Database, preimages bool) *Node[A] {
	n := &Node[A]{ann: overlay.NewMap(map[string]A{})}
	var kids []relation.Schema
	seen := make(map[string]bool)
	o := &op{}
	for _, c := range algebra.Children(q) {
		k := Empty[A](c, db, preimages)
		n.kids = append(n.kids, k)
		kids = append(kids, k.op.sch)
		for _, rel := range k.op.rels {
			if !seen[rel] {
				seen[rel] = true
				o.rels = append(o.rels, rel)
			}
		}
	}
	o.sch, _ = algebra.SchemaOf(q, db)
	switch q := q.(type) {
	case algebra.Scan:
		o.kind, o.rel, o.attrs, o.rels = kScan, q.Rel, o.sch.Attrs(), []string{q.Rel}
	case algebra.Select:
		o.kind, o.cond, o.csch = kSelect, q.Cond, kids[0]
	case algebra.Rename:
		o.kind = kRename
	case algebra.Project:
		o.kind, o.pos = kProject, positionsOf(kids[0], q.Attrs)
		if preimages {
			n.pre = overlay.NewBuckets(nil)
		}
	case algebra.Union:
		o.kind, o.pos = kUnion, positionsOf(kids[1], o.sch.Attrs())
		o.inv = make([]int, len(o.pos))
		for i, p := range o.pos {
			o.inv[p] = i
		}
	case algebra.Join:
		ls, rs := kids[0], kids[1]
		common := ls.Common(rs)
		o.kind, o.ls = kJoin, ls.Len()
		o.lkey, o.rkey = positionsOf(ls, common), positionsOf(rs, common)
		n.lbuck, n.rbuck = overlay.NewBuckets(nil), overlay.NewBuckets(nil)
		o.mapping = make([]SrcPos, o.sch.Len())
		for i, a := range o.sch.Attrs() {
			sp := SrcPos{L: -1, R: -1}
			if lp, ok := ls.Index(a); ok {
				sp.L = lp
			}
			if rp, ok := rs.Index(a); ok {
				sp.R = rp
			}
			o.mapping[i] = sp
		}
		o.rpos = make([]int, rs.Len())
		for j, a := range rs.Attrs() {
			if lp, ok := ls.Index(a); ok {
				o.rpos[j] = lp
			} else {
				o.rpos[j] = ls.Len() + len(o.ronly)
				o.ronly = append(o.ronly, j)
			}
		}
	default:
		// Validate rejects every other node type before a tree is built.
		panic(fmt.Sprintf("annotree: unknown query node %T", q))
	}
	n.op = o
	return n
}

// positionsOf returns the positions of attrs in s.
func positionsOf(s relation.Schema, attrs []relation.Attribute) []int {
	out := make([]int, len(attrs))
	for i, a := range attrs {
		out[i], _ = s.Index(a)
	}
	return out
}

// Schema returns the node's output schema.
func (n *Node[A]) Schema() relation.Schema { return n.op.sch }

// Get returns the annotation of the node's row with key k.
func (n *Node[A]) Get(k string) (A, bool) { return n.ann.Get(k) }

// Write is one maintenance step's input: the written source tuples by
// relation, the direction, and the chain's counters.
type Write struct {
	ins   bool
	byRel map[string][]relation.Tuple
	met   *Metrics
}

// NewWrite groups ts by relation for a step: an insertion when ins, else
// a deletion. The tuples are retained and must not be mutated.
func NewWrite(ts []relation.SourceTuple, ins bool, met *Metrics) *Write {
	byRel := make(map[string][]relation.Tuple, 1)
	for _, st := range ts {
		byRel[st.Rel] = append(byRel[st.Rel], st.Tuple)
	}
	return &Write{ins: ins, byRel: byRel, met: met}
}

// Reaches reports whether the write touches a base relation of n's
// subtree.
func (n *Node[A]) Reaches(w *Write) bool {
	for _, rel := range n.op.rels {
		if len(w.byRel[rel]) > 0 {
			return true
		}
	}
	return false
}

// Step propagates one write through this node: children first, then the
// node maps their delta rows to candidate rows (images), applies one rule
// per candidate, maintains its indexes and derives its next generation.
// It returns the maintained node — the receiver itself when nothing below
// changed — and the node's delta, in candidate order. The first error of
// the algebra's Grow, children left to right, aborts the step.
//
// Candidates and their rules:
//   - σ and δ keep rows as they are: a candidate carries its child row's
//     status and the child's annotation. σ filters the rows an insertion
//     adds; otherwise the node's own map decides.
//   - π, ∪ and ⋈ apply the algebra: on an insertion Grow folds each
//     candidate's contributions into its old annotation; on a deletion
//     Shrink settles each candidate the node holds.
//
// A ⋈ deletion probes the pre-step operands: a partner dying in the same
// step still pairs, and its output rows must be re-examined. A ⋈
// insertion extends the bucket indexes first and probes the new right
// operand for the left delta and the old left operand for the right
// delta, so each pair, added×added included, is found exactly once.
//
// propview:deterministic
func (n *Node[A]) Step(w *Write, alg Algebra[A]) (*Node[A], []Row[A], error) {
	if !n.Reaches(w) {
		w.met.shared.Add(1)
		return n, nil, nil
	}
	o := n.op
	if o.kind == kScan {
		return n.scan(w, alg)
	}
	next := *n
	next.kids = make([]*Node[A], len(n.kids))
	deltas := make([][]Row[A], len(n.kids))
	moved := false
	for i, k := range n.kids {
		nk, d, err := k.Step(w, alg)
		if err != nil {
			return nil, nil, err
		}
		next.kids[i], deltas[i] = nk, d
		moved = moved || nk != k
	}
	if !moved {
		w.met.shared.Add(1)
		return n, nil, nil
	}
	if o.kind == kJoin && w.ins {
		next.lbuck = overlay.BucketsAdd(n.lbuck, tuplesOf(deltas[0], Added), o.leftKey, &w.met.Counters)
		next.rbuck = overlay.BucketsAdd(n.rbuck, tuplesOf(deltas[1], Added), o.rightKey, &w.met.Counters)
	}

	size := 0
	for _, d := range deltas {
		size += len(d)
	}
	c := newCands[A](size)
	for side, d := range deltas {
		probe := n
		if w.ins && side == 0 {
			probe = &next
		}
		for i := range d {
			r := &d[i]
			probe.images(side, r.T, w.ins, w.met, func(out relation.Tuple, pk string) {
				cd := c.add(out)
				switch {
				case o.kind == kSelect || o.kind == kRename:
					cd.row = r
				case w.ins:
					cd.acc = alg.Add(cd.acc, probe.contribution(alg, side, r.A, pk))
				}
			})
		}
	}

	set := make(map[string]A, len(c.list))
	dead := make(map[string]struct{})
	rows := make([]Row[A], 0, len(c.list))
	for i := range c.list {
		cd := &c.list[i]
		w.met.touch()
		old, had := n.ann.Get(cd.k)
		switch {
		case cd.row != nil:
			r := cd.row
			if r.S != Added && !had {
				continue // σ filtered the row out before this step
			}
			if r.S == Died {
				dead[cd.k] = struct{}{}
				rows = append(rows, Row[A]{T: cd.t, K: cd.k, S: Died, A: old})
				continue
			}
			set[cd.k], _ = next.kids[0].ann.Get(cd.k)
			rows = append(rows, Row[A]{T: cd.t, K: cd.k, S: r.S, A: r.A})
		case w.ins:
			a, d, grew, err := alg.Grow(old, had, cd.acc)
			if err != nil {
				return nil, nil, err
			}
			if !grew {
				continue
			}
			set[cd.k] = a
			s := Added
			if had {
				s = Changed
			}
			rows = append(rows, Row[A]{T: cd.t, K: cd.k, S: s, A: d})
		case had:
			var acc A
			live := false
			if alg.Recomputes() {
				acc, live = next.preimages(alg, cd.t, cd.k, w.met)
			}
			a, alive, changed := alg.Shrink(old, acc, live)
			switch {
			case !alive:
				dead[cd.k] = struct{}{}
				rows = append(rows, Row[A]{T: cd.t, K: cd.k, S: Died, A: old})
			case changed:
				set[cd.k] = a
				rows = append(rows, Row[A]{T: cd.t, K: cd.k, S: Changed, A: a})
			}
		}
	}

	switch {
	case o.kind == kJoin && !w.ins:
		// Dead operand rows leave the bucket indexes lazily, compacted
		// against the operands' new generations, so later probes stay
		// proportional to the live fan-out.
		next.lbuck = overlay.BucketsRemove(n.lbuck, tuplesOf(deltas[0], Died), o.leftKey, next.kids[0].ann.Has, &w.met.Counters)
		next.rbuck = overlay.BucketsRemove(n.rbuck, tuplesOf(deltas[1], Died), o.rightKey, next.kids[1].ann.Has, &w.met.Counters)
	case n.pre != nil && w.ins:
		next.pre = overlay.BucketsAdd(n.pre, tuplesOf(deltas[0], Added), o.imageKey, &w.met.Counters)
	case n.pre != nil:
		next.pre = overlay.BucketsRemove(n.pre, tuplesOf(deltas[0], Died), o.imageKey, next.kids[0].ann.Has, &w.met.Counters)
	}
	next.ann = n.ann.Derive(set, dead, &w.met.Counters)
	w.met.rewritten.Add(1)
	return &next, rows, nil
}

// scan classifies the written tuples of a scan's relation: a deleted tuple
// the scan holds dies, an inserted tuple it lacks is added with the
// algebra's scan annotation, and repeats count once.
//
// propview:deterministic
func (n *Node[A]) scan(w *Write, alg Algebra[A]) (*Node[A], []Row[A], error) {
	o := n.op
	ts := w.byRel[o.rel]
	set := make(map[string]A, len(ts))
	dead := make(map[string]struct{})
	var rows []Row[A]
	for _, t := range ts {
		w.met.touch()
		k := t.Key()
		if _, dup := set[k]; dup {
			continue
		}
		if _, dup := dead[k]; dup {
			continue
		}
		old, had := n.ann.Get(k)
		switch {
		case w.ins && !had:
			a := alg.Scan(o.rel, o.attrs, t, k)
			set[k] = a
			rows = append(rows, Row[A]{T: t, K: k, S: Added, A: a})
		case !w.ins && had:
			dead[k] = struct{}{}
			rows = append(rows, Row[A]{T: t, K: k, S: Died, A: old})
		}
	}
	if len(rows) == 0 {
		w.met.shared.Add(1)
		return n, nil, nil
	}
	w.met.rewritten.Add(1)
	next := *n
	next.ann = n.ann.Derive(set, dead, &w.met.Counters)
	return &next, rows, nil
}

// images calls yield with every output row that the row t of operand side
// reaches at this node and, at a join, the partner's key. A join probes
// the other operand's bucket index and walks the partners live in this
// node's other child. filter applies σ's condition, as an insertion does;
// otherwise σ passes every row on and the node's own map decides. Join
// partners count as touched in met (nil outside maintenance). The images
// may repeat a row; callers deduplicate.
//
// propview:deterministic
func (n *Node[A]) images(side int, t relation.Tuple, filter bool, met *Metrics, yield func(out relation.Tuple, pk string)) {
	o := n.op
	switch o.kind {
	case kSelect:
		if !filter || o.cond.Holds(o.csch, t) {
			yield(t, "")
		}
	case kRename:
		yield(t, "")
	case kProject:
		yield(t.Project(o.pos), "")
	case kUnion:
		if side == 0 {
			yield(t, "")
		} else {
			yield(t.Project(o.pos), "")
		}
	case kJoin:
		if side == 0 {
			bv, _ := n.rbuck.Get(o.leftKey(t))
			bv.EachLive(n.kids[1].ann.Has, func(pt relation.Tuple, pk string) bool {
				met.touch()
				yield(o.joined(t, pt), pk)
				return true
			})
		} else {
			bv, _ := n.lbuck.Get(o.rightKey(t))
			bv.EachLive(n.kids[0].ann.Has, func(pt relation.Tuple, pk string) bool {
				met.touch()
				yield(o.joined(pt, t), pk)
				return true
			})
		}
	}
}

// contribution is what the delta annotation a of a row of operand side
// contributes to its image at this π, ∪ or ⋈ node; pk is a join partner's
// key, looked up in the operand this node probed.
func (n *Node[A]) contribution(alg Algebra[A], side int, a A, pk string) A {
	o := n.op
	switch {
	case o.kind == kJoin && side == 0:
		pa, _ := n.kids[1].ann.Get(pk)
		return alg.Join(o.mapping, a, pa)
	case o.kind == kJoin:
		pa, _ := n.kids[0].ann.Get(pk)
		return alg.Join(o.mapping, pa, a)
	case o.kind == kProject || side == 1:
		return alg.Lift(o.pos, a)
	}
	return a
}

// preimages accumulates the contributions of the live pre-images of the
// row t, with key k, of this π, ∪ or ⋈ node, read from its children's
// generations: a projection's from its pre-image index, a union's from
// both operands, a join's from its one (left, right) pair. live reports
// whether any pre-image survives.
//
// propview:deterministic
func (n *Node[A]) preimages(alg Algebra[A], t relation.Tuple, k string, met *Metrics) (acc A, live bool) {
	o := n.op
	switch o.kind {
	case kProject:
		kid := n.kids[0]
		bv, _ := n.pre.Get(k)
		bv.EachLive(kid.ann.Has, func(_ relation.Tuple, ck string) bool {
			met.touch()
			ca, _ := kid.ann.Get(ck)
			acc, live = alg.Add(acc, alg.Lift(o.pos, ca)), true
			return true
		})
	case kUnion:
		if la, ok := n.kids[0].ann.Get(k); ok {
			acc, live = alg.Add(acc, la), true
		}
		if ra, ok := n.kids[1].ann.Get(t.Project(o.inv).Key()); ok {
			acc, live = alg.Add(acc, alg.Lift(o.pos, ra)), true
		}
	case kJoin:
		// The pair is recoverable from the output row: the left operand
		// is its prefix, the right re-projects.
		la, lok := n.kids[0].ann.Get(t[:o.ls].Key())
		ra, rok := n.kids[1].ann.Get(t.Project(o.rpos).Key())
		if lok && rok {
			acc, live = alg.Join(o.mapping, la, ra), true
		}
	}
	return acc, live
}

// cand is one candidate row of a step: its annotation contributions on an
// insertion, or at σ and δ the child row it carries.
type cand[A any] struct {
	t   relation.Tuple
	k   string
	acc A
	row *Row[A]
}

// cands collects candidates deduplicated in first-appearance order, the
// order a step records its delta in and so the order added rows reach the
// view: an insertion from the empty instance lists a node's rows in
// evaluation order — child order through σ, π and δ, left before right
// through ∪, and left-major pairs through ⋈.
type cands[A any] struct {
	list []cand[A]
	at   map[string]int
}

func newCands[A any](n int) *cands[A] {
	return &cands[A]{list: make([]cand[A], 0, n), at: make(map[string]int, n)}
}

// add returns the candidate for row t, recording it on first sight. The
// pointer is valid until the next add.
//
// propview:deterministic
func (c *cands[A]) add(t relation.Tuple) *cand[A] {
	k := t.Key()
	if i, ok := c.at[k]; ok {
		return &c.list[i]
	}
	c.at[k] = len(c.list)
	c.list = append(c.list, cand[A]{t: t, k: k})
	return &c.list[len(c.list)-1]
}

// tuplesOf returns the rows of delta d with status s, in delta order.
//
// propview:deterministic
func tuplesOf[A any](d []Row[A], s Status) []relation.Tuple {
	var out []relation.Tuple
	for _, r := range d {
		if r.S == s {
			out = append(out, r.T)
		}
	}
	return out
}

// ReachUp returns this node's rows that the source tuple t of relation rel
// reaches and whose annotation keep accepts: the scans of rel hold t's
// row, and every other node keeps the images of its children's hits that
// keep still accepts. The walk touches t's fan-out through the operators
// only. Each hit carries its row, key and annotation.
//
// propview:deterministic
func (n *Node[A]) ReachUp(rel string, t relation.Tuple, keep func(A) bool) []Row[A] {
	var outs []relation.Tuple
	if n.op.kind == kScan {
		if n.op.rel == rel {
			outs = []relation.Tuple{t}
		}
	} else {
		for side, kid := range n.kids {
			for _, h := range kid.ReachUp(rel, t, keep) {
				n.images(side, h.T, false, nil, func(out relation.Tuple, _ string) { outs = append(outs, out) })
			}
		}
	}
	var hits []Row[A]
	var seen map[string]bool
	for _, u := range outs {
		k := u.Key()
		if len(outs) > 1 {
			if seen[k] {
				continue
			}
			if seen == nil {
				seen = make(map[string]bool, len(outs))
			}
			seen[k] = true
		}
		if a, ok := n.ann.Get(k); ok && keep(a) {
			hits = append(hits, Row[A]{T: u, K: k, A: a})
		}
	}
	return hits
}

// Scans calls yield once per scan node with its relation, arity and row
// count.
func (n *Node[A]) Scans(yield func(rel string, arity, rows int)) {
	if n.op.kind == kScan {
		yield(n.op.rel, len(n.op.attrs), n.ann.Size())
	}
	for _, k := range n.kids {
		k.Scans(yield)
	}
}

// Shape is a tree's current size and overlay shape.
type Shape struct {
	// Nodes is the operator-node count.
	Nodes int
	// Rows is the total row count of the nodes' annotation maps.
	Rows int
	// MaxDepth and Mentions describe the overlay maps (annotations and
	// indexes): the deepest chain and the total overlay size.
	MaxDepth, Mentions int
}

// Shape summarizes the tree. O(#nodes).
func (n *Node[A]) Shape() Shape {
	var s Shape
	n.shape(&s)
	return s
}

func (n *Node[A]) shape(s *Shape) {
	s.Nodes++
	s.Rows += n.ann.Size()
	see(s, n.ann)
	see(s, n.lbuck)
	see(s, n.rbuck)
	see(s, n.pre)
	for _, k := range n.kids {
		k.shape(s)
	}
}

func see[V any](s *Shape, m *overlay.Map[V]) {
	if m == nil {
		return
	}
	s.MaxDepth = max(s.MaxDepth, m.Depth())
	s.Mentions += m.Mentions()
}
