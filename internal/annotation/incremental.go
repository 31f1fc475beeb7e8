// Incremental maintenance of the where-provenance index under source
// deletions and insertions.
//
// A source write can change the where-set of a *surviving* view tuple —
// when one pre-image of a projected tuple dies, the tuple survives via its
// other pre-images but its merged set shrinks; when a new pre-image
// arrives, the set grows — so the delta of the index is not the delta of
// the view. ComputeWhere therefore retains the full annotated operator
// tree (one annNode per operator, its per-tuple sets in a persistent
// overlay map, plus the pre-image and join-partner indexes the
// propagation rules invert), and ApplyDeletion / ApplyInsertion derive the
// next generation of the index by propagating (died, changed, added)
// entry deltas up the tree: each node maps its children's delta to the
// output entries it can reach (images — the same candidate step Affected
// walks one source tuple up the tree with), recomputes exactly those,
// prunes propagation where the recomputed sets are unchanged, and derives
// its overlay maps in O(|Δ|).
//
// The pre-image and join-partner indexes are persistent per generation
// (overlay bucket chains, as in the provenance tree): a deletion removes
// the died child tuples lazily, an insertion appends the added ones, so a
// later step of either kind sees exactly the live pre-images and
// partners. Under insertion where-sets only grow, so a projected tuple's
// new sets are its old sets ∪ the contributions of its added or changed
// pre-images; every other operator recomputes a candidate from its
// children's new generation, which costs O(1) per candidate.
package annotation

import (
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/layered"
	"repro/internal/overlay"
	"repro/internal/relation"
)

// annEntry is one output tuple of an operator with its per-position
// where-provenance sets. The tuple rides along so a parent can compute the
// entry's image (projection, union alignment, join keys) from the entry
// alone when it arrives in a delta.
type annEntry struct {
	t    relation.Tuple
	sets []locSet
}

// holds reports whether id is in any of the entry's sets.
func (e annEntry) holds(id int32) bool {
	for _, s := range e.sets {
		if s.has(id) {
			return true
		}
	}
	return false
}

type nodeKind uint8

const (
	nodeScan nodeKind = iota
	nodeSelect
	nodeProject
	nodeJoin
	nodeUnion
	nodeRename
)

// srcPos maps one join-output position to its operand positions (-1 when
// the attribute is absent on that side; common attributes pull from both).
type srcPos struct{ l, r int }

// annNode is one operator of the retained where-provenance tree. The ann
// map and the bucket indexes are persistent overlay generations;
// everything else is fixed when emptyAnnNode builds the tree and shared by
// every derived generation.
type annNode struct {
	kind nodeKind
	kids []*annNode
	ann  *overlay.Map[annEntry]

	// nodeScan: the source relation and its attributes (an inserted tuple
	// interns one location per attribute).
	relName string
	attrs   []relation.Attribute

	// nodeSelect: the condition and the child schema it reads, for
	// admitting inserted child tuples.
	cond algebra.Condition
	csch relation.Schema

	// nodeProject: positions[i] is the child position of output position
	// i; pre maps each output key to the child tuples projecting onto it
	// (rule 2 merges them, so a deletion recomputes from the live ones).
	// nodeUnion reuses positions for the right→left alignment permutation
	// and inv for its inverse (out tuple → right pre-image).
	positions []int
	pre       *overlay.Map[overlay.BucketVal]
	inv       []int

	// nodeJoin: output = left tuple ++ right's ronly positions.
	ls         relation.Schema
	ronly      []int
	lkey, rkey []int // join-attribute positions in each operand
	// lbuck/rbuck: join key → live tuples of that side.
	lbuck, rbuck *overlay.Map[overlay.BucketVal]
	mapping      []srcPos
	rpos         []int // right position → output position
}

// image is the projection's output tuple for child tuple t.
func (n *annNode) image(t relation.Tuple) relation.Tuple { return t.Project(n.positions) }

func (n *annNode) imageKey(t relation.Tuple) string { return n.image(t).Key() }

func (n *annNode) leftKey(t relation.Tuple) string  { return t.Project(n.lkey).Key() }
func (n *annNode) rightKey(t relation.Tuple) string { return t.Project(n.rkey).Key() }

// whereMetrics is shared along a WhereView generation chain, like the
// provenance tree's treeMetrics: work counters for the O(|Δ|) contract
// plus the overlay/version compaction metrics of the maintained state.
type whereMetrics struct {
	touched atomic.Int64 // candidate entries + partner probes examined
	derives atomic.Int64 // incremental generations derived
	om      layered.Counters
	vm      layered.Counters
}

// touch advances the work counter; a nil receiver (a read-only walk such
// as Affected) counts nothing.
func (m *whereMetrics) touch() {
	if m != nil {
		m.touched.Add(1)
	}
}

// MaintenanceTouched reports the cumulative number of entries and partner
// probes the incremental maintenance examined across this index's
// generation chain. The regression tests pin it to O(|Δ| · fan-out): a
// full-index rebuild per write would scale it with the view instead.
func (wv *WhereView) MaintenanceTouched() int64 { return wv.met.touched.Load() }

// delta is what one node's generation step hands its parent: the entries
// it removed (with their pre-step tuples and sets, so the parent can
// compute their images), the surviving entries whose sets changed (with
// the new sets) and the entries new to the node.
type delta struct {
	died    []annEntry
	changed []annEntry
	added   []annEntry
}

// all lists every entry of the delta, died first.
func (d *delta) all() []annEntry {
	out := make([]annEntry, 0, len(d.died)+len(d.changed)+len(d.added))
	out = append(out, d.died...)
	out = append(out, d.changed...)
	return append(out, d.added...)
}

func tuplesOf(es []annEntry) []relation.Tuple {
	out := make([]relation.Tuple, len(es))
	for i, e := range es {
		out[i] = e.t
	}
	return out
}

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

// write is one maintenance step's input: the written source tuples by
// relation, the direction, and the chain's shared state.
type write struct {
	byRel map[string][]relation.Tuple
	ins   bool
	in    *interner
	met   *whereMetrics
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
	if len(ts) == 0 {
		return wv
	}
	byRel := make(map[string][]relation.Tuple, 1)
	for _, st := range ts {
		byRel[st.Rel] = append(byRel[st.Rel], st.Tuple)
	}
	w := &write{byRel: byRel, ins: ins, in: wv.in, met: wv.met}
	root, d := wv.root.step(w)
	if root == wv.root {
		return wv
	}
	wv.met.derives.Add(1)
	view := wv.View
	if len(d.died) > 0 {
		dead := make(map[string]struct{}, len(d.died))
		for _, e := range d.died {
			dead[e.t.Key()] = struct{}{}
		}
		view = view.DeleteVersion(dead, &wv.met.vm)
	}
	if len(d.added) > 0 {
		view = view.InsertVersion(tuplesOf(d.added), &wv.met.vm)
	}
	counts := wv.reach.derive(reachDelta(&d, wv.setsOf))
	return &WhereView{View: view, root: root, in: wv.in, reach: counts, met: wv.met}
}

// stepOut accumulates one node's step: the delta handed to the parent and
// the entry changes the node's ann overlay derives with.
type stepOut struct {
	d    delta
	set  map[string]annEntry
	dead map[string]struct{}
}

// newStepOut starts a step expecting about n outcomes.
func newStepOut(n int) *stepOut {
	return &stepOut{d: delta{added: make([]annEntry, 0, n)}, set: make(map[string]annEntry, n), dead: make(map[string]struct{})}
}

// has reports whether the step already recorded an outcome for key k.
func (o *stepOut) has(k string) bool {
	if _, ok := o.dead[k]; ok {
		return true
	}
	_, ok := o.set[k]
	return ok
}

// died records that the entry e with key k left the node.
func (o *stepOut) died(k string, e annEntry) {
	o.d.died = append(o.d.died, e)
	o.dead[k] = struct{}{}
}

// changed records a surviving entry's new sets.
func (o *stepOut) changed(k string, e annEntry) {
	o.d.changed = append(o.d.changed, e)
	o.set[k] = e
}

// added records an entry new to the node.
func (o *stepOut) added(k string, e annEntry) {
	o.d.added = append(o.d.added, e)
	o.set[k] = e
}

// settle classifies a recomputed candidate with key k: old/had is its
// entry before the step, cur/live its recomputed entry (live false when no
// derivation survives).
func (o *stepOut) settle(k string, old annEntry, had bool, cur annEntry, live bool) {
	switch {
	case had && !live:
		o.died(k, old)
	case !had && live:
		o.added(k, cur)
	case had && !setsEq(old.sets, cur.sets):
		o.changed(k, annEntry{t: old.t, sets: cur.sets})
	}
}

// step propagates one write through this node: children first, then the
// node maps their deltas to candidate output entries (images), recomputes
// each candidate, and derives its own generation. Returns the receiver
// untouched (and an empty delta) when the write cannot reach this subtree.
//
// propview:deterministic
func (n *annNode) step(w *write) (*annNode, delta) {
	switch n.kind {
	case nodeScan:
		ts := w.byRel[n.relName]
		if len(ts) == 0 {
			return n, delta{}
		}
		o := newStepOut(len(ts))
		for _, t := range ts {
			k := t.Key()
			w.met.touch()
			e, ok := n.ann.Get(k)
			if o.has(k) {
				continue
			}
			switch {
			case !w.ins && ok:
				o.died(k, e)
			case w.ins && !ok:
				o.added(k, annEntry{t: t, sets: w.in.scanSets(n.relName, t, k, n.attrs)})
			}
		}
		if len(o.set) == 0 && len(o.dead) == 0 {
			return n, delta{}
		}
		return n.derive(nil, o, w.met), o.d

	case nodeSelect, nodeRename:
		// Both share the child's tuples and sets: an output entry dies
		// exactly when the child entry died (it passed the filter /
		// carried through the renaming), set changes pass through, and an
		// added child entry is added when it passes the filter.
		nk, kd := n.kids[0].step(w)
		if nk == n.kids[0] {
			return n, delta{}
		}
		o := newStepOut(len(kd.changed) + len(kd.added))
		for _, e := range kd.died {
			w.met.touch()
			if old, ok := n.ann.Get(e.t.Key()); ok {
				o.died(e.t.Key(), old)
			}
		}
		for _, e := range kd.changed {
			w.met.touch()
			if n.ann.Has(e.t.Key()) {
				o.changed(e.t.Key(), e)
			}
		}
		for _, e := range kd.added {
			w.met.touch()
			if n.kind == nodeRename || n.cond.Holds(n.csch, e.t) {
				o.added(e.t.Key(), e)
			}
		}
		return n.derive([]*annNode{nk}, o, w.met), o.d

	case nodeProject:
		nk, kd := n.kids[0].step(w)
		if nk == n.kids[0] {
			return n, delta{}
		}
		es := kd.all()
		keys, outs, imgKeys := candidates(n.images(0, es, nil))
		o := newStepOut(len(keys))
		node := *n
		node.kids = []*annNode{nk}
		if w.ins {
			// Sets only grow: a candidate's new sets are its old sets ∪
			// the contributions of its added or changed pre-images (an
			// insertion kills no entry, so es holds only those).
			contrib := make(map[string][]annEntry, len(keys))
			for i, e := range es {
				contrib[imgKeys[i]] = append(contrib[imgKeys[i]], e)
			}
			for i, k := range keys {
				w.met.touch()
				old, ok := n.ann.Get(k)
				sets := make([]locSet, len(n.positions))
				copy(sets, old.sets)
				for _, ce := range contrib[k] {
					w.met.touch()
					for j, p := range n.positions {
						sets[j] = sets[j].union(ce.sets[p])
					}
				}
				o.settle(k, old, ok, annEntry{t: outs[i], sets: sets}, true)
			}
			node.pre = overlay.BucketsAdd(n.pre, tuplesOf(kd.added), n.imageKey, &w.met.om)
		} else {
			// Recomputing one candidate reads only the child's new
			// generation and the pre-image chains: the live pre-images'
			// sets merge into the candidate's new sets.
			for _, k := range keys {
				old, ok := n.ann.Get(k)
				if !ok {
					continue
				}
				w.met.touch()
				sets := make([]locSet, len(n.positions))
				live := false
				bv, _ := n.pre.Get(k)
				bv.EachLive(nk.ann.Has, func(_ relation.Tuple, ck string) bool {
					w.met.touch()
					ce, _ := nk.ann.Get(ck)
					live = true
					for j, p := range n.positions {
						sets[j] = sets[j].union(ce.sets[p])
					}
					return true
				})
				o.settle(k, old, ok, annEntry{t: old.t, sets: sets}, live)
			}
			node.pre = overlay.BucketsRemove(n.pre, tuplesOf(kd.died), n.imageKey, nk.ann.Has, &w.met.om)
		}
		return node.derive(nil, o, w.met), o.d

	case nodeJoin:
		nl, ld := n.kids[0].step(w)
		nr, rd := n.kids[1].step(w)
		if nl == n.kids[0] && nr == n.kids[1] {
			return n, delta{}
		}
		// Candidates: every output tuple pairing a delta entry of one side
		// with a live partner of the other. A deletion probes the OLD
		// generation — a partner dying in this same step still paired
		// before it, and its output tuples must be re-examined (they die),
		// not silently skipped. An insertion probes the NEW right side for
		// the left delta, buckets extended first, and the OLD left side for
		// the right delta, so every pair, added×added included, is found
		// exactly once.
		probe := n
		if w.ins {
			grown := *n
			grown.kids = []*annNode{nl, nr}
			grown.lbuck = overlay.BucketsAdd(n.lbuck, tuplesOf(ld.added), n.leftKey, &w.met.om)
			grown.rbuck = overlay.BucketsAdd(n.rbuck, tuplesOf(rd.added), n.rightKey, &w.met.om)
			probe = &grown
		}
		imgs := probe.images(0, ld.all(), w.met)
		imgs = append(imgs, n.images(1, rd.all(), w.met)...)
		keys, outs, _ := candidates(imgs)
		o := newStepOut(len(keys))
		for i, k := range keys {
			w.met.touch()
			old, ok := n.ann.Get(k)
			// The (left, right) pair is recoverable from the output tuple:
			// the left operand is the prefix, the right re-projects.
			out := outs[i]
			le, lok := nl.ann.Get(out[:n.ls.Len()].Key())
			re, rok := nr.ann.Get(out.Project(n.rpos).Key())
			if !lok || !rok {
				o.settle(k, old, ok, annEntry{}, false)
				continue
			}
			sets := make([]locSet, len(n.mapping))
			for j, sp := range n.mapping {
				var s locSet
				if sp.l >= 0 {
					s = s.union(le.sets[sp.l])
				}
				if sp.r >= 0 {
					s = s.union(re.sets[sp.r])
				}
				sets[j] = s
			}
			o.settle(k, old, ok, annEntry{t: out, sets: sets}, true)
		}
		node := *probe
		node.kids = []*annNode{nl, nr}
		if !w.ins {
			// Dead operand tuples leave the bucket indexes (lazily, with
			// amortized compaction against the operands' new generations)
			// so future probes stay proportional to the live fan-out.
			node.lbuck = overlay.BucketsRemove(n.lbuck, tuplesOf(ld.died), n.leftKey, nl.ann.Has, &w.met.om)
			node.rbuck = overlay.BucketsRemove(n.rbuck, tuplesOf(rd.died), n.rightKey, nr.ann.Has, &w.met.om)
		}
		return node.derive(nil, o, w.met), o.d

	case nodeUnion:
		nl, ld := n.kids[0].step(w)
		nr, rd := n.kids[1].step(w)
		if nl == n.kids[0] && nr == n.kids[1] {
			return n, delta{}
		}
		imgs := n.images(0, ld.all(), nil)
		imgs = append(imgs, n.images(1, rd.all(), nil)...)
		keys, outs, _ := candidates(imgs)
		o := newStepOut(len(keys))
		for i, k := range keys {
			w.met.touch()
			out := outs[i]
			old, ok := n.ann.Get(k)
			le, lok := nl.ann.Get(k)
			// The alignment is a permutation, so the right pre-image is
			// the inverse projection of the output tuple.
			re, rok := nr.ann.Get(out.Project(n.inv).Key())
			sets := make([]locSet, len(n.positions))
			for j := range sets {
				var s locSet
				if lok {
					s = s.union(le.sets[j])
				}
				if rok {
					s = s.union(re.sets[n.positions[j]])
				}
				sets[j] = s
			}
			o.settle(k, old, ok, annEntry{t: out, sets: sets}, lok || rok)
		}
		return n.derive([]*annNode{nl, nr}, o, w.met), o.d
	}
	return n, delta{}
}

// images maps entries of child side to the output tuples of this node
// they can reach — the candidate step shared by maintenance (step) and
// by Affected's walk up the tree (reachUp). A join probes the opposite
// side's bucket index, walking the partners live in the opposite child;
// a deletion probes the pre-step node, and an insertion probes a copy
// whose buckets and children already include the step's additions for
// the left side, the pre-step node for the right. The result may repeat
// a tuple; callers deduplicate.
//
// Join probes count as touched in met (nil outside maintenance).
//
// propview:deterministic
func (n *annNode) images(side int, es []annEntry, met *whereMetrics) []relation.Tuple {
	out := make([]relation.Tuple, 0, len(es))
	switch n.kind {
	case nodeSelect, nodeRename:
		out = append(out, tuplesOf(es)...)
	case nodeProject:
		for _, e := range es {
			out = append(out, n.image(e.t))
		}
	case nodeUnion:
		for _, e := range es {
			if side == 0 {
				out = append(out, e.t)
			} else {
				out = append(out, n.image(e.t))
			}
		}
	case nodeJoin:
		for _, e := range es {
			if side == 0 {
				bv, _ := n.rbuck.Get(n.leftKey(e.t))
				bv.EachLive(n.kids[1].ann.Has, func(pt relation.Tuple, _ string) bool {
					met.touch()
					out = append(out, n.joined(e.t, pt))
					return true
				})
			} else {
				bv, _ := n.lbuck.Get(n.rightKey(e.t))
				bv.EachLive(n.kids[0].ann.Has, func(pt relation.Tuple, _ string) bool {
					met.touch()
					out = append(out, n.joined(pt, e.t))
					return true
				})
			}
		}
	}
	return out
}

// reachUp returns this node's entries whose where-sets hold id, the
// location of one field of source tuple t of relation rel: the scans of
// rel hold t's entry, and every other node keeps the images of its
// children's hits that still hold id. The walk touches t's fan-out
// through the operators only.
func (n *annNode) reachUp(rel string, t relation.Tuple, id int32) []annEntry {
	var cands []relation.Tuple
	if n.kind == nodeScan {
		if n.relName == rel {
			cands = []relation.Tuple{t}
		}
	} else {
		for side, kid := range n.kids {
			if kh := kid.reachUp(rel, t, id); len(kh) > 0 {
				cands = append(cands, n.images(side, kh, nil)...)
			}
		}
	}
	var hits []annEntry
	var seen map[string]bool
	for _, u := range cands {
		k := u.Key()
		if len(cands) > 1 {
			if seen[k] {
				continue
			}
			if seen == nil {
				seen = make(map[string]bool, len(cands))
			}
			seen[k] = true
		}
		if e, ok := n.ann.Get(k); ok && e.holds(id) {
			hits = append(hits, e)
		}
	}
	return hits
}

// candidates deduplicates candidate output tuples into key/tuple slices in
// first-appearance order, and returns every input's key, in input order.
// First-appearance order is the order the step records its delta in, and
// so the order added tuples are appended to the view: an insertion from
// the empty instance lists a node's entries in evaluation order — child
// order through σ, π and δ, left before right through ∪, and left-major
// pairs through ⋈.
//
// propview:deterministic
func candidates(ts []relation.Tuple) (keys []string, outs []relation.Tuple, tkeys []string) {
	seen := make(map[string]bool, len(ts))
	keys = make([]string, 0, len(ts))
	outs = make([]relation.Tuple, 0, len(ts))
	tkeys = make([]string, len(ts))
	for i, t := range ts {
		k := t.Key()
		tkeys[i] = k
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			outs = append(outs, t)
		}
	}
	return keys, outs, tkeys
}

// derive publishes this node's next generation: same statics, new kids
// (when given) and the ann overlay derived with the step's entry changes.
// A step with no entry changes skips the derive, so a node whose entries
// all survived unchanged still re-links its updated children.
func (n *annNode) derive(kids []*annNode, o *stepOut, met *whereMetrics) *annNode {
	node := *n
	if kids != nil {
		node.kids = kids
	}
	if len(o.set) > 0 || len(o.dead) > 0 {
		node.ann = n.ann.Derive(o.set, o.dead, &met.om)
	}
	return &node
}

// joined builds the join output tuple for a (left, right) pair: the left
// tuple followed by the right side's non-common attributes, matching the
// join's output schema.
func (n *annNode) joined(lt, rt relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, 0, n.ls.Len()+len(n.ronly))
	out = append(out, lt...)
	for _, p := range n.ronly {
		out = append(out, rt[p])
	}
	return out
}
