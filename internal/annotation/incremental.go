// Incremental maintenance of the where-provenance index under source
// deletions.
//
// A source deletion can change the where-set of a *surviving* view tuple —
// e.g. when one pre-image of a projected tuple dies, the tuple survives
// via its other pre-images but its merged set shrinks — so the delta of
// the index is not the delta of the view, and the old engine rebuilt the
// whole index on the first Annotate after every deletion. ComputeWhere now
// retains the full annotated operator tree (one annNode per operator, its
// per-tuple sets in a persistent overlay map, plus the static pre-image /
// join-partner maps the propagation rules invert), and ApplyDeletion
// derives the next generation of the index by propagating (died, changed)
// entry deltas up the tree: each node recomputes exactly the output
// entries its children's delta can reach, prunes propagation where the
// recomputed sets are unchanged, and derives its overlay map in O(|Δ|).
//
// The static maps are built once per full computation and never grow:
// under deletion-only maintenance no operator ever gains an output tuple,
// so build-time pre-image lists and join buckets stay complete, and
// entries that died in earlier generations are skipped by an ann.Has
// check. Insertions would invalidate that (and can widen surviving sets
// just like deletions can shrink them), so an insert commit drops the
// index and the next Annotate rebuilds it from scratch — exactly the old
// behavior, now paid only on the write kind that needs it.
package annotation

import (
	"sort"
	"sync/atomic"

	"repro/internal/layered"
	"repro/internal/overlay"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// parDeltaMin is the per-node candidate count below which a parallel
// maintenance pass recomputes entries inline instead of partitioning them
// — mirroring the provenance tree's threshold. A package var so the
// differential tests can force the parallel path on small streams.
var parDeltaMin = 16

// annEntry is one output tuple of an operator with its per-position
// where-provenance sets. The tuple rides along so a parent can compute the
// entry's image (projection, union alignment, join keys) from the entry
// alone when it arrives in a delta.
type annEntry struct {
	t    relation.Tuple
	sets []locSet
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
// map is a persistent overlay generation; everything else is immutable
// after the full computation and shared by every derived generation.
type annNode struct {
	kind nodeKind
	kids []*annNode
	ann  *overlay.Map[annEntry]

	// nodeScan
	relName string

	// nodeProject: positions[i] is the child position of output position
	// i; preimages lists the build-time child keys projecting onto each
	// output key (rule 2 merges them, so a recompute unions the survivors).
	// nodeUnion reuses positions for the right→left alignment permutation
	// and inv for its inverse (out tuple → right pre-image).
	positions []int
	preimages map[string][]string
	inv       []int

	// nodeJoin
	ls, rs relation.Schema      // operand schemas (output = ls ⋈ rs, left-prefixed)
	common []relation.Attribute // join attributes
	ronly  []int                // right positions appended after the left prefix
	// lbuck/rbuck: join key → build-time partner tuples of that side.
	lbuck, rbuck map[string][]relation.Tuple
	mapping      []srcPos
	rpos         []int // right position → output position
}

// whereMetrics is shared along a WhereView generation chain, like the
// provenance tree's treeMetrics: work counters for the O(|Δ|) contract
// plus the overlay/version compaction metrics of the maintained state.
type whereMetrics struct {
	touched atomic.Int64 // candidate entries + partner probes examined
	derives atomic.Int64 // incremental generations derived
	om      layered.Counters
	vm      layered.Counters
}

// MaintenanceTouched reports the cumulative number of entries and partner
// probes the incremental maintenance examined across this index's
// generation chain. The regression tests pin it to O(|Δ| · fan-out): a
// full-index rebuild per deletion would scale it with the view instead.
func (wv *WhereView) MaintenanceTouched() int64 { return wv.met.touched.Load() }

// delta is what one node's generation step hands its parent: the entries
// it removed (with their pre-deletion tuples, so the parent can compute
// their images) and the surviving entries whose sets changed (with the
// new sets).
type delta struct {
	died    []annEntry
	changed []annEntry
}

func (d *delta) empty() bool { return len(d.died) == 0 && len(d.changed) == 0 }

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
	return wv.ApplyDeletionWorkers(T, 1)
}

// ApplyDeletionWorkers is ApplyDeletion with an intra-view parallelism
// budget, the where-index side of the provenance tree's
// ApplyDeletionWorkers: sibling subtrees of join/union nodes propagate
// concurrently, and each node's candidate recomputation partitions by the
// store's FNV-1a key hash into per-index slots gathered serially. The
// (died, changed) propagation is order-free state — set/dead maps feeding
// overlay derivations — so the derived index is identical at any worker
// count; the fingerprint differential test pins that byte-for-byte.
// workers <= 1 is exactly ApplyDeletion.
//
// propview:deterministic
func (wv *WhereView) ApplyDeletionWorkers(T []relation.SourceTuple, workers int) *WhereView {
	if len(T) == 0 || wv.root == nil {
		return wv
	}
	byRel := make(map[string][]relation.Tuple, 1)
	for _, st := range T {
		byRel[st.Rel] = append(byRel[st.Rel], st.Tuple)
	}
	root, d := wv.root.applyDel(byRel, wv.met, parallel.NewBudget(workers))
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
	return &WhereView{View: view, root: root, in: wv.in, met: wv.met}
}

// applyDel propagates a source deletion through this node: children first,
// then the node maps their deltas to candidate output entries, recomputes
// each candidate from the children's new generation, and derives its own
// ann map. Returns the receiver untouched (and an empty delta) when the
// deletion cannot reach this subtree.
//
// par is the intra-view worker budget (nil = serial): two-child nodes
// recurse into their subtrees concurrently, and the candidate recomputes
// of project/join/union nodes — the fan-out-heavy passes — partition by
// key hash into per-index slots, gathered serially. Scan and
// select/rename passes stay inline: their per-entry work is one overlay
// probe, below any sensible partitioning threshold. Reads against the
// children's new generations and the static build-time maps are safe
// concurrently (immutable after construction); the touched counter is
// atomic.
//
// propview:deterministic
func (n *annNode) applyDel(byRel map[string][]relation.Tuple, met *whereMetrics, par *parallel.Budget) (*annNode, delta) {
	switch n.kind {
	case nodeScan:
		ts := byRel[n.relName]
		if len(ts) == 0 {
			return n, delta{}
		}
		var d delta
		var dead map[string]struct{}
		for _, t := range ts {
			k := t.Key()
			met.touched.Add(1)
			if e, ok := n.ann.Get(k); ok {
				d.died = append(d.died, e)
				if dead == nil {
					dead = make(map[string]struct{}, len(ts))
				}
				dead[k] = struct{}{}
			}
		}
		if d.empty() {
			return n, delta{}
		}
		return n.derive(nil, nil, dead, &d, met), d

	case nodeSelect, nodeRename:
		// Both share the child's tuples and sets: an output entry dies
		// exactly when the child entry died (it passed the filter /
		// carried through the renaming), and set changes pass through.
		nk, kd := n.kids[0].applyDel(byRel, met, par)
		if nk == n.kids[0] {
			return n, delta{}
		}
		var d delta
		set := make(map[string]annEntry)
		dead := make(map[string]struct{})
		for _, e := range kd.died {
			met.touched.Add(1)
			if old, ok := n.ann.Get(e.t.Key()); ok {
				d.died = append(d.died, old)
				dead[e.t.Key()] = struct{}{}
			}
		}
		for _, e := range kd.changed {
			met.touched.Add(1)
			if _, ok := n.ann.Get(e.t.Key()); ok {
				d.changed = append(d.changed, e)
				set[e.t.Key()] = e
			}
		}
		return n.derive([]*annNode{nk}, set, dead, &d, met), d

	case nodeProject:
		nk, kd := n.kids[0].applyDel(byRel, met, par)
		if nk == n.kids[0] {
			return n, delta{}
		}
		// Candidates: the images of every died or changed pre-image.
		cands := make(map[string]struct{}, len(kd.died)+len(kd.changed))
		for _, e := range kd.died {
			cands[e.t.Project(n.positions).Key()] = struct{}{}
		}
		for _, e := range kd.changed {
			cands[e.t.Project(n.positions).Key()] = struct{}{}
		}
		keys := make([]string, 0, len(cands))
		for k := range cands {
			keys = append(keys, k)
		}
		// Sorted for the same reason as candSlices: the serial gather below
		// appends died/changed in keys order.
		sort.Strings(keys)
		// Recomputing one candidate reads only the child's new generation
		// and the static pre-image lists: independent per candidate, so
		// each index writes its own slot and the set/dead assembly gathers
		// serially below.
		slots := make([]projSlot, len(keys))
		par.ForKeyed(len(keys), parDeltaMin, func(i int) string { return keys[i] }, func(i int) {
			k := keys[i]
			old, ok := n.ann.Get(k)
			if !ok {
				return
			}
			met.touched.Add(1)
			sets := make([]locSet, len(n.positions))
			live := false
			for _, ck := range n.preimages[k] {
				met.touched.Add(1)
				ce, ok := nk.ann.Get(ck)
				if !ok {
					continue // pre-image dead (this commit or an earlier one)
				}
				live = true
				for j, p := range n.positions {
					sets[j] = sets[j].union(ce.sets[p])
				}
			}
			switch {
			case !live:
				slots[i] = projSlot{e: old, died: true}
			case !setsEq(old.sets, sets):
				slots[i] = projSlot{e: annEntry{t: old.t, sets: sets}, changed: true}
			}
		})
		var d delta
		set := make(map[string]annEntry)
		dead := make(map[string]struct{})
		for i, k := range keys {
			s := slots[i]
			switch {
			case s.died:
				d.died = append(d.died, s.e)
				dead[k] = struct{}{}
			case s.changed:
				d.changed = append(d.changed, s.e)
				set[k] = s.e
			}
		}
		return n.derive([]*annNode{nk}, set, dead, &d, met), d

	case nodeJoin:
		nl, ld, nr, rd := n.applyDelKids(byRel, met, par)
		if nl == n.kids[0] && nr == n.kids[1] {
			return n, delta{}
		}
		// Candidates: every output tuple pairing a delta entry of one side
		// with a pre-commit-live partner of the other. Partner liveness is
		// probed against the OLD opposite generation — a partner dying in
		// this same commit still paired before it, and its output tuples
		// must be re-examined (they die), not silently skipped. Each delta
		// entry's probe writes its own slot of output tuples; the dedup
		// into cands gathers serially (candidate state is order-free — the
		// map below is iterated in whatever order either way).
		cands := make(map[string]relation.Tuple, len(ld.died)+len(rd.died))
		addSide := func(es []annEntry, mySchema relation.Schema, oppBuck map[string][]relation.Tuple, opp *annNode, leftSide bool) {
			outs := make([][]relation.Tuple, len(es))
			par.ForKeyed(len(es), parDeltaMin, func(i int) string { return es[i].t.Key() }, func(i int) {
				e := es[i]
				jk := relation.ProjectAttrs(mySchema, e.t, n.common).Key()
				var o []relation.Tuple
				for _, pt := range oppBuck[jk] {
					met.touched.Add(1)
					if !opp.ann.Has(pt.Key()) {
						continue
					}
					if leftSide {
						o = append(o, n.joined(e.t, pt))
					} else {
						o = append(o, n.joined(pt, e.t))
					}
				}
				outs[i] = o
			})
			for _, ts := range outs {
				for _, t := range ts {
					cands[t.Key()] = t
				}
			}
		}
		addSide(ld.died, n.ls, n.rbuck, n.kids[1], true)
		addSide(ld.changed, n.ls, n.rbuck, n.kids[1], true)
		addSide(rd.died, n.rs, n.lbuck, n.kids[0], false)
		addSide(rd.changed, n.rs, n.lbuck, n.kids[0], false)
		keys, outs := candSlices(cands)
		slots := make([]projSlot, len(keys))
		par.ForKeyed(len(keys), parDeltaMin, func(i int) string { return keys[i] }, func(i int) {
			k, out := keys[i], outs[i]
			old, ok := n.ann.Get(k)
			if !ok {
				return
			}
			met.touched.Add(1)
			// The (left, right) pair is recoverable from the output tuple:
			// the left operand is the prefix, the right re-projects.
			lt := out[:n.ls.Len()]
			rt := out.Project(n.rpos)
			le, lok := nl.ann.Get(lt.Key())
			re, rok := nr.ann.Get(rt.Key())
			if !lok || !rok {
				slots[i] = projSlot{e: old, died: true}
				return
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
			if !setsEq(old.sets, sets) {
				slots[i] = projSlot{e: annEntry{t: old.t, sets: sets}, changed: true}
			}
		})
		d, set, dead := gatherSlots(keys, slots)
		return n.derive([]*annNode{nl, nr}, set, dead, &d, met), d

	case nodeUnion:
		nl, ld, nr, rd := n.applyDelKids(byRel, met, par)
		if nl == n.kids[0] && nr == n.kids[1] {
			return n, delta{}
		}
		cands := make(map[string]relation.Tuple, len(ld.died)+len(rd.died))
		for _, e := range ld.died {
			cands[e.t.Key()] = e.t
		}
		for _, e := range ld.changed {
			cands[e.t.Key()] = e.t
		}
		for _, e := range rd.died {
			a := e.t.Project(n.positions)
			cands[a.Key()] = a
		}
		for _, e := range rd.changed {
			a := e.t.Project(n.positions)
			cands[a.Key()] = a
		}
		keys, outs := candSlices(cands)
		slots := make([]projSlot, len(keys))
		par.ForKeyed(len(keys), parDeltaMin, func(i int) string { return keys[i] }, func(i int) {
			k, out := keys[i], outs[i]
			old, ok := n.ann.Get(k)
			if !ok {
				return
			}
			met.touched.Add(1)
			le, lok := nl.ann.Get(k)
			// The alignment is a permutation, so the right pre-image is
			// the inverse projection of the output tuple.
			re, rok := nr.ann.Get(out.Project(n.inv).Key())
			if !lok && !rok {
				slots[i] = projSlot{e: old, died: true}
				return
			}
			sets := make([]locSet, len(old.sets))
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
			if !setsEq(old.sets, sets) {
				slots[i] = projSlot{e: annEntry{t: old.t, sets: sets}, changed: true}
			}
		})
		d, set, dead := gatherSlots(keys, slots)
		return n.derive([]*annNode{nl, nr}, set, dead, &d, met), d
	}
	return n, delta{}
}

// projSlot is one candidate's recompute outcome in a partitioned pass:
// died (e is the old entry), changed (e is the new one), or neither.
type projSlot struct {
	e       annEntry
	died    bool
	changed bool
}

// candSlices materializes a candidate map into parallel key/tuple slices
// so a partitioned pass can index it; candidate state is order-free, so
// the map's iteration order is as good as any.
//
// propview:deterministic
func candSlices(cands map[string]relation.Tuple) ([]string, []relation.Tuple) {
	// Sorted, not map order: the slots these keys index are gathered into
	// the delta's died/changed lists positionally, so the key order here IS
	// the delta order — a map range would make it vary run to run.
	keys := make([]string, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	outs := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		outs[i] = cands[k]
	}
	return keys, outs
}

// gatherSlots assembles a partitioned recompute's slots into the node's
// delta and overlay derivation inputs, serially.
//
// propview:deterministic
func gatherSlots(keys []string, slots []projSlot) (delta, map[string]annEntry, map[string]struct{}) {
	var d delta
	set := make(map[string]annEntry)
	dead := make(map[string]struct{})
	for i, k := range keys {
		s := slots[i]
		switch {
		case s.died:
			d.died = append(d.died, s.e)
			dead[k] = struct{}{}
		case s.changed:
			d.changed = append(d.changed, s.e)
			set[k] = s.e
		}
	}
	return d, set, dead
}

// applyDelKids recurses into a two-child node's subtrees — concurrently
// with a budget (the sibling-subtree axis; Budget.For is the join
// barrier), inline without one.
//
// propview:deterministic
func (n *annNode) applyDelKids(byRel map[string][]relation.Tuple, met *whereMetrics, par *parallel.Budget) (nl *annNode, ld delta, nr *annNode, rd delta) {
	var nodes [2]*annNode
	var deltas [2]delta
	run := func(i int) {
		nodes[i], deltas[i] = n.kids[i].applyDel(byRel, met, par)
	}
	if par != nil {
		par.For(2, run)
	} else {
		run(0)
		run(1)
	}
	return nodes[0], deltas[0], nodes[1], deltas[1]
}

// derive publishes this node's next generation: same statics, new kids
// (when given) and the ann overlay derived with the step's delta. Empty
// maps fall through to overlay.Map.Derive's no-op path, so a node whose
// entries all survived unchanged still re-links its updated children.
func (n *annNode) derive(kids []*annNode, set map[string]annEntry, dead map[string]struct{}, d *delta, met *whereMetrics) *annNode {
	node := *n
	if kids != nil {
		node.kids = kids
	}
	if len(set) > 0 || len(dead) > 0 {
		node.ann = n.ann.Derive(set, dead, &met.om)
	}
	return &node
}

// joined builds the join output tuple for a (left, right) pair: the left
// tuple followed by the right side's non-common attributes, matching the
// build-time construction byte for byte.
func (n *annNode) joined(lt, rt relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, 0, n.ls.Len()+len(n.ronly))
	out = append(out, lt...)
	for _, p := range n.ronly {
		out = append(out, rt[p])
	}
	return out
}
