// Package provenance implements the two notions of provenance the paper
// connects its problems to: why-provenance (witnesses — footnote 4: a
// witness for a tuple t in a view is a minimal subset S' of the source S
// with t ∈ Q(S')) and the flat lineage of Cui–Widom used by the baseline
// deletion translator. Where-provenance, the annotation-propagation side,
// lives in package annotation, which evaluates queries with location
// tracking.
package provenance

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/layered"
	"repro/internal/overlay"
	"repro/internal/relation"
)

// Witness is a set of source tuples sufficient for an output tuple to
// appear; elements are kept sorted by key so witnesses have canonical
// string forms. The witness basis computed by Compute keeps only minimal
// witnesses, matching the paper's definition.
type Witness struct {
	tuples []relation.SourceTuple
	keys   []string
	key    string // canonical form, cached at construction
}

// NewWitness builds a witness from source tuples, deduplicating.
func NewWitness(ts ...relation.SourceTuple) Witness {
	m := make(map[string]relation.SourceTuple, len(ts))
	for _, t := range ts {
		m[t.Key()] = t
	}
	w := Witness{
		tuples: make([]relation.SourceTuple, 0, len(m)),
		keys:   make([]string, 0, len(m)),
	}
	for k := range m {
		w.keys = append(w.keys, k)
	}
	sort.Strings(w.keys)
	for _, k := range w.keys {
		w.tuples = append(w.tuples, m[k])
	}
	w.key = strings.Join(w.keys, "\x01")
	return w
}

// UnionWitness returns w ∪ v.
func UnionWitness(w, v Witness) Witness { return unionWitness(w, v, mergedKey(w.keys, v.keys)) }

// Len returns the number of source tuples in the witness.
func (w Witness) Len() int { return len(w.tuples) }

// Tuples returns the source tuples, sorted by key. Callers must not modify
// the slice.
func (w Witness) Tuples() []relation.SourceTuple { return w.tuples }

// Key returns the canonical string identity of the witness. O(1) for
// witnesses built by this package's constructors.
func (w Witness) Key() string {
	if w.key == "" && len(w.keys) > 0 {
		return strings.Join(w.keys, "\x01") // zero-value escape hatch
	}
	return w.key
}

// Contains reports whether the witness includes the given source tuple.
func (w Witness) Contains(st relation.SourceTuple) bool {
	k := st.Key()
	i := sort.SearchStrings(w.keys, k)
	return i < len(w.keys) && w.keys[i] == k
}

// SubsetOf reports whether every tuple of w is in v.
func (w Witness) SubsetOf(v Witness) bool {
	if len(w.keys) > len(v.keys) {
		return false
	}
	i := 0
	for _, k := range w.keys {
		for i < len(v.keys) && v.keys[i] < k {
			i++
		}
		if i >= len(v.keys) || v.keys[i] != k {
			return false
		}
	}
	return true
}

// String renders the witness as {R(a,b), S(b,c)}.
func (w Witness) String() string {
	parts := make([]string, len(w.tuples))
	for i, t := range w.tuples {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// minimizeWitnesses deduplicates and removes non-minimal witnesses
// (supersets of other witnesses), returning a canonical, key-sorted basis.
// A list of at most one witness is already one and is returned as is.
func minimizeWitnesses(ws []Witness) []Witness {
	if len(ws) <= 1 {
		return ws
	}
	// Dedup first.
	seen := make(map[string]Witness, len(ws))
	for _, w := range ws {
		seen[w.Key()] = w
	}
	uniq := make([]Witness, 0, len(seen))
	for _, w := range seen {
		uniq = append(uniq, w)
	}
	// Sort by size so subset checks only need to look at smaller ones.
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].Len() != uniq[j].Len() {
			return uniq[i].Len() < uniq[j].Len()
		}
		return uniq[i].Key() < uniq[j].Key()
	})
	var out []Witness
	for _, w := range uniq {
		minimal := true
		for _, kept := range out {
			if kept.SubsetOf(w) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, w)
		}
	}
	return out
}

// Result carries a computed view together with the witness basis of every
// view tuple, plus the retained per-operator evaluation state that makes
// incremental maintenance under both deletions AND insertions O(|Δ|).
//
// Results form persistent generation chains: ApplyDeletion and
// ApplyInsertion return fresh Results sharing almost all storage with the
// receiver — node relations as tombstone/append overlay versions
// (relation.DeleteVersion/InsertVersion), witness bases and join bucket
// indexes as layered overlay maps (overlay.go), untouched subtrees by
// pointer — so any retained generation stays readable while writes derive
// new ones.
type Result struct {
	// View is the evaluated view Q(S), maintained as an overlay version
	// chain sharing the original evaluation's storage.
	View *relation.Relation
	// basis maps view tuple keys to minimal witnesses; it is the root
	// node's witness store, shared by pointer.
	basis *overlay.Map[[]Witness]
	// witnesses is the total witness count over basis, counted once by
	// Compute and adjusted from the root's delta by each maintenance pass.
	witnesses int

	// plan is the query this result was computed for and lim the basis cap
	// it was computed under; both are carried through maintenance so
	// ApplyInsertion can delta-evaluate without the caller re-supplying
	// them.
	plan algebra.Query
	lim  Limit
	// tree is the witness-annotated operator tree of the evaluation.
	// Compute builds it as an insertion into the empty tree, and both write
	// directions maintain each node by a delta pass over it.
	tree *evalNode
	// tm accumulates maintenance counters over the tree's lifetime; shared
	// along the generation chain, like the source store's metrics.
	tm *treeMetrics
	// died and added are the view rows this generation removed from or
	// appended to its receiver's view (see ViewDelta); nil on a computed
	// Result.
	died, added []relation.Tuple
}

// ViewDelta returns the view rows the maintenance pass that produced r
// removed (died) and appended (added), relative to the Result it was
// applied to: ApplyDeletion fills died and ApplyInsertion added. Both are
// nil for a Result from Compute and for a pass that left the view's rows
// as they were. The slices are shared and must not be modified.
func (r *Result) ViewDelta() (died, added []relation.Tuple) { return r.died, r.added }

// Witnesses returns the minimal witnesses of view tuple t (nil if t is not
// in the view).
func (r *Result) Witnesses(t relation.Tuple) []Witness {
	ws, _ := r.basis.Get(t.Key())
	return ws
}

// WitnessCount returns the total number of minimal witnesses over every
// view tuple. O(1): the count is carried along the generation chain.
func (r *Result) WitnessCount() int { return r.witnesses }

// witnessesAfter returns the witness total of a generation whose basis
// next differs from r's only at the tuples in changed.
func (r *Result) witnessesAfter(next *overlay.Map[[]Witness], changed []relation.Tuple) int {
	n := r.witnesses
	for _, t := range changed {
		k := t.Key()
		old, _ := r.basis.Get(k)
		cur, _ := next.Get(k)
		n += len(cur) - len(old)
	}
	return n
}

// filterWitnesses keeps the witnesses not intersecting the deleted set.
// The returned slice preserves basis order, so a canonically sorted list
// stays sorted.
func filterWitnesses(ws []Witness, deleted map[string]bool) []Witness {
	var kept []Witness
	for _, w := range ws {
		hit := false
		for _, st := range w.Tuples() {
			if deleted[st.Key()] {
				hit = true
				break
			}
		}
		if !hit {
			kept = append(kept, w)
		}
	}
	return kept
}

// treeMetrics counts tree-maintenance activity over a Result's generation
// chain: one instance is shared by every generation derived from the same
// Compute, so the counters are cumulative across writes (and safe for the
// engine's concurrent Stats readers).
type treeMetrics struct {
	// maintenance passes (ApplyDeletion/ApplyInsertion)
	// guarded-by: atomic
	derives atomic.Int64
	// nodes shared by pointer across a pass
	// guarded-by: atomic
	sharedNodes atomic.Int64
	// nodes given a new O(|Δ|) generation
	// guarded-by: atomic
	rewrittenNodes atomic.Int64
	// candidate tuples examined during maintenance
	// guarded-by: atomic
	touchedTuples atomic.Int64

	relM layered.Counters // node-relation overlay activity
	mapM layered.Counters // witness/bucket map overlay activity

	// intern holds canonical Witness values, shared along the chain; nil
	// during the build, which builds every witness directly.
	intern *witnessInterner
}

// TreeStats is a point-in-time summary of a Result's provenance tree: the
// current generation's shape plus the lifetime sharing, work and
// compaction counters. TouchedTuples is the direct witness of the O(|Δ|)
// claim — it advances by the number of candidate tuples a maintenance
// pass examined, not by tree size.
type TreeStats struct {
	// Nodes is the operator-node count of the retained tree.
	Nodes int `json:"nodes"`
	// NodeTuples is the total tuple count across node output relations —
	// the "tree size" maintenance cost used to be linear in.
	NodeTuples int `json:"node_tuples"`
	// MaxRelOverlayDepth / RelOverlayMentions describe the node relations'
	// current overlay shape (deepest chain, total tombstones+appends).
	MaxRelOverlayDepth int `json:"max_rel_overlay_depth"`
	RelOverlayMentions int `json:"rel_overlay_mentions"`
	// MaxMapOverlayDepth / MapOverlayMentions describe the witness and
	// bucket maps' current overlay shape.
	MaxMapOverlayDepth int `json:"max_map_overlay_depth"`
	MapOverlayMentions int `json:"map_overlay_mentions"`
	// Derives counts maintenance passes over the chain's lifetime.
	Derives int64 `json:"derives"`
	// SharedNodes / RewrittenNodes count subtrees passed by pointer vs
	// nodes given a new O(|Δ|) generation, cumulatively.
	SharedNodes    int64 `json:"shared_nodes"`
	RewrittenNodes int64 `json:"rewritten_nodes"`
	// TouchedTuples counts candidate tuples examined by maintenance.
	TouchedTuples int64 `json:"touched_tuples"`
	// RelFolds / RelSquashes count node-relation overlay compactions.
	RelFolds    int64 `json:"rel_folds"`
	RelSquashes int64 `json:"rel_squashes"`
	// MapFolds / MapSquashes count witness/bucket map overlay compactions.
	MapFolds    int64 `json:"map_folds"`
	MapSquashes int64 `json:"map_squashes"`
	// InternHits / InternMisses count witness-interner lookups over the
	// chain's lifetime: a hit reuses a previously built Witness instead of
	// re-deriving an equal value, so on a steady delete/restore round trip
	// hits grow and misses stay flat.
	InternHits   int64 `json:"intern_hits"`
	InternMisses int64 `json:"intern_misses"`
}

// TreeStats summarizes the provenance tree as of this generation.
// O(#nodes).
func (r *Result) TreeStats() TreeStats {
	st := TreeStats{
		Derives:        r.tm.derives.Load(),
		SharedNodes:    r.tm.sharedNodes.Load(),
		RewrittenNodes: r.tm.rewrittenNodes.Load(),
		TouchedTuples:  r.tm.touchedTuples.Load(),
		RelFolds:       r.tm.relM.Folds(),
		RelSquashes:    r.tm.relM.Squashes(),
		MapFolds:       r.tm.mapM.Folds(),
		MapSquashes:    r.tm.mapM.Squashes(),
		InternHits:     r.tm.intern.hits.Load(),
		InternMisses:   r.tm.intern.misses.Load(),
	}
	seeMap := func(m *overlay.Map[[]Witness]) {
		if d := m.Depth(); d > st.MaxMapOverlayDepth {
			st.MaxMapOverlayDepth = d
		}
		st.MapOverlayMentions += m.Mentions()
	}
	seeBuck := func(b *overlay.Map[overlay.BucketVal]) {
		if b == nil {
			return
		}
		if d := b.Depth(); d > st.MaxMapOverlayDepth {
			st.MaxMapOverlayDepth = d
		}
		st.MapOverlayMentions += b.Mentions()
	}
	var walk func(n *evalNode)
	walk = func(n *evalNode) {
		st.Nodes++
		st.NodeTuples += n.rel.Len()
		if d := n.rel.OverlayDepth(); d > st.MaxRelOverlayDepth {
			st.MaxRelOverlayDepth = d
		}
		st.RelOverlayMentions += n.rel.OverlayMentions()
		seeMap(n.wit)
		seeBuck(n.lbuck)
		seeBuck(n.rbuck)
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(r.tree)
	return st
}

// deletionSet is one deletion request, pre-indexed for the tree pass.
type deletionSet struct {
	keys  map[string]bool                   // source-tuple keys, for witness filtering
	rels  map[string]bool                   // relations touched, for subtree sharing
	byRel map[string][]relation.SourceTuple // deduplicated tuples per relation
}

func newDeletionSet(T []relation.SourceTuple) *deletionSet {
	del := &deletionSet{
		keys:  make(map[string]bool, len(T)),
		rels:  make(map[string]bool),
		byRel: make(map[string][]relation.SourceTuple),
	}
	for _, st := range T {
		k := st.Key()
		if del.keys[k] {
			continue
		}
		del.keys[k] = true
		del.rels[st.Rel] = true
		del.byRel[st.Rel] = append(del.byRel[st.Rel], st)
	}
	return del
}

// ApplyDeletion derives the view and witness basis of Q(S \ T) from those
// of Q(S) without re-evaluating the query: witnesses intersecting T are
// discarded, tuples with no surviving witness leave their node. Valid for
// monotone queries, where deletions can only remove derivations, never
// create them — a witness dies iff it intersects T, and a pruned
// non-minimal witness cannot resurface because its pruner, being a
// subset, dies only when the superset does too.
//
// The pass is O(|Δ|), not O(|tree|): each node examines only the tuples
// its children report as touched, mapped through the operator (identity
// for σ/δ, projection for π, alignment for ∪, and the persistent bucket
// indexes for ⋈), and derives its new generation as overlay versions —
// tombstoned relations, layered witness maps — sharing untouched state by
// pointer. A subtree scanning none of T's relations is shared whole. This
// replaced the old scheme of filtering only the root and deferring a
// pendingDel backlog to be flushed by a full-tree rebuild: that flush ran
// inside the engine's commit lock, so one unlucky delete stalled every
// writer behind an O(|tree|) pass.
//
// Returns a fresh Result sharing structure with the receiver (possibly
// the receiver itself when T cannot affect the view); the receiver is
// unchanged and stays fully readable.
func (r *Result) ApplyDeletion(T []relation.SourceTuple) *Result {
	return r.ApplyDeletionTo(nil, T)
}

// ApplyDeletionTo is ApplyDeletion for callers that already derived the
// post-deletion source: newDB must be exactly this Result's source with T
// removed (a relation.Database.DeleteAll result). Scan nodes then ADOPT
// newDB's relation versions — byte-identical to what they would derive —
// instead of deriving a private overlay chain over the same base, so a
// delete-heavy workload maintains one version chain per relation, shared
// with the store, rather than two chains each paying their own amortized
// fold. This is the deletion-side dual of the adoption ApplyInsertion
// already does with its newDB. A nil newDB derives private versions
// (the ApplyDeletion behavior).
//
// propview:deterministic
func (r *Result) ApplyDeletionTo(newDB *relation.Database, T []relation.SourceTuple) *Result {
	del := newDeletionSet(T)
	if len(del.keys) == 0 || !touchesAny(r.plan, del.rels) {
		return r
	}
	r.tm.derives.Add(1)
	ds := deleteNodeDelta(r.plan, r.tree, newDB, del, r.tm)
	if ds.node == r.tree {
		return r
	}
	view := r.View
	if len(ds.died) > 0 {
		dead := make(map[string]struct{}, len(ds.died))
		for _, t := range ds.died {
			dead[t.Key()] = struct{}{}
		}
		view = view.DeleteVersion(dead, &r.tm.relM)
	}
	return &Result{View: view, basis: ds.node.wit, witnesses: r.witnessesAfter(ds.node.wit, ds.touched),
		plan: r.plan, lim: r.lim, tree: ds.node, tm: r.tm, died: ds.died}
}

// ApplyDeletionWorkers is ApplyDeletionTo; workers is ignored. It is kept
// only for the benchmark driver (perfbench), until the next change allowed
// to edit it.
func (r *Result) ApplyDeletionWorkers(newDB *relation.Database, T []relation.SourceTuple, workers int) *Result {
	return r.ApplyDeletionTo(newDB, T)
}

// delState is one node's deletion-maintenance outcome: the maintained node
// (the input node itself when nothing changed), the tuples whose witness
// lists changed (died included) feeding the parent's candidate set, and
// the tuples that left the node's relation (for join bucket cleanup).
type delState struct {
	node    *evalNode
	touched []relation.Tuple
	died    []relation.Tuple
}

// deleteNodeDelta maintains one operator node under a deletion, children
// first. Candidates — the only tuples whose witness lists can change —
// are the operator images of the children's touched tuples: if a witness
// w of node tuple t intersects T, then w is a union of child witnesses
// (from-scratch equivalence of the maintained state), one of which
// intersects T, so t is an image of a touched child tuple. A non-nil
// newDB is the caller's already-derived post-deletion source; scan nodes
// adopt its relation versions instead of deriving their own.
//
// propview:deterministic
func deleteNodeDelta(q algebra.Query, n *evalNode, newDB *relation.Database, del *deletionSet, tm *treeMetrics) delState {
	if !touchesAny(q, del.rels) {
		tm.sharedNodes.Add(1)
		return delState{node: n}
	}

	if q, ok := q.(algebra.Scan); ok {
		// A scan tuple's only witness is itself: it dies iff deleted.
		dead := make(map[string]struct{})
		var died []relation.Tuple
		for _, st := range del.byRel[q.Rel] {
			tm.touchedTuples.Add(1)
			k := st.Tuple.Key()
			if !n.wit.Has(k) {
				continue
			}
			dead[k] = struct{}{}
			died = append(died, st.Tuple)
		}
		if len(dead) == 0 {
			tm.sharedNodes.Add(1)
			return delState{node: n}
		}
		tm.rewrittenNodes.Add(1)
		// The output relation of a scan IS the source relation: adopt the
		// caller's post-deletion generation when it supplied one (sharing
		// the store's version chain), else derive a private version.
		var rel *relation.Relation
		if newDB != nil {
			rel = newDB.Relation(q.Rel)
		} else {
			rel = n.rel.DeleteVersion(dead, &tm.relM)
		}
		node := &evalNode{rel: rel, wit: n.wit.Derive(nil, dead, &tm.mapM)}
		return delState{node: node, touched: died, died: died}
	}

	// Children first; collect candidate images of their touched tuples.
	var kidQ []algebra.Query
	switch q := q.(type) {
	case algebra.Select:
		kidQ = []algebra.Query{q.Child}
	case algebra.Project:
		kidQ = []algebra.Query{q.Child}
	case algebra.Rename:
		kidQ = []algebra.Query{q.Child}
	case algebra.Join:
		kidQ = []algebra.Query{q.Left, q.Right}
	case algebra.Union:
		kidQ = []algebra.Query{q.Left, q.Right}
	default:
		// Validate rejects every other node type before a tree is built.
		panic(fmt.Sprintf("provenance: deleteNodeDelta: unknown query node %T", q))
	}
	kids := make([]delState, len(n.kids))
	kidsChanged := false
	for i := range n.kids {
		kids[i] = deleteNodeDelta(kidQ[i], n.kids[i], newDB, del, tm)
		if kids[i].node != n.kids[i] {
			kidsChanged = true
		}
	}

	var cands []relation.Tuple
	seen := make(map[string]bool)
	add := func(t relation.Tuple) {
		if k := t.Key(); !seen[k] {
			seen[k] = true
			cands = append(cands, t)
		}
	}
	switch q := q.(type) {
	case algebra.Select, algebra.Rename:
		for _, t := range kids[0].touched {
			add(t)
		}
	case algebra.Project:
		csch := n.kids[0].rel.Schema()
		for _, ct := range kids[0].touched {
			add(relation.ProjectAttrs(csch, ct, q.Attrs))
		}
	case algebra.Union:
		attrs := n.kids[0].rel.Schema().Attrs()
		rsch := n.kids[1].rel.Schema()
		for _, t := range kids[0].touched {
			add(t)
		}
		for _, t := range kids[1].touched {
			add(relation.ProjectAttrs(rsch, t, attrs))
		}
	case algebra.Join:
		sh := n.shape
		// Probes walk only live partners (EachLive): stale bucket entries
		// are skipped by the child's pre-deletion witness map, and the walk
		// stops once the bucket's live count is exhausted.
		for _, t := range kids[0].touched {
			bv, _ := n.rbuck.Get(sh.leftKey(t))
			bv.EachLive(n.kids[1].wit.Has, func(pt relation.Tuple, _ string) bool {
				add(sh.join(t, pt))
				return true
			})
		}
		for _, t := range kids[1].touched {
			bv, _ := n.lbuck.Get(sh.rightKey(t))
			bv.EachLive(n.kids[0].wit.Has, func(pt relation.Tuple, _ string) bool {
				add(sh.join(pt, t))
				return true
			})
		}
	}

	changes := make(map[string][]Witness)
	dead := make(map[string]struct{})
	var touched, died []relation.Tuple
	for _, t := range cands {
		tm.touchedTuples.Add(1)
		k := t.Key()
		ws, ok := n.wit.Get(k)
		if !ok {
			continue // image not in this node (e.g. a failed selection)
		}
		kept := filterWitnesses(ws, del.keys)
		if len(kept) == len(ws) {
			continue
		}
		touched = append(touched, t)
		if len(kept) == 0 {
			dead[k] = struct{}{}
			died = append(died, t)
		} else {
			changes[k] = kept
		}
	}

	if !kidsChanged && len(changes) == 0 && len(dead) == 0 {
		tm.sharedNodes.Add(1)
		return delState{node: n}
	}
	tm.rewrittenNodes.Add(1)
	rel := n.rel
	if len(dead) > 0 {
		rel = rel.DeleteVersion(dead, &tm.relM)
	}
	out := &evalNode{
		rel:   rel,
		wit:   n.wit.Derive(changes, dead, &tm.mapM),
		kids:  make([]*evalNode, len(kids)),
		shape: n.shape,
		lbuck: n.lbuck,
		rbuck: n.rbuck,
	}
	for i, k := range kids {
		out.kids[i] = k.node
	}
	if n.shape != nil {
		// Dead child tuples leave the bucket indexes (lazily, with
		// amortized compaction against the children's new witness maps) so
		// future probes stay proportional to the live join fan-out.
		out.lbuck = overlay.BucketsRemove(n.lbuck, kids[0].died, n.shape.leftKey, out.kids[0].wit.Has, &tm.mapM)
		out.rbuck = overlay.BucketsRemove(n.rbuck, kids[1].died, n.shape.rightKey, out.kids[1].wit.Has, &tm.mapM)
	}
	return delState{node: out, touched: touched, died: died}
}

// ApplyInsertion derives the view and witness basis of Q(S ∪ I) from those
// of Q(S) by a delta evaluation instead of a from-scratch recompute. The
// key fact, valid for the monotone SPJRU fragment: insertions never remove
// derivations, so every old minimal witness stays minimal (minimality is a
// property of the witness and the query alone), and every NEW minimal
// witness uses at least one inserted tuple. New witnesses also cannot prune
// old ones (a new witness contains an inserted tuple the old witness
// lacks, so it is never a subset), and vice versa a new witness pruned by
// an old subset must be discarded exactly as a from-scratch minimization
// would. The delta pass therefore computes, per operator node, only the
// derivations that touch I, merges them into the node's retained basis
// with one minimization, and propagates the survivors upward.
//
// Like ApplyDeletion the pass is O(|Δ|) in state as well as work: each
// node's new generation is an overlay version of the old one — novel
// tuples appended to the output relation, grown witness lists layered
// onto the witness map, join probes answered by the persistent bucket
// indexes instead of rebuilding a hash of the full child — and untouched
// subtrees are shared by pointer.
//
// newDB must be the post-insertion source (db.InsertAll result) and I the
// tuples genuinely added — tuples already present create no witnesses and
// must be filtered by the caller. The basis cap the Result was computed
// under is re-enforced: a grown basis exceeding it fails with ErrLimit and
// no partial state. The Result retains the tuples of I, which must not be
// mutated afterwards. Returns a fresh Result; the receiver is unchanged.
//
// propview:deterministic
func (r *Result) ApplyInsertion(newDB *relation.Database, I []relation.SourceTuple) (*Result, error) {
	if len(I) == 0 {
		return r, nil
	}
	// A plan whose base relations are disjoint from I is untouched: the
	// view, basis and tree are all exactly as they were — the receiver IS
	// the result. This is what keeps a many-view engine's insert cost
	// proportional to the views actually affected, not to the total cached
	// state.
	touched := make(map[string]bool, len(I))
	for _, st := range I {
		touched[st.Rel] = true
	}
	if !touchesAny(r.plan, touched) {
		return r, nil
	}
	r.tm.derives.Add(1)
	dn, err := insertNodeDelta(r.plan, r.tree, newDB, I, r.lim, touched, r.tm)
	if err != nil {
		return nil, err
	}
	if dn.node == r.tree {
		return r, nil
	}
	view := r.View
	if len(dn.novel) > 0 {
		view = view.InsertVersion(dn.novel, &r.tm.relM)
	}
	// Old witnesses all survive an insertion, so the total grows by the
	// added ones.
	witnesses := r.witnesses
	for _, g := range dn.delta {
		witnesses += len(g.added)
	}
	return &Result{View: view, basis: dn.node.wit, witnesses: witnesses,
		plan: r.plan, lim: r.lim, tree: dn.node, tm: r.tm, added: dn.novel}, nil
}

// ApplyInsertionWorkers is ApplyInsertion; workers is ignored. It is kept
// only for the benchmark driver (perfbench), until the next change allowed
// to edit it.
func (r *Result) ApplyInsertionWorkers(newDB *relation.Database, I []relation.SourceTuple, workers int) (*Result, error) {
	return r.ApplyInsertion(newDB, I)
}

// deltaNode is one operator node's incremental update: the maintained node
// over S ∪ I (the input node itself when nothing changed), the tuples
// whose witness sets grew — brand-new tuples included — in derivation
// order, and the subset of them appended to the node's output relation.
type deltaNode struct {
	node  *evalNode
	delta []grown
	novel []relation.Tuple
}

// grown is one tuple of an insertion delta: the tuple, its key and the
// minimal witnesses it gained, which feed the parent's derivations.
type grown struct {
	t     relation.Tuple
	k     string
	added []Witness
}

// touchesAny reports whether any base relation of q is in the touched set.
func touchesAny(q algebra.Query, touched map[string]bool) bool {
	for _, rel := range algebra.BaseRelations(q) {
		if touched[rel] {
			return true
		}
	}
	return false
}

// candSet collects one node's new derivations: the candidate tuples in
// derivation order, deduplicated, and the witnesses derived for each.
type candSet struct {
	ts   []relation.Tuple
	keys []string
	acc  map[string][]Witness
}

func newCandSet(n int) *candSet { return &candSet{acc: make(map[string][]Witness, n)} }

// add records the witnesses ws derived for tuple t with key k. ws is
// shared, never written through: its first record is clipped to its
// length, so a later one appends to a copy.
func (c *candSet) add(t relation.Tuple, k string, ws []Witness) {
	prev, ok := c.acc[k]
	if !ok {
		c.ts = append(c.ts, t)
		c.keys = append(c.keys, k)
		c.acc[k] = ws[:len(ws):len(ws)]
		return
	}
	c.acc[k] = append(prev, ws...)
}

// mergeCandidates folds a node's new derivations into its basis: the new
// entry for k is minimize(old[k] ∪ acc[k]) — identical to what a
// from-scratch evaluation minimizes, since the candidates cover exactly
// the derivations using I (see ApplyInsertion). Returns the witness-map
// changes, the grown tuples with their added witnesses, and the tuples
// new to the node's relation — those without old witnesses; a candidate
// pruned by an old subset is dropped here, exactly where a from-scratch
// minimization would drop it. The first candidate, in derivation order,
// whose merged list trips check fails the merge.
//
// propview:deterministic
func mergeCandidates(old *evalNode, c *candSet, check func([]Witness) error, tm *treeMetrics) (set map[string][]Witness, delta []grown, novel []relation.Tuple, err error) {
	set = make(map[string][]Witness, len(c.ts))
	for i, t := range c.ts {
		tm.touchedTuples.Add(1)
		k := c.keys[i]
		oldWs, _ := old.wit.Get(k)
		merged := c.acc[k]
		if len(oldWs) > 0 {
			merged = append(oldWs[:len(oldWs):len(oldWs)], merged...)
		}
		merged = minimizeWitnesses(merged)
		if err := check(merged); err != nil {
			return nil, nil, nil, err
		}
		added := merged // a tuple without old witnesses gains them all
		if len(oldWs) > 0 {
			oldKeys := make(map[string]bool, len(oldWs))
			for _, w := range oldWs {
				oldKeys[w.Key()] = true
			}
			added = nil
			for _, w := range merged {
				if !oldKeys[w.Key()] {
					added = append(added, w)
				}
			}
		}
		if len(added) == 0 {
			continue // every candidate was pruned: no growth at this tuple
		}
		set[k] = merged
		delta = append(delta, grown{t: t, k: k, added: added})
		if len(oldWs) == 0 {
			novel = append(novel, t)
		}
	}
	return set, delta, novel, nil
}

// limitCheck builds the per-merge witness-cap enforcement closure.
func limitCheck(lim Limit) func([]Witness) error {
	return func(ws []Witness) error {
		if lim.MaxWitnesses > 0 && len(ws) > lim.MaxWitnesses {
			return fmt.Errorf("%w: %d witnesses > cap %d", ErrLimit, len(ws), lim.MaxWitnesses)
		}
		return nil
	}
}

// passThrough forwards a child's insertion delta through a node that
// keeps tuples as-is — σ (with its condition) and δ (unconditionally):
// the child's witness lists are shared wholesale, and kept tuples absent
// from the node's relation are appended. finish is the caller's node
// assembler.
func passThrough(old *evalNode, child deltaNode, keep func(relation.Tuple) bool, finish func(map[string][]Witness, []grown, []relation.Tuple, []*evalNode) deltaNode, tm *treeMetrics) deltaNode {
	set := make(map[string][]Witness, len(child.delta))
	var delta []grown
	var novel []relation.Tuple
	for _, g := range child.delta {
		if keep != nil && !keep(g.t) {
			continue
		}
		tm.touchedTuples.Add(1)
		set[g.k], _ = child.node.wit.Get(g.k)
		delta = append(delta, g)
		if !old.rel.ContainsKey(g.k) {
			novel = append(novel, g.t)
		}
	}
	return finish(set, delta, novel, []*evalNode{child.node})
}

// insertNodeDelta delta-evaluates one operator node: children first, then
// this node's new derivations — exactly the ones using at least one
// inserted tuple — merged into the retained basis. old is the node's
// pre-insertion state (whose witness maps supply the "old side" of join
// combinations), newDB the post-insertion source; touched names the
// relations I inserts into. A subtree scanning none of them has an empty
// delta by definition, so its old node is shared unchanged instead of
// being rebuilt — e.g. the untouched side of a join.
//
// propview:deterministic
func insertNodeDelta(q algebra.Query, old *evalNode, newDB *relation.Database, I []relation.SourceTuple, lim Limit, touched map[string]bool, tm *treeMetrics) (deltaNode, error) {
	if !touchesAny(q, touched) {
		tm.sharedNodes.Add(1)
		return deltaNode{node: old}, nil
	}
	check := limitCheck(lim)

	// finish assembles the node from the merge outcome, sharing storage
	// (and the whole node, when possible) if nothing changed.
	finish := func(set map[string][]Witness, delta []grown, novel []relation.Tuple, kids []*evalNode) deltaNode {
		unchangedKids := true
		for i, k := range kids {
			if old.kids[i] != k {
				unchangedKids = false
			}
		}
		if len(set) == 0 && unchangedKids {
			tm.sharedNodes.Add(1)
			return deltaNode{node: old}
		}
		tm.rewrittenNodes.Add(1)
		rel := old.rel
		if len(novel) > 0 {
			rel = rel.InsertVersion(novel, &tm.relM)
		}
		node := &evalNode{rel: rel, wit: old.wit.Derive(set, nil, &tm.mapM), kids: kids, shape: old.shape, lbuck: old.lbuck, rbuck: old.rbuck}
		return deltaNode{node: node, delta: delta, novel: novel}
	}

	switch q := q.(type) {
	case algebra.Scan:
		n := 0
		for _, st := range I {
			if st.Rel == q.Rel {
				n++
			}
		}
		set := make(map[string][]Witness, n)
		var delta []grown
		var novel []relation.Tuple
		for _, st := range I {
			if st.Rel != q.Rel {
				continue
			}
			k := st.Tuple.Key()
			if old.wit.Has(k) {
				continue // was already in the relation: nothing new
			}
			if _, dup := set[k]; dup {
				continue
			}
			ws := []Witness{tm.intern.singleton(st)}
			set[k] = ws
			delta = append(delta, grown{t: st.Tuple, k: k, added: ws})
			novel = append(novel, st.Tuple)
		}
		if len(set) == 0 {
			tm.sharedNodes.Add(1)
			return deltaNode{node: old}, nil
		}
		tm.rewrittenNodes.Add(1)
		tm.touchedTuples.Add(int64(len(delta)))
		// The output relation of a scan IS the source relation: adopt the
		// new generation's, already an O(|Δ|) overlay over the same base.
		node := &evalNode{rel: newDB.Relation(q.Rel), wit: old.wit.Derive(set, nil, &tm.mapM)}
		return deltaNode{node: node, delta: delta, novel: novel}, nil

	case algebra.Select:
		child, err := insertNodeDelta(q.Child, old.kids[0], newDB, I, lim, touched, tm)
		if err != nil {
			return deltaNode{}, err
		}
		sch := old.kids[0].rel.Schema()
		return passThrough(old, child, func(t relation.Tuple) bool { return q.Cond.Holds(sch, t) }, finish, tm), nil

	case algebra.Rename:
		child, err := insertNodeDelta(q.Child, old.kids[0], newDB, I, lim, touched, tm)
		if err != nil {
			return deltaNode{}, err
		}
		return passThrough(old, child, nil, finish, tm), nil

	case algebra.Project:
		child, err := insertNodeDelta(q.Child, old.kids[0], newDB, I, lim, touched, tm)
		if err != nil {
			return deltaNode{}, err
		}
		csch := old.kids[0].rel.Schema()
		cs := newCandSet(len(child.delta))
		for _, g := range child.delta {
			pt := relation.ProjectAttrs(csch, g.t, q.Attrs)
			cs.add(pt, pt.Key(), g.added)
		}
		set, delta, novel, err := mergeCandidates(old, cs, check, tm)
		if err != nil {
			return deltaNode{}, err
		}
		return finish(set, delta, novel, []*evalNode{child.node}), nil

	case algebra.Union:
		left, right, err := insertKidsPair(q.Left, q.Right, old, newDB, I, lim, touched, tm)
		if err != nil {
			return deltaNode{}, err
		}
		attrs := old.kids[0].rel.Schema().Attrs()
		rsch := old.kids[1].rel.Schema()
		cs := newCandSet(len(left.delta) + len(right.delta))
		for _, g := range left.delta {
			cs.add(g.t, g.k, g.added)
		}
		for _, g := range right.delta {
			aligned := relation.ProjectAttrs(rsch, g.t, attrs)
			cs.add(aligned, aligned.Key(), g.added)
		}
		set, delta, novel, err := mergeCandidates(old, cs, check, tm)
		if err != nil {
			return deltaNode{}, err
		}
		return finish(set, delta, novel, []*evalNode{left.node, right.node}), nil

	case algebra.Join:
		left, right, err := insertKidsPair(q.Left, q.Right, old, newDB, I, lim, touched, tm)
		if err != nil {
			return deltaNode{}, err
		}
		sh := old.shape
		// Bucket indexes gain the novel child tuples first: the ΔL term
		// probes the NEW right side so ΔL×ΔR combinations appear exactly
		// once there.
		lbuck := overlay.BucketsAdd(old.lbuck, left.novel, sh.leftKey, &tm.mapM)
		rbuck := overlay.BucketsAdd(old.rbuck, right.novel, sh.rightKey, &tm.mapM)

		// New combinations = ΔL × R_new  ∪  L_old × ΔR: every pair using at
		// least one added witness appears exactly once (ΔL×ΔR lands in the
		// first term; the second pairs only OLD left witnesses with ΔR).
		cs := newCandSet(len(left.delta) + len(right.delta))
		probe := func(delta []grown, myKey func(relation.Tuple) string, buck *overlay.Map[overlay.BucketVal], oppWit *overlay.Map[[]Witness], leftSide bool) {
			for _, g := range delta {
				bv, _ := buck.Get(myKey(g.t))
				bv.EachLive(oppWit.Has, func(pt relation.Tuple, pk string) bool {
					pws, _ := oppWit.Get(pk)
					var joined relation.Tuple
					ws := make([]Witness, 0, len(g.added)*len(pws))
					if leftSide {
						joined = sh.join(g.t, pt)
						for _, wl := range g.added {
							for _, wr := range pws {
								ws = append(ws, tm.intern.union(wl, wr))
							}
						}
					} else {
						joined = sh.join(pt, g.t)
						for _, wl := range pws {
							for _, wr := range g.added {
								ws = append(ws, tm.intern.union(wl, wr))
							}
						}
					}
					cs.add(joined, joined.Key(), ws)
					return true
				})
			}
		}
		probe(left.delta, sh.leftKey, rbuck, right.node.wit, true)
		probe(right.delta, sh.rightKey, old.lbuck, old.kids[0].wit, false)
		set, delta, novel, err := mergeCandidates(old, cs, check, tm)
		if err != nil {
			return deltaNode{}, err
		}
		dn := finish(set, delta, novel, []*evalNode{left.node, right.node})
		if dn.node != old {
			dn.node.lbuck, dn.node.rbuck = lbuck, rbuck
		}
		return dn, nil

	default:
		// Validate rejects every other node type before a tree is built.
		panic(fmt.Sprintf("provenance: insertNodeDelta: unknown query node %T", q))
	}
}

// insertKidsPair delta-evaluates a two-child operator's subtrees, left
// first; the right child is skipped after a left error.
//
// propview:deterministic
func insertKidsPair(ql, qr algebra.Query, old *evalNode, newDB *relation.Database, I []relation.SourceTuple, lim Limit, touched map[string]bool, tm *treeMetrics) (deltaNode, deltaNode, error) {
	left, err := insertNodeDelta(ql, old.kids[0], newDB, I, lim, touched, tm)
	if err != nil {
		return deltaNode{}, deltaNode{}, err
	}
	right, err := insertNodeDelta(qr, old.kids[1], newDB, I, lim, touched, tm)
	if err != nil {
		return deltaNode{}, deltaNode{}, err
	}
	return left, right, nil
}

// Limit bounds witness-basis computation. The basis can be exponential in
// query size (Corollary 3.1 shows even witness membership is NP-hard for
// PJ queries), so callers working with adversarial queries set MaxWitnesses.
type Limit struct {
	// MaxWitnesses caps the number of witnesses tracked per tuple at any
	// node; 0 means unlimited.
	MaxWitnesses int
}

// ErrLimit is returned (wrapped) when a Limit is exceeded.
var ErrLimit = fmt.Errorf("provenance: witness limit exceeded")

// Compute evaluates q over db and returns the view with the full witness
// basis of every tuple.
func Compute(q algebra.Query, db *relation.Database) (*Result, error) {
	return ComputeLimited(q, db, Limit{})
}

// ComputeLimited is Compute with a cap on the witness basis size. The
// build is an insertion from the empty instance: ApplyInsertion of every
// tuple of q's base relations, in store order, into q's empty operator
// tree. The insertion step is the one maintenance runs, so a built Result
// and a maintained one are the same kind of state. The build interns no
// witnesses (no lookup could hit), and the Result starts with fresh
// counters, so TreeStats reports maintenance only.
func ComputeLimited(q algebra.Query, db *relation.Database, lim Limit) (*Result, error) {
	if err := algebra.Validate(q, db); err != nil {
		return nil, err
	}
	tree := emptyNode(q, db)
	empty := &Result{View: relation.New(algebra.DefaultViewName, tree.rel.Schema()).Seal(), basis: tree.wit,
		plan: q, lim: lim, tree: tree, tm: &treeMetrics{}}
	built, err := empty.ApplyInsertion(db, db.SourceTuplesOf(algebra.BaseRelations(q)))
	if err != nil {
		return nil, err
	}
	r := *built
	r.tm = &treeMetrics{intern: &witnessInterner{}}
	r.added = nil
	return &r, nil
}

// emptyNode builds q's operator tree over the empty instance: each node's
// schema and, on join nodes, its shape and empty bucket indexes. q must
// have passed Validate.
func emptyNode(q algebra.Query, db *relation.Database) *evalNode {
	sch, _ := algebra.SchemaOf(q, db)
	n := &evalNode{rel: relation.New("", sch).Seal(), wit: overlay.NewMap(map[string][]Witness{})}
	for _, c := range algebra.Children(q) {
		n.kids = append(n.kids, emptyNode(c, db))
	}
	if _, ok := q.(algebra.Join); ok {
		n.shape = newJoinShape(n.kids[0].rel.Schema(), n.kids[1].rel.Schema())
		n.lbuck = overlay.NewBuckets(nil)
		n.rbuck = overlay.NewBuckets(nil)
	}
	return n
}

// evalNode is one operator of the evaluated plan: its output relation
// annotated with witness bases, and its children. Result retains the tree
// for incremental maintenance, deriving each node's next generation as
// overlay versions of rel and wit (plus, on join nodes, the persistent
// bucket indexes of the child relations on the join attributes).
type evalNode struct {
	rel  *relation.Relation
	wit  *overlay.Map[[]Witness]
	kids []*evalNode

	// Join nodes only: the join geometry and the children's hash indexes
	// on the common attributes, maintained across generations so delta
	// probes never rebuild a hash of a full child relation.
	shape        *joinShape
	lbuck, rbuck *overlay.Map[overlay.BucketVal]
}

// joinShape is the fixed geometry of one join node: child schemas, the
// common attributes, and the tuple combiner.
type joinShape struct {
	ls, rs     relation.Schema
	common     []relation.Attribute
	rightExtra []relation.Attribute
}

func newJoinShape(ls, rs relation.Schema) *joinShape {
	sh := &joinShape{ls: ls, rs: rs, common: ls.Common(rs)}
	for _, a := range rs.Attrs() {
		if !ls.Has(a) {
			sh.rightExtra = append(sh.rightExtra, a)
		}
	}
	return sh
}

func (sh *joinShape) leftKey(lt relation.Tuple) string {
	return relation.ProjectAttrs(sh.ls, lt, sh.common).Key()
}

func (sh *joinShape) rightKey(rt relation.Tuple) string {
	return relation.ProjectAttrs(sh.rs, rt, sh.common).Key()
}

func (sh *joinShape) join(lt, rt relation.Tuple) relation.Tuple {
	return append(append(relation.Tuple{}, lt...), relation.ProjectAttrs(sh.rs, rt, sh.rightExtra)...)
}

// VerifyWitness checks the defining property of a witness directly: t must
// be in Q restricted to exactly the witness tuples, and the witness must be
// minimal (removing any single tuple loses t). It is used by tests and by
// the exhaustive baseline.
func VerifyWitness(q algebra.Query, db *relation.Database, t relation.Tuple, w Witness) (bool, error) {
	restricted, err := restrictTo(db, w)
	if err != nil {
		return false, err
	}
	v, err := algebra.Eval(q, restricted)
	if err != nil {
		return false, err
	}
	if !v.Contains(t) {
		return false, nil
	}
	for _, drop := range w.Tuples() {
		sub, err := algebra.Eval(q, restricted.DeleteAll([]relation.SourceTuple{drop}))
		if err != nil {
			return false, err
		}
		if sub.Contains(t) {
			return false, nil // not minimal
		}
	}
	return true, nil
}

// restrictTo builds the sub-database containing exactly the witness tuples
// (empty versions of every other relation are kept so the query stays
// valid).
func restrictTo(db *relation.Database, w Witness) (*relation.Database, error) {
	keep := make(map[string]bool, w.Len())
	for _, st := range w.Tuples() {
		if !db.Contains(st) {
			return nil, fmt.Errorf("provenance: witness tuple %s not in database", st)
		}
		keep[st.Key()] = true
	}
	out := relation.NewDatabase()
	for _, r := range db.Relations() {
		r := r
		nr := relation.New(r.Name(), r.Schema())
		r.Each(func(t relation.Tuple) bool {
			if keep[(relation.SourceTuple{Rel: r.Name(), Tuple: t}).Key()] {
				nr.Insert(t)
			}
			return true
		})
		out.MustAdd(nr)
	}
	return out, nil
}

// WitnessesNaive computes the minimal witnesses of t by brute force over
// subsets of the source restricted to the tuples in t's lineage. It is the
// ablation baseline for Compute and is only feasible on tiny inputs.
func WitnessesNaive(q algebra.Query, db *relation.Database, t relation.Tuple) ([]Witness, error) {
	lin, err := LineageOf(q, db, t)
	if err != nil {
		return nil, err
	}
	cand := lin.Tuples()
	if len(cand) > 20 {
		return nil, fmt.Errorf("provenance: naive witness enumeration over %d candidates is infeasible", len(cand))
	}
	var found []Witness
	for mask := 0; mask < 1<<len(cand); mask++ {
		var sub []relation.SourceTuple
		for i, st := range cand {
			if mask&(1<<i) != 0 {
				sub = append(sub, st)
			}
		}
		w := NewWitness(sub...)
		restricted, err := restrictTo(db, w)
		if err != nil {
			return nil, err
		}
		v, err := algebra.Eval(q, restricted)
		if err != nil {
			return nil, err
		}
		if v.Contains(t) {
			found = append(found, w)
		}
	}
	return minimizeWitnesses(found), nil
}
