// Package provenance implements the two notions of provenance the paper
// connects its problems to: why-provenance (witnesses — footnote 4: a
// witness for a tuple t in a view is a minimal subset S' of the source S
// with t ∈ Q(S')) and the flat lineage of Cui–Widom used by the baseline
// deletion translator.
//
// The witness basis is the witness algebra of the shared delta evaluator
// (package annotree): a scan annotates a source tuple with its singleton
// witness, a join unions its operands' witnesses pairwise, π and ∪ keep
// them, an insertion minimizes each row's old basis together with its new
// derivations, and a deletion filters out the witnesses meeting the
// deleted tuples. Where-provenance, the annotation-propagation side, is
// the same evaluator under the location-set algebra of package
// annotation. lineageEval, proofEval and WitnessesNaive stay independent
// of the evaluator, as oracles.
package provenance

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/annotree"
	"repro/internal/layered"
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

// Keys returns the keys (relation.SourceTuple.Key) of the source tuples,
// in the order of Tuples. Callers must not modify the slice.
func (w Witness) Keys() []string { return w.keys }

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
// view tuple, plus the witness-annotated operator tree (package annotree)
// that makes incremental maintenance under both deletions and insertions
// O(|Δ|).
//
// Results form persistent generation chains: ApplyDeletion and
// ApplyInsertion return fresh Results sharing almost all storage with the
// receiver — the view as a tombstone/append overlay version, every node's
// witness map and join index as layered overlay maps, untouched subtrees
// by pointer — so any retained generation stays readable while writes
// derive new ones.
type Result struct {
	// View is the evaluated view Q(S), maintained from the tree root's
	// delta as an overlay version chain.
	View *relation.Relation
	// witnesses is the total witness count over the view, counted by the
	// build and adjusted from the root's delta by each maintenance pass.
	witnesses int
	// lim is the basis cap the result was computed under; every insertion
	// re-enforces it.
	lim Limit
	// tree is the witness-annotated operator tree: its root's rows are the
	// view's and their annotations the minimal witness bases.
	tree *annotree.Node[[]Witness]
	// tm accumulates maintenance counters over the tree's lifetime; shared
	// along the generation chain, like the source store's metrics.
	tm *treeMetrics
	// delta is the view rows this generation removed from or appended to
	// its receiver's view (see ViewDelta); empty on a computed Result.
	delta Delta
}

// Delta is the view rows one maintenance pass removed (Died) and appended
// (Added), each row's key (Tuple.Key) at the same index of DiedKeys and
// AddedKeys: the keys the pass computed anyway, so a consumer that nets
// deltas by row need not hash the rows again.
type Delta struct {
	Died, Added         []relation.Tuple
	DiedKeys, AddedKeys []string
}

// ViewDelta returns the view rows the maintenance pass that produced r
// removed and appended, relative to the Result it was applied to:
// ApplyDeletion fills Died and ApplyInsertion Added. All four slices are
// nil for a Result from Compute and for a pass that left the view's rows
// as they were. The slices are shared and must not be modified.
func (r *Result) ViewDelta() Delta { return r.delta }

// Witnesses returns the minimal witnesses of view tuple t (nil if t is not
// in the view).
func (r *Result) Witnesses(t relation.Tuple) []Witness {
	ws, _ := r.tree.Get(t.Key())
	return ws
}

// WitnessCount returns the total number of minimal witnesses over every
// view tuple. O(1): the count is carried along the generation chain.
func (r *Result) WitnessCount() int { return r.witnesses }

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

	tree annotree.Metrics // tree work and witness/index map compactions
	relM layered.Counters // view relation overlay activity

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
	// NodeTuples is the total row count across the nodes' witness maps —
	// the "tree size" maintenance cost used to be linear in.
	NodeTuples int `json:"node_tuples"`
	// MaxRelOverlayDepth / RelOverlayMentions describe the maintained view
	// relation's current overlay shape (chain depth, total
	// tombstones+appends). No operator node keeps a relation.
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
	// TouchedTuples counts the scan tuples, candidate tuples and join
	// partners maintenance examined.
	TouchedTuples int64 `json:"touched_tuples"`
	// RelFolds / RelSquashes count the maintained view relation's overlay
	// compactions.
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
	sh := r.tree.Shape()
	return TreeStats{
		Nodes:              sh.Nodes,
		NodeTuples:         sh.Rows,
		MaxRelOverlayDepth: r.View.OverlayDepth(),
		RelOverlayMentions: r.View.OverlayMentions(),
		MaxMapOverlayDepth: sh.MaxDepth,
		MapOverlayMentions: sh.Mentions,
		Derives:            r.tm.derives.Load(),
		SharedNodes:        r.tm.tree.Shared(),
		RewrittenNodes:     r.tm.tree.Rewritten(),
		TouchedTuples:      r.tm.tree.Touched(),
		RelFolds:           r.tm.relM.Folds(),
		RelSquashes:        r.tm.relM.Squashes(),
		MapFolds:           r.tm.tree.Folds(),
		MapSquashes:        r.tm.tree.Squashes(),
		InternHits:         r.tm.intern.hits.Load(),
		InternMisses:       r.tm.intern.misses.Load(),
	}
}

// ApplyDeletion derives the view and witness basis of Q(S \ T) from those
// of Q(S) without re-evaluating the query: witnesses intersecting T are
// discarded, tuples with no surviving witness leave their node. Valid for
// monotone queries, where deletions can only remove derivations, never
// create them — a witness dies iff it intersects T, and a pruned
// non-minimal witness cannot resurface because its pruner, being a
// subset, dies only when the superset does too.
//
// The pass is one annotree step, O(|Δ|) rather than O(|tree|): a node
// examines only the images of the tuples its children report changed —
// if a witness w of node tuple t intersects T, then w is a union of child
// witnesses one of which intersects T, so t is such an image — and
// derives its new generation as overlay versions sharing untouched state
// by pointer. A subtree scanning none of T's relations is shared whole.
//
// Returns a fresh Result sharing structure with the receiver (possibly
// the receiver itself when T cannot affect the view); the receiver is
// unchanged and stays fully readable.
//
// propview:deterministic
func (r *Result) ApplyDeletion(T []relation.SourceTuple) *Result {
	w := annotree.NewWrite(T, false, &r.tm.tree)
	if !r.tree.Reaches(w) {
		return r
	}
	r.tm.derives.Add(1)
	del := make(map[string]bool, len(T))
	for _, st := range T {
		del[st.Key()] = true
	}
	tree, rows, _ := r.tree.Step(w, &witnessAlgebra{del: del}) // a deletion never fails
	return r.next(tree, rows)
}

// ApplyDeletionWorkers is ApplyDeletion; newDB and workers are ignored. It
// is kept only for the benchmark program (perfbench), until the next
// change allowed to edit it.
func (r *Result) ApplyDeletionWorkers(newDB *relation.Database, T []relation.SourceTuple, workers int) *Result {
	return r.ApplyDeletion(T)
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
// would. The step therefore computes, per operator node, only the
// derivations that touch I — ΔL⋈R_new ∪ L_old⋈ΔR at a join — merges them
// into the node's retained basis with one minimization, and propagates the
// survivors upward, in O(|Δ|) state and work like ApplyDeletion.
//
// I must be the tuples genuinely added — tuples already present create no
// witnesses and must be filtered by the caller. The basis cap the Result
// was computed under is re-enforced: a grown basis exceeding it fails with
// ErrLimit and no partial state. The Result retains the tuples of I, which
// must not be mutated afterwards. Returns a fresh Result; the receiver is
// unchanged.
//
// propview:deterministic
func (r *Result) ApplyInsertion(I []relation.SourceTuple) (*Result, error) {
	// A plan whose base relations are disjoint from I is untouched: the
	// receiver IS the result. This keeps a many-view engine's insert cost
	// proportional to the views actually affected.
	w := annotree.NewWrite(I, true, &r.tm.tree)
	if !r.tree.Reaches(w) {
		return r, nil
	}
	r.tm.derives.Add(1)
	tree, rows, err := r.tree.Step(w, &witnessAlgebra{intern: r.tm.intern, lim: r.lim})
	if err != nil {
		return nil, err
	}
	return r.next(tree, rows), nil
}

// ApplyInsertionWorkers is ApplyInsertion; newDB and workers are ignored.
// It is kept only for the benchmark program (perfbench), until the next
// change allowed to edit it.
func (r *Result) ApplyInsertionWorkers(newDB *relation.Database, I []relation.SourceTuple, workers int) (*Result, error) {
	return r.ApplyInsertion(I)
}

// next assembles the generation whose tree is tree from the root's delta:
// died rows leave the view, added rows are appended to it in delta order,
// and the witness total moves by each row's basis change.
func (r *Result) next(tree *annotree.Node[[]Witness], rows []annotree.Row[[]Witness]) *Result {
	if tree == r.tree {
		return r
	}
	out := &Result{View: r.View, witnesses: r.witnesses, lim: r.lim, tree: tree, tm: r.tm}
	dead := make(map[string]struct{})
	for _, row := range rows {
		switch row.S {
		case annotree.Died:
			dead[row.K] = struct{}{}
			out.delta.Died = append(out.delta.Died, row.T)
			out.delta.DiedKeys = append(out.delta.DiedKeys, row.K)
		case annotree.Added:
			out.delta.Added = append(out.delta.Added, row.T)
			out.delta.AddedKeys = append(out.delta.AddedKeys, row.K)
		}
		old, _ := r.tree.Get(row.K)
		cur, _ := tree.Get(row.K)
		out.witnesses += len(cur) - len(old)
	}
	if len(dead) > 0 {
		out.View = out.View.DeleteVersion(dead, &r.tm.relM)
	}
	if len(out.delta.Added) > 0 {
		out.View = out.View.InsertVersion(out.delta.Added, &r.tm.relM)
	}
	return out
}

// witnessAlgebra is why-provenance as an annotree algebra: a row's
// annotation is its minimal witness basis. One value serves one write:
// del holds a deletion's source-tuple keys; intern (nil during the build)
// and lim serve an insertion.
type witnessAlgebra struct {
	del    map[string]bool
	intern *witnessInterner
	lim    Limit
}

// Scan returns an inserted source tuple's only witness: itself.
func (a *witnessAlgebra) Scan(rel string, _ []relation.Attribute, t relation.Tuple, _ string) []Witness {
	return []Witness{a.intern.singleton(relation.SourceTuple{Rel: rel, Tuple: t})}
}

// Lift keeps a row's witnesses through π and ∪.
func (*witnessAlgebra) Lift(_ []int, ws []Witness) []Witness { return ws }

// Join unions every left witness with every right one.
func (a *witnessAlgebra) Join(_ []annotree.SrcPos, l, r []Witness) []Witness {
	ws := make([]Witness, 0, len(l)*len(r))
	for _, wl := range l {
		for _, wr := range r {
			ws = append(ws, a.intern.union(wl, wr))
		}
	}
	return ws
}

// Add concatenates contributions. c is shared, never written through: the
// first is clipped to its length, so a later one appends to a copy.
func (*witnessAlgebra) Add(acc, c []Witness) []Witness {
	if acc == nil {
		return c[:len(c):len(c)]
	}
	return append(acc, c...)
}

// Grow folds a row's new derivations into its basis: the new basis is
// minimize(old ∪ acc) — identical to what a from-scratch evaluation
// minimizes, since the candidates cover exactly the derivations using the
// inserted tuples (see ApplyInsertion) — and the delta is the witnesses
// it gained. A derivation pruned by an old subset is dropped here, where a
// from-scratch minimization would drop it. A basis over the cap fails.
func (a *witnessAlgebra) Grow(old []Witness, _ bool, acc []Witness) (next, added []Witness, grew bool, err error) {
	merged := acc
	if len(old) > 0 {
		merged = append(old[:len(old):len(old)], acc...)
	}
	merged = minimizeWitnesses(merged)
	if a.lim.MaxWitnesses > 0 && len(merged) > a.lim.MaxWitnesses {
		return nil, nil, false, fmt.Errorf("%w: %d witnesses > cap %d", ErrLimit, len(merged), a.lim.MaxWitnesses)
	}
	added = merged // a row without old witnesses gains them all
	if len(old) > 0 {
		had := make(map[string]bool, len(old))
		for _, w := range old {
			had[w.Key()] = true
		}
		added = nil
		for _, w := range merged {
			if !had[w.Key()] {
				added = append(added, w)
			}
		}
	}
	return merged, added, len(added) > 0, nil
}

// Shrink keeps the witnesses disjoint from the deleted tuples; a row
// keeping none dies.
func (a *witnessAlgebra) Shrink(old, _ []Witness, _ bool) (next []Witness, alive, changed bool) {
	kept := filterWitnesses(old, a.del)
	return kept, len(kept) > 0, len(kept) < len(old)
}

// Recomputes is false: a deletion filters each row's own basis.
func (*witnessAlgebra) Recomputes() bool { return false }

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
	tree := annotree.Empty[[]Witness](q, db, false)
	empty := &Result{View: relation.New(algebra.DefaultViewName, tree.Schema()).Seal(), lim: lim, tree: tree, tm: &treeMetrics{}}
	built, err := empty.ApplyInsertion(db.SourceTuplesOf(algebra.BaseRelations(q)))
	if err != nil {
		return nil, err
	}
	r := *built
	r.tm = &treeMetrics{intern: &witnessInterner{}}
	r.delta = Delta{}
	return &r, nil
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
