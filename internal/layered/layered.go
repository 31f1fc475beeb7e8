// Package layered is the persistent layered overlay behind every
// versioned store in the module: the segments of a frozen relation
// (internal/relation) and the witness, join-bucket and where-provenance
// maps (internal/overlay) are thin instantiations of Store.
//
// A Store is an immutable base plus a chain of immutable layers. Each
// layer records one delta over the version below it: a tombstone key set
// and a list of appended entries. Deriving the next version is O(|Δ|):
// the base and every earlier layer are shared by pointer, only the new
// layer is allocated. Every field is immutable after construction, so a
// version is safe to read concurrently and any retained version stays
// readable while writers derive new ones.
//
// Resolution rule: the TOPMOST layer mentioning a key decides it (an
// append ⇒ present with that entry, a tombstone ⇒ absent; within one
// layer the append wins); an unmentioned key falls through to the base.
// Iteration yields the base entries no layer mentions, in base order,
// then each layer's deciding appends oldest-first. A key deleted and
// later re-appended therefore leaves its base position and reappears at
// the end — exactly where a from-scratch rebuild would put it.
//
// Two compactions bound the chain, both on one Policy:
//
//   - fold: when the cumulative mention count passes a quarter of the
//     base (or the policy's floor, for small bases), the version is
//     flattened into a fresh base. The O(n) fold is amortized over the
//     ≥ n/4 delta operations that provoked it, keeping derives amortized
//     O(|Δ|).
//   - squash: when the chain grows deeper than the policy's depth without
//     tripping the fold (e.g. a steady delete/restore churn whose mentions
//     cancel), the chain is merged into a single layer over the same base
//     in O(overlay), bounding lookup cost without touching the base.
package layered

import "sync/atomic"

// Keyed is a store entry: it carries its own key.
type Keyed interface{ Key() string }

// Base is the immutable bottom of a Store, what unmentioned keys fall
// through to. Instances read it directly: a walk emits the base entries
// whose keys the Walk does not mention, in base order, then the Walk's
// surviving appends.
type Base interface {
	Len() int
	Has(k string) bool
}

// Policy is a fold/squash schedule.
type Policy struct{ floor, depth int }

// ForSegments is the schedule of a store split into n segments (n < 1
// counts as one): fold past max(base/4, max(64/n, 24)) mentions, squash
// past max(32/n, 8) layers. One segment gets the unsegmented schedule,
// 64/32; from four segments up every segment gets 24/8 — a segment's base
// is a fraction of the relation, so both the fold floor and the tolerable
// chain depth shrink with it, keeping per-probe overlay walks short
// without giving up fold amortization.
func ForSegments(n int) Policy {
	n = max(n, 1)
	return Policy{floor: max(64/n, 24), depth: max(32/n, 8)}
}

// FoldLimit is the mention count past which a version over a base of
// baseLen entries folds.
func (p Policy) FoldLimit(baseLen int) int { return max(baseLen/4, p.floor) }

// Counters counts compactions over the lifetime of a family of chains
// (every store of one database, of one provenance tree, ...). The
// counters are cumulative and safe for concurrent use; a nil *Counters
// disables counting.
type Counters struct {
	// guarded-by: atomic
	folds atomic.Int64
	// guarded-by: atomic
	squashes atomic.Int64
}

// Folds reports versions flattened into a fresh base.
func (c *Counters) Folds() int64 {
	if c == nil {
		return 0
	}
	return c.folds.Load()
}

// Squashes reports chains merged into a single layer.
func (c *Counters) Squashes() int64 {
	if c == nil {
		return 0
	}
	return c.squashes.Load()
}

// layer is one immutable overlay generation: the delta of a single derive
// (or the merge of a squashed chain) over the version below it.
type layer[E Keyed] struct {
	below    *layer[E]
	dead     map[string]struct{} // keys tombstoned at this layer
	added    []E                 // entries appended at this layer
	index    map[string]int      // key of added[i] -> i
	depth    int                 // layers in the chain, this one included
	mentions int                 // cumulative len(dead)+len(added) across the chain
}

// Store is one immutable version: a base plus an overlay chain. It is a
// small value; derives return the next version by value.
type Store[E Keyed, B Base] struct {
	base B
	top  *layer[E]
	live int
}

// New wraps base as a version without overlay. The base must not be
// mutated afterwards.
func New[E Keyed, B Base](base B) Store[E, B] {
	return Store[E, B]{base: base, live: base.Len()}
}

// Base returns the version's base.
func (s *Store[E, B]) Base() B { return s.base }

// Len returns the live entry count. O(1).
func (s *Store[E, B]) Len() int { return s.live }

// Depth reports the overlay chain length (0 without overlay).
func (s *Store[E, B]) Depth() int {
	if s.top == nil {
		return 0
	}
	return s.top.depth
}

// Mentions reports the cumulative overlay size, tombstones plus appends
// (0 without overlay).
func (s *Store[E, B]) Mentions() int {
	if s.top == nil {
		return 0
	}
	return s.top.mentions
}

// Decide resolves key k against the overlay: the topmost layer
// mentioning k decides it, reporting whether k is present and its entry.
// decided is false when no layer mentions k, which then falls through to
// the base; instances look their base up directly.
func (s *Store[E, B]) Decide(k string) (e E, present, decided bool) {
	for l := s.top; l != nil; l = l.below {
		if i, ok := l.index[k]; ok {
			return l.added[i], true, true
		}
		if _, ok := l.dead[k]; ok {
			return e, false, true
		}
	}
	return e, false, false
}

// Walk is the overlay resolution of one pass over a version in iteration
// order: a base entry is emitted unless Mentioned, and Next then yields
// the surviving appends oldest-first. The instance drives the base part,
// so a pass can be pushed (a loop) or pulled (a k-way merge cursor). A
// Walk costs O(overlay) to set up and nothing without overlay.
type Walk[E Keyed] struct {
	d      map[string]*layer[E] // deciding layer per mentioned key; nil for a tombstone
	layers []*layer[E]          // the chain, oldest first
	li, ai int                  // next layer, next position in its added list
}

// Walk resolves the version's overlay for one pass.
func (s *Store[E, B]) Walk() Walk[E] {
	if s.top == nil {
		return Walk[E]{}
	}
	d := make(map[string]*layer[E], s.top.mentions)
	layers := make([]*layer[E], s.top.depth)
	i := len(layers)
	for l := s.top; l != nil; l = l.below {
		i--
		layers[i] = l
		// appends before tombstones: within one layer the append wins.
		for k := range l.index {
			if _, ok := d[k]; !ok {
				d[k] = l
			}
		}
		for k := range l.dead {
			if _, ok := d[k]; !ok {
				d[k] = nil
			}
		}
	}
	return Walk[E]{d: d, layers: layers}
}

// Overlaid reports whether the walk has an overlay to resolve: without
// one no base entry is mentioned and Next yields nothing.
func (w *Walk[E]) Overlaid() bool { return len(w.d) > 0 }

// Mentioned reports whether the overlay decides key k, whose base entry
// must then not be emitted at its base position.
func (w *Walk[E]) Mentioned(k string) bool {
	_, ok := w.d[k]
	return ok
}

// Next returns the next surviving append, oldest layer first; false once
// the chain is exhausted.
func (w *Walk[E]) Next() (E, bool) {
	for w.li < len(w.layers) {
		l := w.layers[w.li]
		for w.ai < len(l.added) {
			e := l.added[w.ai]
			w.ai++
			if w.d[e.Key()] == l {
				return e, true
			}
		}
		w.li++
		w.ai = 0
	}
	var zero E
	return zero, false
}

// Derive publishes the version of s with the keys of dead tombstoned and
// the entries of added appended in order, holding live entries. dead and
// added are owned by the new version afterwards; an appended key must not
// also be in dead. When the chain trips p the new version is folded —
// fold builds the fresh base from it — or squashed, and c counts it. The
// receiver is unchanged. O(|Δ|) plus amortized compaction.
func (s *Store[E, B]) Derive(dead map[string]struct{}, added []E, live int, p Policy, c *Counters, fold func(*Store[E, B]) B) Store[E, B] {
	l := &layer[E]{
		below:    s.top,
		dead:     dead,
		added:    added,
		depth:    s.Depth() + 1,
		mentions: s.Mentions() + len(dead) + len(added),
	}
	if len(added) > 0 {
		l.index = make(map[string]int, len(added))
		for i, e := range added {
			l.index[e.Key()] = i
		}
	}
	v := Store[E, B]{base: s.base, top: l, live: live}
	switch {
	case l.mentions > p.FoldLimit(s.base.Len()):
		if c != nil {
			c.folds.Add(1)
		}
		flat := v // only a folded version's address escapes
		return New[E](fold(&flat))
	case l.depth > p.depth:
		if c != nil {
			c.squashes.Add(1)
		}
		v.top = v.squashed()
	}
	return v
}

// squashed merges the whole chain into one layer over the same base:
// every mentioned base key is tombstoned (deleted outright, or suppressed
// for re-emission at its appended position), and the surviving appends
// are kept in emission order. O(overlay); the base is not touched.
func (s *Store[E, B]) squashed() *layer[E] {
	w := s.Walk()
	l := &layer[E]{dead: make(map[string]struct{}), index: make(map[string]int), depth: 1}
	for k := range w.d {
		if s.base.Has(k) {
			l.dead[k] = struct{}{}
		}
	}
	for e, ok := w.Next(); ok; e, ok = w.Next() {
		l.index[e.Key()] = len(l.added)
		l.added = append(l.added, e)
	}
	l.mentions = len(l.dead) + len(l.added)
	return l
}
