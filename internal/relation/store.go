package relation

// Frozen relations: the store behind every relation version. A frozen
// relation is one layered store (internal/layered): an immutable base —
// the tuples in iteration order and their key index — plus a chain of
// tombstone/append layers, so deriving a commit's version, and answering
// containment probes, cost O(|Δ|) plus amortized compaction. A builder
// freezes into it by handing over its arrays.
//
// Iteration order is base order minus tombstones, then appends
// oldest-first: byte-identical to a from-scratch rebuild, including the
// delete-then-reinsert re-emission-at-the-end rule. A fold rebuilds the
// base in that order, so the order survives compaction.

import "repro/internal/layered"

// base is a frozen store's immutable base: tuples in iteration order and
// their key index.
type base struct {
	tuples []Tuple
	index  map[string]int // key -> position in tuples
}

func (b *base) Len() int { return len(b.tuples) }

func (b *base) Has(k string) bool {
	_, ok := b.index[k]
	return ok
}

// store is the store of one frozen relation. Immutable after
// construction — derives return a new version sharing the base and every
// earlier layer — so any retained generation stays readable while writers
// derive new ones.
type store = layered.Store[Tuple, *base]

// newBase adopts tuples and their index (a nil index is built) as a base.
func newBase(tuples []Tuple, index map[string]int) *base {
	if index == nil {
		index = make(map[string]int, len(tuples))
		for i, t := range tuples {
			index[t.Key()] = i
		}
	}
	return &base{tuples: tuples, index: index}
}

// newStore builds a frozen store over tuples in their iteration order. It
// adopts tuples and index as its base (a nil index is built), so the
// caller hands them over.
func newStore(tuples []Tuple, index map[string]int) *store {
	s := layered.New[Tuple](newBase(tuples, index))
	return &s
}

// has reports whether s holds key k: the overlay decides, else the base
// index.
func has(s *store, k string) bool {
	if _, ok, decided := s.Decide(k); decided {
		return ok
	}
	return s.Base().Has(k)
}

// plain returns the live tuples without materializing when s has no
// overlay: the base array itself.
func plain(s *store) ([]Tuple, bool) {
	if s.Depth() != 0 {
		return nil, false
	}
	return s.Base().tuples, true
}

// derive publishes s's next version; a fold rebuilds the base from the
// live tuples in iteration order.
func derive(s *store, dead map[string]struct{}, added []Tuple, live int, c *layered.Counters) *store {
	ns := s.Derive(dead, added, live, c, func(v *store) *base {
		return newBase(flatten(v), nil)
	})
	return &ns
}

// deleteAll derives s with the present subset of the dead keys
// tombstoned. The map is owned by the store afterwards: when s holds
// every key it becomes the tombstone set itself. Returns (nil, false)
// when no key was present, so the caller can share the whole relation.
// exact promises that every key is present, and skips the filter.
// Compactions count into c (which may be nil).
func deleteAll(s *store, dead map[string]struct{}, exact bool, c *layered.Counters) (*store, bool) {
	present := dead
	if !exact {
		present = presentKeys(s, dead)
	}
	if len(present) == 0 {
		return nil, false
	}
	return derive(s, present, nil, s.Len()-len(present), c), true
}

// presentKeys returns the keys s holds: keys itself when it holds them
// all, the common case, else a filtered copy.
func presentKeys(s *store, keys map[string]struct{}) map[string]struct{} {
	for k := range keys {
		if has(s, k) {
			continue
		}
		present := make(map[string]struct{}, len(keys))
		for k := range keys {
			if has(s, k) {
				present[k] = struct{}{}
			}
		}
		return present
	}
	return keys
}

// insertAll derives s with the novel subset of ts appended in request
// order, each novel tuple cloned. Returns (nil, false) when nothing was
// novel. exact promises that the tuples are novel and distinct, and skips
// the presence checks and the dedup; counts as deleteAll does.
func insertAll(s *store, ts []Tuple, exact bool, c *layered.Counters) (*store, bool) {
	var novel []Tuple
	var seen map[string]struct{}
	for _, t := range ts {
		if !exact {
			k := t.Key()
			if _, dup := seen[k]; dup || has(s, k) {
				continue
			}
			if seen == nil {
				seen = make(map[string]struct{}, len(ts))
			}
			seen[k] = struct{}{}
		}
		novel = append(novel, t.Clone())
	}
	if len(novel) == 0 {
		return nil, false
	}
	return derive(s, nil, novel, s.Len()+len(novel), c), true
}

// each streams s's live tuples in iteration order — the base entries no
// layer mentions, then the surviving appends oldest-first — at
// O(overlay) extra space. Yielded tuples alias store storage (see
// internal/analysis).
//
// propview:no-retain
func each(s *store, yield func(Tuple) bool) {
	w := s.Walk()
	for _, t := range s.Base().tuples {
		if w.Overlaid() && w.Mentioned(t.Key()) {
			continue
		}
		if !yield(t) {
			return
		}
	}
	for t, ok := w.Next(); ok; t, ok = w.Next() {
		if !yield(t) {
			return
		}
	}
}

// flatten materializes s's live tuples in iteration order.
func flatten(s *store) []Tuple {
	out := make([]Tuple, 0, s.Len())
	w := s.Walk()
	for _, t := range s.Base().tuples {
		if !w.Overlaid() || !w.Mentioned(t.Key()) {
			out = append(out, t)
		}
	}
	for t, ok := w.Next(); ok; t, ok = w.Next() {
		out = append(out, t)
	}
	return out
}
