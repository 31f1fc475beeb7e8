// Package overlay provides the persistent, structure-sharing containers
// of the annotated operator trees' per-node state (internal/annotree):
// a string-keyed map over the layered store (internal/layered), and the
// join-bucket chains used by the incremental maintenance passes. A map
// compacts on the layered store's one schedule, so deriving the next
// generation of a node's state costs O(|Δ|) — the base and all earlier
// layers are shared by pointer — instead of an O(|node|) wholesale copy
// per write.
//
// Values are treated as immutable once stored — a derive that changes a
// key's value stores a freshly built value, never mutates the old one —
// which is what makes generations safe to read concurrently.
package overlay

import "repro/internal/layered"

// Metrics counts map compaction over the lifetime of a generation chain
// (or a family of chains, e.g. every map of one provenance tree). A nil
// *Metrics disables counting.
type Metrics = layered.Counters

// entry is one binding of a Map.
type entry[V any] struct {
	k string
	v V
}

func (e entry[V]) Key() string { return e.k }

// mapBase is a Map's flat base.
type mapBase[V any] map[string]V

func (b mapBase[V]) Len() int { return len(b) }

func (b mapBase[V]) Has(k string) bool {
	_, ok := b[k]
	return ok
}

// Map is a persistent string-keyed map: an immutable base shared across
// every version derived from it, plus a chain of overlay layers.
type Map[V any] struct {
	s layered.Store[entry[V], mapBase[V]]
}

// NewMap wraps an eagerly built map as a flat base version. The map is
// owned by the Map afterwards and must not be mutated.
func NewMap[V any](base map[string]V) *Map[V] {
	return &Map[V]{layered.New[entry[V]](mapBase[V](base))}
}

// Get resolves key k through the overlay, else the base.
func (m *Map[V]) Get(k string) (V, bool) {
	if e, ok, decided := m.s.Decide(k); decided {
		return e.v, ok
	}
	v, ok := m.s.Base()[k]
	return v, ok
}

// Has reports whether k is bound.
func (m *Map[V]) Has(k string) bool {
	_, ok := m.Get(k)
	return ok
}

// Size returns the current entry count. O(1).
func (m *Map[V]) Size() int { return m.s.Len() }

// Each calls yield for every live entry, in no particular order, stopping
// early if yield returns false.
func (m *Map[V]) Each(yield func(k string, v V) bool) { each(&m.s, yield) }

func each[V any](s *layered.Store[entry[V], mapBase[V]], yield func(k string, v V) bool) {
	w := s.Walk()
	for k, v := range s.Base() {
		if w.Overlaid() && w.Mentioned(k) {
			continue
		}
		if !yield(k, v) {
			return
		}
	}
	for e, ok := w.Next(); ok; e, ok = w.Next() {
		if !yield(e.k, e.v) {
			return
		}
	}
}

// Flatten materializes the current entries into a fresh map.
func (m *Map[V]) Flatten() map[string]V { return flatten(&m.s) }

func flatten[V any](s *layered.Store[entry[V], mapBase[V]]) mapBase[V] {
	out := make(mapBase[V], s.Len())
	each(s, func(k string, v V) bool {
		out[k] = v
		return true
	})
	return out
}

// Derive publishes the version of m with the keys of set (re)bound and the
// keys of dead removed, folding or squashing when the overlay trips the
// layered store's schedule. set and dead must be disjoint and both are
// owned by the new version afterwards; passing both empty returns the
// receiver. An empty, flat receiver adopts set as the new version's base.
// The receiver is unchanged. O(|Δ|) plus amortized compaction.
func (m *Map[V]) Derive(set map[string]V, dead map[string]struct{}, met *Metrics) *Map[V] {
	if len(set) == 0 && len(dead) == 0 {
		return m
	}
	if m.s.Len() == 0 && m.s.Depth() == 0 && len(dead) == 0 {
		return NewMap(set)
	}
	live := m.s.Len()
	added := make([]entry[V], 0, len(set))
	for k, v := range set {
		if !m.Has(k) {
			live++
		}
		added = append(added, entry[V]{k, v})
	}
	for k := range dead {
		if m.Has(k) {
			live--
		}
	}
	return &Map[V]{m.s.Derive(dead, added, live, met, flatten[V])}
}

// Depth reports the overlay chain length (0 when flat).
func (m *Map[V]) Depth() int { return m.s.Depth() }

// Mentions reports the cumulative overlay size (0 when flat).
func (m *Map[V]) Mentions() int { return m.s.Mentions() }
