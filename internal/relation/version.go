package relation

import (
	"maps"
	"slices"

	"repro/internal/layered"
)

// Relation versions: moving between the builder and frozen states, and
// deriving frozen versions outside the Database store.
//
// Every version is a frozen relation (store.go). Freezing a builder
// costs O(|r|) once — a copy of its arrays, which then become the base of
// a frozen store — and every later derive is O(|Δ|) plus amortized
// compaction, sharing the base and all earlier layers. Iteration order is
// exactly what a from-scratch rebuild would produce, so Tuples, Contains
// and Len are indistinguishable from the builders they replace.
//
// Publication safety: every field of a frozen relation is immutable after
// construction except the lazily-built flat cache (atomic, idempotent), so
// versions are safe to read concurrently. The legacy mutators
// (Insert/Delete) stay available: on a frozen relation they first thaw a
// private builder, so old call sites keep their semantics while never
// corrupting a published version.

// store returns the relation's frozen store: its own when frozen, else a
// store over a private copy of the builder's arrays (O(|r|)).
func (r *Relation) store() *store {
	if r.st != nil {
		return r.st
	}
	return newStore(slices.Clone(r.tuples), maps.Clone(r.index))
}

// frozen returns a frozen relation over st under r's name and schema.
func (r *Relation) frozen(st *store) *Relation {
	return &Relation{name: r.name, schema: r.schema, st: st}
}

// ReadOnly returns a frozen view of the relation: O(1) for a frozen
// relation — a new header sharing its immutable store — and O(|r|) once
// for a builder, whose arrays it copies. This is what Engine.Query hands
// out: callers can read it like any relation, and a caller that does
// mutate it thaws a private copy rather than racing with the engine's
// snapshot.
//
// propview:read-only
func (r *Relation) ReadOnly() *Relation {
	v := r.frozen(r.store())
	if f := r.flat.Load(); f != nil {
		v.flat.Store(f)
	}
	return v
}

// Seal freezes a builder in place in O(1): its arrays become the base of
// a frozen store, so later derives from it are O(|Δ|). The caller
// must own r outright — no other goroutine may be reading it. Sealing a
// frozen relation is a no-op; a later Insert or Delete thaws r again. It
// returns r.
func (r *Relation) Seal() *Relation {
	if r.st == nil {
		r.st = newStore(r.tuples, r.index)
		r.tuples, r.index = nil, nil
	}
	return r
}

// Adopt builds a frozen relation over ts without copying the tuples, in
// the given order — for a layer that already owns its output tuples and
// publishes them as a relation. The tuples must be distinct and match the
// schema's arity; the caller hands ts and its tuples over and must not
// mutate them afterwards. O(|ts|).
func Adopt(name string, schema Schema, ts []Tuple) *Relation {
	index := make(map[string]int, len(ts))
	for i, t := range ts {
		index[t.Key()] = i
	}
	return (&Relation{name: name, schema: schema, tuples: ts, index: index}).Seal()
}

// thaw makes the relation a builder with private storage, detaching it
// from the frozen store it read from. Called by the legacy mutators
// before their first write.
func (r *Relation) thaw() {
	if r.st == nil {
		return
	}
	src := r.Tuples()
	tuples := make([]Tuple, len(src))
	copy(tuples, src)
	index := make(map[string]int, len(tuples))
	for i, t := range tuples {
		index[t.Key()] = i
	}
	r.tuples, r.index, r.st = tuples, index, nil
	r.flat.Store(nil)
}

// --- exported derivation for non-source version chains ---
//
// The Database store is not the only consumer of O(|Δ|) structure sharing:
// the provenance layer keeps one relation per operator node of every
// prepared view and maintains them under the same tombstone/append
// discipline. Chains derived this way follow exactly the source store's
// semantics and compaction schedule; their folds and squashes count into
// the caller's layered.Counters (nil disables counting).

// DeleteVersion derives the version of r with the given live keys
// tombstoned, in O(|dead|) plus amortized compaction, sharing the
// receiver's store (a builder receiver is frozen first, in O(|r|)).
// Callers must pass only keys r currently contains; dead is owned by the
// new version afterwards, and both relations are immutable — the same
// contract Database.DeleteAll operates under.
func (r *Relation) DeleteVersion(dead map[string]struct{}, c *layered.Counters) *Relation {
	st := r.store()
	if ns, ok := deleteAll(st, dead, true, c); ok {
		st = ns
	}
	return r.frozen(st)
}

// InsertVersion derives the version of r with ts appended in order, in
// O(|ts|) plus amortized compaction, sharing the receiver's store (a
// builder receiver is frozen first, in O(|r|)). Callers must pass only
// tuples r does not contain, without duplicates, and treat both relations
// as immutable afterwards. An empty receiver adopts ts as the new
// version's base, without copying (see Adopt).
func (r *Relation) InsertVersion(ts []Tuple, c *layered.Counters) *Relation {
	if r.Len() == 0 {
		return Adopt(r.name, r.schema, ts)
	}
	st := r.store()
	if ns, ok := insertAll(st, ts, true, c); ok {
		st = ns
	}
	return r.frozen(st)
}

// OverlayDepth reports the relation's overlay chain length (0 without
// overlay or for a builder).
func (r *Relation) OverlayDepth() int {
	if r.st == nil {
		return 0
	}
	return r.st.Depth()
}

// OverlayMentions reports the relation's overlay size (tombstones +
// appended tuples; 0 without overlay or for a builder).
func (r *Relation) OverlayMentions() int {
	if r.st == nil {
		return 0
	}
	return r.st.Mentions()
}
