package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/layered"
)

// storeMetrics counts versioned-store activity over the lifetime of a
// database version chain. One instance is shared by every generation
// derived from the same root (Freeze starts a fresh one), so the counters
// are cumulative across commits.
type storeMetrics struct {
	layered.Counters // segment folds and squashes
	// guarded-by: atomic
	derives atomic.Int64 // DeleteAll/InsertAll generations derived
	// guarded-by: atomic
	sharedRels atomic.Int64 // relations shared by pointer during derives
	// guarded-by: atomic
	rewrittenRels atomic.Int64 // relations given a new overlay version
	// guarded-by: atomic
	parallelDerives atomic.Int64 // derives that scattered across >1 segment
}

// StoreStats is a point-in-time summary of the versioned source store:
// the current generation's shape (overlay depth and size per the deepest
// relation) plus the lifetime sharing and compaction counters.
type StoreStats struct {
	// Version counts the generations derived since the chain's root.
	Version int64 `json:"version"`
	// Relations is the relation count of this generation.
	Relations int `json:"relations"`
	// OverlayRelations counts relations currently carrying an overlay
	// (the rest are flat).
	OverlayRelations int `json:"overlay_relations"`
	// MaxOverlayDepth is the deepest overlay chain of this generation.
	MaxOverlayDepth int `json:"max_overlay_depth"`
	// OverlayMentions is the total overlay size (tombstones + appended
	// tuples) across relations of this generation.
	OverlayMentions int `json:"overlay_mentions"`
	// DerivedVersions counts DeleteAll/InsertAll generations over the
	// chain's lifetime.
	DerivedVersions int64 `json:"derived_versions"`
	// SharedRelations counts relations passed untouched (by pointer) from
	// one generation to the next, cumulatively.
	SharedRelations int64 `json:"shared_relations"`
	// RewrittenRelations counts O(|Δ|) overlay versions created,
	// cumulatively. SharedRelations/(SharedRelations+RewrittenRelations)
	// is the structure-sharing ratio.
	RewrittenRelations int64 `json:"rewritten_relations"`
	// Compactions counts overlays folded into a fresh flat base.
	Compactions int64 `json:"compactions"`
	// Squashes counts overlay chains merged into a single layer without
	// touching the base.
	Squashes int64 `json:"squashes"`
	// Segmented summarizes how this generation's frozen relations spread
	// over segments. Every frozen relation is segmented (one segment
	// unless the store was built with Sharded(n > 1)), so it is always
	// filled in; its overlay fields equal the ones above.
	Segmented SegmentStats `json:"segmented"`
}

// SegmentStats summarizes the sharded portion of a store generation: how
// the tuples spread over segments and how much scatter/gather parallelism
// the commit path has exercised.
type SegmentStats struct {
	// Relations counts relations stored segmented this generation.
	Relations int `json:"relations"`
	// Segments is the total segment count across segmented relations.
	Segments int `json:"segments"`
	// MaxSegmentTuples is the live tuple count of the fullest segment — a
	// skew indicator; near Size/Segments means the hash spreads evenly.
	MaxSegmentTuples int `json:"max_segment_tuples"`
	// MaxOverlayDepth is the deepest per-segment overlay chain.
	MaxOverlayDepth int `json:"max_overlay_depth"`
	// OverlayMentions is the total overlay size across all segments.
	OverlayMentions int `json:"overlay_mentions"`
	// ParallelDerives counts commits whose delta touched more than one
	// segment of some relation, scattering the derive across workers.
	ParallelDerives int64 `json:"parallel_derives"`
}

// metrics returns the chain's counters, attaching a fresh set to databases
// assembled without NewDatabase.
func (db *Database) metrics() *storeMetrics {
	if db.m == nil {
		db.m = &storeMetrics{}
	}
	return db.m
}

// StoreStats summarizes the versioned store as of this generation.
// O(#segments).
func (db *Database) StoreStats() StoreStats {
	m := db.metrics()
	st := StoreStats{
		Version:            db.version,
		Relations:          len(db.rels),
		DerivedVersions:    m.derives.Load(),
		SharedRelations:    m.sharedRels.Load(),
		RewrittenRelations: m.rewrittenRels.Load(),
		Compactions:        m.Folds(),
		Squashes:           m.Squashes(),
	}
	st.Segmented.ParallelDerives = m.parallelDerives.Load()
	for _, r := range db.rels {
		if r.seg == nil {
			continue
		}
		st.Segmented.Relations++
		st.Segmented.Segments += len(r.seg.segs)
		for _, s := range r.seg.segs {
			st.Segmented.MaxSegmentTuples = max(st.Segmented.MaxSegmentTuples, s.Len())
		}
		d, n := r.seg.overlayShape()
		if d > 0 {
			st.OverlayRelations++
		}
		st.MaxOverlayDepth = max(st.MaxOverlayDepth, d)
		st.OverlayMentions += n
	}
	st.Segmented.MaxOverlayDepth, st.Segmented.OverlayMentions = st.MaxOverlayDepth, st.OverlayMentions
	return st
}

// Database is a named collection of relations — the source database S of
// the paper. Relation names are unique.
//
// Databases are versioned: DeleteAll and InsertAll derive new generations
// in O(|Δ|) that share structure with the receiver — untouched relations
// by pointer, touched relations as frozen versions over the same segment
// bases (segment.go). A derived database is a snapshot: treat it and its
// ancestor as read-only afterwards, since a legacy mutation through a
// pointer-shared relation is visible in both. (The mutators themselves
// stay safe: a frozen relation thaws a private copy before writing, so the
// store underneath is never touched.)
type Database struct {
	rels  map[string]*Relation
	order []string // insertion order of relation names

	m *storeMetrics // lifetime counters, shared along the version chain
	// version counts derives since the chain's root.
	// propview:generation
	version int64
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation), m: &storeMetrics{}}
}

// Add inserts relation r. It returns an error if a relation with the same
// name already exists.
func (db *Database) Add(r *Relation) error {
	if _, ok := db.rels[r.Name()]; ok {
		return fmt.Errorf("relation: database already has relation %q", r.Name())
	}
	db.rels[r.Name()] = r
	db.order = append(db.order, r.Name())
	return nil
}

// MustAdd is Add but panics on duplicate names; convenient in tests and
// generators where names are controlled.
func (db *Database) MustAdd(r *Relation) {
	if err := db.Add(r); err != nil {
		panic(err)
	}
}

// Relation returns the relation with the given name, or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// Has reports whether the database contains a relation with the given name.
func (db *Database) Has(name string) bool {
	_, ok := db.rels[name]
	return ok
}

// Names returns the relation names in insertion order.
func (db *Database) Names() []string { return db.order }

// Relations returns the relations in insertion order.
func (db *Database) Relations() []*Relation {
	out := make([]*Relation, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.rels[n])
	}
	return out
}

// Size returns the total number of tuples across all relations.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Clone returns a deep copy of the database: every relation gets fresh,
// privately owned builder storage. Kept for callers that need full
// independence including under mutation; the versioned ops (DeleteAll,
// InsertAll, Freeze) replace it everywhere O(|S|) copying matters.
func (db *Database) Clone() *Database {
	c := NewDatabase()
	for _, n := range db.order {
		c.MustAdd(db.rels[n].Clone())
	}
	return c
}

// Freeze returns an immutable snapshot of the database: every relation
// frozen, the caller's database untouched. A frozen relation is shared as
// a new header over its immutable store, O(1); a builder is copied into a
// one-segment store, O(|r|) once. Later mutations of the caller's
// relations therefore never reach the snapshot. The snapshot starts a
// fresh version chain with zeroed store metrics.
//
// propview:read-only
func (db *Database) Freeze() *Database {
	c := db.snapshot()
	for _, n := range db.order {
		c.rels[n] = db.rels[n].ReadOnly()
	}
	return c
}

// Sharded returns an immutable snapshot of the database with every
// relation stored as n hash-partitioned segments (segment.go): each
// segment keeps its own base, overlay chain, and fold/squash schedule, so
// commits scatter their delta across the affected segments' workers and
// compaction costs O(segment) instead of O(relation). n <= 1 is the
// one-segment store. A relation already frozen with n segments is shared
// in O(1); any other is re-stored in O(|r|), once. Like Freeze, the
// snapshot starts a fresh version chain with zeroed metrics.
func (db *Database) Sharded(n int) *Database {
	n = max(n, 1)
	c := db.snapshot()
	for _, name := range db.order {
		r := db.rels[name]
		if r.Segments() == n || (n == 1 && r.seg == nil) {
			c.rels[name] = r.ReadOnly()
		} else {
			c.rels[name] = r.frozen(newSegStore(n, r.Tuples(), nil))
		}
	}
	return c
}

// snapshot starts an empty database with db's relation order and a fresh
// version chain.
func (db *Database) snapshot() *Database {
	return &Database{
		rels:  make(map[string]*Relation, len(db.rels)),
		order: db.order[:len(db.order):len(db.order)],
		m:     &storeMetrics{},
	}
}

// SourceTuple identifies one tuple of one relation in a database; the unit
// of deletion in the paper's view-deletion problems.
type SourceTuple struct {
	Rel   string
	Tuple Tuple
}

// Key returns a canonical map key for the source tuple.
func (s SourceTuple) Key() string { return s.Rel + "\x00" + s.Tuple.Key() }

// String renders the source tuple as R(v1, v2).
func (s SourceTuple) String() string { return s.Rel + s.Tuple.String() }

// SortSourceTuples orders source tuples by relation name then tuple value,
// for deterministic output.
func SortSourceTuples(ts []SourceTuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Rel != ts[j].Rel {
			return ts[i].Rel < ts[j].Rel
		}
		return ts[i].Tuple.Less(ts[j].Tuple)
	})
}

// Contains reports whether the database has the given source tuple.
func (db *Database) Contains(st SourceTuple) bool {
	r := db.rels[st.Rel]
	return r != nil && r.Contains(st.Tuple)
}

// DeleteAll returns a new generation of the database with the given
// source tuples removed: the S \ T of the paper. Missing tuples are
// ignored. The receiver is not modified. O(|T|) plus amortized overlay
// compaction: untouched relations are shared by pointer, touched
// relations get a frozen version tombstoning exactly the deleted keys
// (iteration order as if rebuilt; a builder is frozen first, in O(|r|)).
// The result is a structure-sharing snapshot — see the Database doc for
// the aliasing contract.
func (db *Database) DeleteAll(T []SourceTuple) *Database {
	// Keys go to the segment workers unchecked: the presence probe runs
	// there, in parallel with the derive.
	keys := make(map[string]map[string]struct{})
	for _, st := range T {
		if db.rels[st.Rel] == nil {
			continue
		}
		if keys[st.Rel] == nil {
			keys[st.Rel] = make(map[string]struct{})
		}
		keys[st.Rel][st.Tuple.Key()] = struct{}{}
	}
	m := db.metrics()
	return db.derive(func(r *Relation) (*segStore, bool) {
		if len(keys[r.name]) == 0 {
			return nil, false
		}
		return r.store().deleteAll(keys[r.name], false, &m.Counters, &m.parallelDerives)
	})
}

// InsertAll returns a new generation of the database with the given
// source tuples added: the S ∪ I dual of DeleteAll. Tuples already
// present are ignored (set semantics), so re-inserting exactly the tuples
// a previous deletion removed restores the original database. Unlike
// DeleteAll — where a missing tuple is a harmless no-op — an insertion
// names a relation and carries a payload, so an unknown relation or an
// arity mismatch is an error, reported before anything is derived. The
// receiver is not modified. Novel tuples are appended after the existing
// ones in request order, keeping iteration order deterministic. O(|I|)
// plus amortized overlay compaction, with the same structure sharing and
// aliasing contract as DeleteAll.
func (db *Database) InsertAll(I []SourceTuple) (*Database, error) {
	// As in DeleteAll, the request-order list goes to the segment workers
	// raw: a key always hashes to one segment, so their per-segment
	// presence checks and dedup are global, and run in parallel.
	add := make(map[string][]Tuple)
	for _, st := range I {
		r := db.rels[st.Rel]
		if r == nil {
			return nil, fmt.Errorf("relation: insert into unknown relation %q", st.Rel)
		}
		if len(st.Tuple) != r.Schema().Len() {
			return nil, fmt.Errorf("relation: inserting arity-%d tuple into %s%s", len(st.Tuple), st.Rel, r.Schema())
		}
		add[st.Rel] = append(add[st.Rel], st.Tuple)
	}
	m := db.metrics()
	return db.derive(func(r *Relation) (*segStore, bool) {
		if len(add[r.name]) == 0 {
			return nil, false
		}
		return r.store().insertAll(add[r.name], false, &m.Counters, &m.parallelDerives)
	}), nil
}

// derive builds the next generation: each relation for which step derives
// a store is rewritten over it, every other one is shared by pointer.
//
// propview:publish
func (db *Database) derive(step func(*Relation) (*segStore, bool)) *Database {
	m := db.metrics()
	c := &Database{
		rels:    make(map[string]*Relation, len(db.rels)),
		order:   db.order[:len(db.order):len(db.order)],
		m:       m,
		version: db.version + 1,
	}
	for _, n := range db.order {
		r := db.rels[n]
		if st, ok := step(r); ok {
			c.rels[n] = r.frozen(st)
			m.rewrittenRels.Add(1)
		} else {
			c.rels[n] = r
			m.sharedRels.Add(1)
		}
	}
	m.derives.Add(1)
	return c
}

// AllSourceTuples enumerates every tuple of every relation in insertion
// order — the candidate deletion set for exhaustive solvers.
func (db *Database) AllSourceTuples() []SourceTuple { return db.SourceTuplesOf(db.order) }

// SourceTuplesOf enumerates every tuple of the named relations, relation
// by relation in the given order, each in insertion order. The tuples
// alias the relations' storage and must not be modified.
func (db *Database) SourceTuplesOf(names []string) []SourceTuple {
	n := 0
	for _, name := range names {
		n += db.rels[name].Len()
	}
	out := make([]SourceTuple, 0, n)
	for _, name := range names {
		db.rels[name].Each(func(t Tuple) bool {
			out = append(out, SourceTuple{Rel: name, Tuple: t})
			return true
		})
	}
	return out
}

// String renders the database as relation tables separated by blank lines.
func (db *Database) String() string {
	var parts []string
	for _, n := range db.order {
		parts = append(parts, db.rels[n].Table())
	}
	return strings.Join(parts, "\n")
}
