package relation

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Relation is a named set of tuples over a schema. Tuples are kept in
// insertion order for deterministic iteration, with a key index enforcing
// set semantics (inserting a duplicate is a no-op, as in the paper's
// set-based model).
//
// A relation is in one of two states. A builder — what New and Insert
// make — owns its tuple array and index, and the mutators write in place.
// A frozen relation is an immutable segmented store (segment.go): the
// versions Database.DeleteAll/InsertAll/Freeze and DeleteVersion/
// InsertVersion derive in O(|Δ|), safe to read concurrently. Reads behave
// identically in both states, and a legacy mutation of a frozen relation
// first thaws it into a private builder, leaving the store untouched.
type Relation struct {
	name   string
	schema Schema
	tuples []Tuple        // builder: tuples in insertion order
	index  map[string]int // builder: tuple key -> position in tuples

	seg *segStore // frozen store; nil for a builder
	// guarded-by: atomic
	flat atomic.Pointer[[]Tuple] // frozen: cached materialization, built lazily
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{name: name, schema: schema, index: make(map[string]int)}
}

// NewFromTuples creates a relation and inserts the given tuples.
func NewFromTuples(name string, schema Schema, tuples ...Tuple) *Relation {
	r := New(name, schema)
	for _, t := range tuples {
		r.Insert(t)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples. O(1) in both states.
func (r *Relation) Len() int {
	if r.seg == nil {
		return len(r.tuples)
	}
	return r.seg.live
}

// Insert adds tuple t. It reports whether the tuple was new (set
// semantics). It panics if the arity does not match the schema. A frozen
// relation is first thawed into a private builder.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.schema.Len() {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into %s%s", len(t), r.name, r.schema))
	}
	r.thaw()
	k := t.Key()
	if _, ok := r.index[k]; ok {
		return false
	}
	r.index[k] = len(r.tuples)
	r.tuples = append(r.tuples, t.Clone())
	return true
}

// InsertStrings is shorthand for Insert(StringTuple(ss...)).
func (r *Relation) InsertStrings(ss ...string) bool { return r.Insert(StringTuple(ss...)) }

// Contains reports whether the relation holds tuple t.
func (r *Relation) Contains(t Tuple) bool { return r.ContainsKey(t.Key()) }

// ContainsKey reports whether the relation holds a tuple with the given
// key.
func (r *Relation) ContainsKey(key string) bool {
	if r.seg == nil {
		_, ok := r.index[key]
		return ok
	}
	return r.seg.containsKey(key)
}

// Delete removes tuple t, reporting whether it was present. Deletion is
// O(n) in the worst case because positions shift; bulk deletes go through
// Database.DeleteAll, which derives an O(|Δ|) version instead. Like
// Insert, deleting from a frozen relation thaws it first.
func (r *Relation) Delete(t Tuple) bool {
	r.thaw()
	k := t.Key()
	i, ok := r.index[k]
	if !ok {
		return false
	}
	delete(r.index, k)
	r.tuples = append(r.tuples[:i], r.tuples[i+1:]...)
	for j := i; j < len(r.tuples); j++ {
		r.index[r.tuples[j].Key()] = j
	}
	return true
}

// Tuples returns the tuples in insertion order. The slice and its tuples
// must not be modified by callers. A frozen relation with one segment and
// no overlay returns its base array; any other frozen relation is
// materialized once and cached. Evaluation-style consumers that only walk
// the tuples should prefer Each, which reads through the store without
// materializing.
//
// propview:read-only
func (r *Relation) Tuples() []Tuple {
	if ts, ok := r.plain(); ok {
		return ts
	}
	flat := r.seg.flatten()
	r.flat.Store(&flat)
	return flat
}

// plain returns the tuples when they are at hand without materializing:
// a builder's array, a frozen relation's cached materialization, or the
// base of a one-segment store without overlay.
func (r *Relation) plain() ([]Tuple, bool) {
	if r.seg == nil {
		return r.tuples, true
	}
	if f := r.flat.Load(); f != nil {
		return *f, true
	}
	return r.seg.plain()
}

// Each calls yield for every tuple in insertion order, stopping early if
// yield returns false. Unlike Tuples it never materializes a frozen
// relation: each segment streams its base past its overlay, merged by
// sequence, at O(overlay) extra space however large the base is.
// Yielded tuples alias the relation's storage; callbacks that keep one
// must copy it (see internal/analysis).
//
// propview:no-retain
func (r *Relation) Each(yield func(Tuple) bool) {
	if ts, ok := r.plain(); ok {
		for _, t := range ts {
			if !yield(t) {
				return
			}
		}
		return
	}
	r.seg.eachMerged(yield)
}

// Tuple returns the i-th tuple in insertion order.
func (r *Relation) Tuple(i int) Tuple { return r.Tuples()[i] }

// Clone returns a deep copy of the relation: a builder with privately
// owned storage, whatever the receiver's state.
func (r *Relation) Clone() *Relation {
	c := New(r.name, r.schema)
	r.Each(func(t Tuple) bool {
		c.Insert(t)
		return true
	})
	return c
}

// WithName returns a copy of the relation under a different name.
func (r *Relation) WithName(name string) *Relation {
	c := r.Clone()
	c.name = name
	return c
}

// Equal reports whether two relations have equal schemas (same order) and
// the same set of tuples, regardless of insertion order.
func (r *Relation) Equal(s *Relation) bool {
	if !r.schema.Equal(s.schema) || r.Len() != s.Len() {
		return false
	}
	equal := true
	r.Each(func(t Tuple) bool {
		if !s.Contains(t) {
			equal = false
		}
		return equal
	})
	return equal
}

// Minus returns the tuples of r that are not in s (schemas must agree as
// sets; comparison is by key after positional alignment when orders match).
func (r *Relation) Minus(s *Relation) []Tuple {
	var out []Tuple
	r.Each(func(t Tuple) bool {
		if !s.Contains(t) {
			//lint:ignore eachretain the yielded tuple aliases immutable snapshot storage and Minus's result adopts it by design
			out = append(out, t)
		}
		return true
	})
	return out
}

// SortedTuples returns a fresh slice of the tuples in lexicographic order
// (Tuple.Compare): the order of printed output, of tests, and of the
// served view pages a prepared view caches per generation.
func (r *Relation) SortedTuples() []Tuple {
	src := r.Tuples()
	out := make([]Tuple, len(src))
	copy(out, src)
	slices.SortFunc(out, Tuple.Compare)
	return out
}

// String renders the relation as a small ASCII table, rows sorted.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s {", r.name, r.schema)
	for i, t := range r.SortedTuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString("}")
	return b.String()
}

// Table renders the relation as a multi-line ASCII table with a header,
// matching the layout of the figures in the paper.
func (r *Relation) Table() string {
	attrs := r.schema.Attrs()
	widths := make([]int, len(attrs))
	for i, a := range attrs {
		widths[i] = len(a)
	}
	rows := r.SortedTuples()
	cells := make([][]string, len(rows))
	for ri, t := range rows {
		cells[ri] = make([]string, len(t))
		for ci, v := range t {
			s := v.String()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	b.WriteString(r.name + "\n")
	writeRow := func(vals []string) {
		for ci, s := range vals {
			if ci > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			for p := len(s); p < widths[ci]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(attrs)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
