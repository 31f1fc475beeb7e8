package relation

import (
	"cmp"
	"strings"
)

// Tuple is a positional list of values laid out according to some schema.
// A tuple has no identity beyond its values: the paper's model is purely
// set-based, so two tuples with equal values in equal positions are the
// same tuple.
type Tuple []Value

// NewTuple copies the given values into a fresh tuple.
func NewTuple(vs ...Value) Tuple { return append(Tuple(nil), vs...) }

// StringTuple builds a tuple of string constants.
func StringTuple(ss ...string) Tuple { return Tuple(Values(ss...)) }

// Equal reports whether two tuples agree in length and in every position.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i, v := range t {
		if v != u[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string encoding of the tuple suitable for use as
// a map key. Distinct tuples always produce distinct keys.
func (t Tuple) Key() string {
	var b strings.Builder
	b.Grow(len(t) * 8)
	for i, v := range t {
		if i > 0 {
			b.WriteByte('|')
		}
		v.appendKey(&b)
	}
	return b.String()
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Less orders tuples lexicographically; a shorter tuple sorts before the
// longer tuples it prefixes.
func (t Tuple) Less(u Tuple) bool { return t.Compare(u) < 0 }

// Compare returns -1, 0 or +1 according to the order defined by Less.
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(t), len(u))
}

// Project extracts the values at the given positions, in order.
func (t Tuple) Project(positions []int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string { return FormatValues(t) }

// ProjectAttrs extracts the named attributes from a tuple laid out by
// schema. It panics if an attribute is absent; callers validate schemas at
// query-construction time.
func ProjectAttrs(schema Schema, t Tuple, attrs []Attribute) Tuple {
	out := make(Tuple, len(attrs))
	for i, a := range attrs {
		p, ok := schema.Index(a)
		if !ok {
			panic("relation: ProjectAttrs: attribute " + a + " not in schema " + schema.String())
		}
		out[i] = t[p]
	}
	return out
}

// AgreeOn reports whether tuples t (over st) and u (over su) have equal
// values on every attribute in attrs. Natural join matches exactly the
// pairs that agree on the common attributes.
func AgreeOn(st Schema, t Tuple, su Schema, u Tuple, attrs []Attribute) bool {
	for _, a := range attrs {
		i, ok := st.Index(a)
		if !ok {
			return false
		}
		j, ok := su.Index(a)
		if !ok {
			return false
		}
		if t[i] != u[j] {
			return false
		}
	}
	return true
}
