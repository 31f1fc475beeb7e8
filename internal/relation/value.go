// Package relation implements the relational data model used throughout the
// reproduction of Buneman, Khanna and Tan, "On Propagation of Deletions and
// Annotations Through Views" (PODS 2002): named relations with set semantics,
// schemas, tuples, databases, and the (relation, tuple, attribute) locations
// on which annotations are placed.
//
// The model follows the paper exactly: relations are sets of tuples over a
// fixed schema of named attributes, tuple identity is by value, and a
// "location" is a triple (R, t, A) referring to attribute A of tuple t in
// relation R.
package relation

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the primitive types a Value can hold. The paper works
// with uninterpreted constants; strings cover those, and integers are
// provided for synthetic workloads.
type Kind uint8

// The value kinds.
const (
	KindString Kind = iota
	KindInt
)

// Value is a single attribute value. Values are immutable and comparable
// with ==, so they can participate in map keys and tuple equality directly.
type Value struct {
	kind Kind
	s    string
	i    int64
}

// String constructs a string-valued constant.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer-valued constant.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// Str returns the string payload. It is only meaningful when Kind() ==
// KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload. It is only meaningful when Kind() ==
// KindInt.
func (v Value) IntVal() int64 { return v.i }

// Equal reports whether two values are identical.
func (v Value) Equal(w Value) bool { return v == w }

// Less imposes a total order on values: all strings sort before all
// integers, strings lexicographically, integers numerically. The order
// makes printed output and iteration deterministic and orders served
// view pages.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// Compare returns -1, 0 or +1 according to the order defined by Less, in
// one comparison of the payloads: kinds first, then the strings or the
// integers.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		return cmp.Compare(v.kind, w.kind)
	}
	if v.kind == KindString {
		return strings.Compare(v.s, w.s)
	}
	return cmp.Compare(v.i, w.i)
}

// String renders the value for humans: bare text for strings, decimal for
// integers.
func (v Value) String() string {
	if v.kind == KindInt {
		return strconv.FormatInt(v.i, 10)
	}
	return v.s
}

// appendKey writes an unambiguous encoding of the value to b, used to build
// map keys for tuples. The encoding escapes the separator characters so that
// distinct tuples never collide.
func (v Value) appendKey(b *strings.Builder) {
	if v.kind == KindInt {
		b.WriteByte('#')
		b.WriteString(strconv.FormatInt(v.i, 10))
		return
	}
	b.WriteByte('$')
	for i := 0; i < len(v.s); i++ {
		c := v.s[i]
		if c == '\\' || c == '|' || c == '#' || c == '$' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
}

// ParseValue parses the textual form produced by Value.String, interpreting
// pure decimal strings as integers when intHint is true.
func ParseValue(s string, intHint bool) Value {
	if intHint {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(n)
		}
	}
	return String(s)
}

// Values is a convenience constructor turning a list of strings into values.
func Values(ss ...string) []Value {
	vs := make([]Value, len(ss))
	for i, s := range ss {
		vs[i] = String(s)
	}
	return vs
}

// FormatValues renders a slice of values as a comma-separated list.
func FormatValues(vs []Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s)", strings.Join(parts, ", "))
}
