package relation

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	s := String("abc")
	if s.Kind() != KindString || s.Str() != "abc" {
		t.Fatalf("String: got kind=%v str=%q", s.Kind(), s.Str())
	}
	i := Int(42)
	if i.Kind() != KindInt || i.IntVal() != 42 {
		t.Fatalf("Int: got kind=%v int=%d", i.Kind(), i.IntVal())
	}
}

func TestValueEquality(t *testing.T) {
	if String("a") != String("a") {
		t.Error("equal strings must be ==")
	}
	if String("a") == String("b") {
		t.Error("distinct strings must differ")
	}
	if Int(1) != Int(1) {
		t.Error("equal ints must be ==")
	}
	if String("1") == Int(1) {
		t.Error("string \"1\" must differ from int 1")
	}
}

func TestValueOrderTotality(t *testing.T) {
	vals := []Value{String(""), String("a"), String("b"), Int(-1), Int(0), Int(7)}
	for _, v := range vals {
		for _, w := range vals {
			c := v.Compare(w)
			switch {
			case v == w && c != 0:
				t.Errorf("Compare(%v,%v)=%d want 0", v, w, c)
			case v != w && c == 0:
				t.Errorf("Compare(%v,%v)=0 for distinct values", v, w)
			case c != -w.Compare(v):
				t.Errorf("Compare not antisymmetric on %v,%v", v, w)
			}
		}
	}
}

func TestValueString(t *testing.T) {
	if got := Int(-5).String(); got != "-5" {
		t.Errorf("Int(-5).String()=%q", got)
	}
	if got := String("x1").String(); got != "x1" {
		t.Errorf("String(x1).String()=%q", got)
	}
}

func TestParseValue(t *testing.T) {
	if v := ParseValue("123", true); v != Int(123) {
		t.Errorf("ParseValue(123,true)=%v want Int", v)
	}
	if v := ParseValue("123", false); v != String("123") {
		t.Errorf("ParseValue(123,false)=%v want String", v)
	}
	if v := ParseValue("x1", true); v != String("x1") {
		t.Errorf("ParseValue(x1,true)=%v want String", v)
	}
}

// Tuple keys must be injective: distinct tuples yield distinct keys even in
// the presence of separator characters inside values.
func TestTupleKeyInjective(t *testing.T) {
	pairs := [][2]Tuple{
		{StringTuple("a|b", "c"), StringTuple("a", "b|c")},
		{StringTuple("a", ""), StringTuple("", "a")},
		{StringTuple("a#1"), NewTuple(String("a"), Int(1))},
		{NewTuple(Int(1), Int(23)), NewTuple(Int(12), Int(3))},
		{StringTuple(`a\`, "b"), StringTuple(`a`, `\b`)},
		{StringTuple("$x"), NewTuple(String("x"))},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("key collision: %v and %v both map to %q", p[0], p[1], p[0].Key())
		}
	}
}

func TestTupleKeyInjectiveQuick(t *testing.T) {
	// Property: Key() equality coincides with tuple equality for random
	// string tuples over a hostile alphabet.
	alphabet := []rune{'a', 'b', '|', '#', '$', '\\', '0'}
	gen := func(r *rand.Rand) Tuple {
		n := r.Intn(4)
		tp := make(Tuple, n)
		for i := range tp {
			m := r.Intn(4)
			var sb strings.Builder
			for j := 0; j < m; j++ {
				sb.WriteRune(alphabet[r.Intn(len(alphabet))])
			}
			tp[i] = String(sb.String())
		}
		return tp
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			vs[0] = reflect.ValueOf(gen(r))
			vs[1] = reflect.ValueOf(gen(r))
		},
	}
	prop := func(a, b Tuple) bool {
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestFormatValues(t *testing.T) {
	got := FormatValues([]Value{String("a"), Int(2)})
	if got != "(a, 2)" {
		t.Errorf("FormatValues=%q", got)
	}
}

// refValueLess and refTupleLess are the value and tuple orders written
// out directly from their definitions: kinds first (strings before
// integers), then the payloads; tuples position by position, a prefix
// before its extensions.
func refValueLess(v, w Value) bool {
	if v.kind != w.kind {
		return v.kind < w.kind
	}
	if v.kind == KindString {
		return v.s < w.s
	}
	return v.i < w.i
}

func refTupleLess(t, u Tuple) bool {
	for i := 0; i < len(t) && i < len(u); i++ {
		if t[i] != u[i] {
			return refValueLess(t[i], u[i])
		}
	}
	return len(t) < len(u)
}

// refCompare turns a strict order into the three-way result Compare must
// return.
func refCompare[T any](less func(a, b T) bool, a, b T) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// randValue draws from a small alphabet so that equal values, shared
// prefixes and both kinds turn up often.
func randValue(r *rand.Rand) Value {
	if r.Intn(2) == 0 {
		return Int(int64(r.Intn(7) - 3))
	}
	b := make([]byte, r.Intn(3))
	for i := range b {
		b[i] = "ab$|"[r.Intn(4)]
	}
	return String(string(b))
}

func randTuple(r *rand.Rand) Tuple {
	t := make(Tuple, r.Intn(4))
	for i := range t {
		t[i] = randValue(r)
	}
	return t
}

// TestCompareAgreesWithLessDefinition checks Value.Compare, Tuple.Compare
// and both Less methods against the orders' definitions on random
// mixed-kind values and on random tuples of unequal lengths.
func TestCompareAgreesWithLessDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		v, w := randValue(r), randValue(r)
		if got, want := v.Compare(w), refCompare(refValueLess, v, w); got != want {
			t.Fatalf("Value.Compare(%#v, %#v) = %d, want %d", v, w, got, want)
		}
		if got, want := v.Less(w), refValueLess(v, w); got != want {
			t.Fatalf("Value.Less(%#v, %#v) = %v, want %v", v, w, got, want)
		}
		a, b := randTuple(r), randTuple(r)
		if r.Intn(4) == 0 {
			b = append(a.Clone(), b...) // a prefixes b
		}
		if got, want := a.Compare(b), refCompare(refTupleLess, a, b); got != want {
			t.Fatalf("Tuple.Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := a.Less(b), refTupleLess(a, b); got != want {
			t.Fatalf("Tuple.Less(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}
