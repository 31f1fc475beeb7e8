// Package mapord exercises the iteration-order taint rules: appends under
// a map range, cross-function flow through ordering facts, sort clearing,
// JSON sinks, and the propview:deterministic marker.
package mapord

import (
	"encoding/json"
	"sort"
)

// Keys returns m's keys in sorted order: the sort clears the map-range
// taint before the deterministic return.
//
// propview:deterministic
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BadKeys promises determinism but returns the keys in map order.
//
// propview:deterministic
func BadKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out // want `returns a map-ordered value`
}

// KeyedSlots gathers under the map range into key-positioned slots: the
// element order comes from the index space, not the iteration.
//
// propview:deterministic
func KeyedSlots(m map[int]string, n int) []string {
	out := make([]string, n)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// BadCounterSlots fills slots positioned by an advancing counter: the
// counter mirrors the iteration order, so the slots do too.
//
// propview:deterministic
func BadCounterSlots(m map[int]string) []string {
	out := make([]string, len(m))
	j := 0
	for _, v := range m {
		out[j] = v
		j++
	}
	return out // want `returns a map-ordered value`
}

// rawKeys is unmarked: no violation here, but its result is flagged
// map-ordered in the exported ordering summary.
func rawKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// BadCaller returns rawKeys' map-ordered result under a determinism
// promise; the taint arrives through rawKeys' summary.
//
// propview:deterministic
func BadCaller(m map[string]int) []string {
	ks := rawKeys(m)
	return ks // want `returns a map-ordered value`
}

// GoodCaller sorts the inherited taint away.
//
// propview:deterministic
func GoodCaller(m map[string]int) []string {
	ks := rawKeys(m)
	sort.Strings(ks)
	return ks
}

// Encode serializes map-ordered data: the propviewd-response sink.
func Encode(m map[string]int) ([]byte, error) {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	return json.Marshal(names) // want `map-ordered value flows into JSON encoding`
}

// EncodeSorted sorts before encoding.
func EncodeSorted(m map[string]int) ([]byte, error) {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return json.Marshal(names)
}
