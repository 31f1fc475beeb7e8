package provenance

// Witness interning. A delete/restore round trip re-derives witnesses that
// are value-equal to ones the tree held before the delete: the scan layer
// rebuilds the singleton witness of every restored tuple, and every join
// above it rebuilds the same unions — each a fresh allocation of tuple and
// key slices plus the canonical key string. The interner canonicalizes
// witnesses by that key so a re-derivation returns the previously built
// value instead: steady churn on the insert path allocates one probe key
// per witness, not a new witness.
//
// One interner is shared along a Result's generation chain (it lives in
// treeMetrics, like the counters). Each maintenance pass runs on one
// goroutine, and the engine serializes its passes over a chain under the
// commit lock, but a Result is persistent: any two generations of one
// chain may be derived from concurrently, so the table takes a mutex.
// The critical section is the map probe/store only — key merging and
// witness construction happen outside it — and an uncontended lock per
// intern is noise next to the allocation it saves. The hit/miss counters
// stay atomic because Stats readers don't hold the lock.

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// maxInternEntries caps the interner's memory: a workload with unbounded
// fresh witnesses (no churn, nothing to reuse) resets the table instead of
// growing it forever. Churn workloads — the ones interning exists for —
// stay far below the cap.
const maxInternEntries = 1 << 18

type witnessInterner struct {
	hits, misses atomic.Int64
	mu           sync.Mutex
	m            map[string]Witness // guarded-by: mu
}

// lookup probes the table under the lock.
func (wi *witnessInterner) lookup(k string) (Witness, bool) {
	wi.mu.Lock()
	w, ok := wi.m[k]
	wi.mu.Unlock()
	return w, ok
}

// singleton returns the canonical witness {st}. A nil interner builds it
// without interning.
func (wi *witnessInterner) singleton(st relation.SourceTuple) Witness {
	k := st.Key()
	w := Witness{tuples: []relation.SourceTuple{st}, keys: []string{k}, key: k}
	if wi == nil {
		return w
	}
	if u, ok := wi.lookup(k); ok {
		wi.hits.Add(1)
		return u
	}
	return wi.put(k, w)
}

// union returns the canonical witness w ∪ v, probing by the merged key
// before building anything. A nil interner builds it without interning.
func (wi *witnessInterner) union(w, v Witness) Witness {
	k := mergedKey(w.keys, v.keys)
	if wi == nil {
		return unionWitness(w, v, k)
	}
	if u, ok := wi.lookup(k); ok {
		wi.hits.Add(1)
		return u
	}
	return wi.put(k, unionWitness(w, v, k))
}

// put stores w under k. Two passes missing on the same key may both
// build and put it; the values are equal (canonical construction from the
// same tuples), so last-write-wins is harmless — one duplicate build,
// never a wrong value.
func (wi *witnessInterner) put(k string, w Witness) Witness {
	wi.misses.Add(1)
	wi.mu.Lock()
	if wi.m == nil || len(wi.m) >= maxInternEntries {
		wi.m = make(map[string]Witness)
	}
	wi.m[k] = w
	wi.mu.Unlock()
	return w
}

// mergedKey merges two sorted key lists into the canonical key of their
// union — what (UnionWitness of the two).Key() would return — with a
// single string allocation.
func mergedKey(a, b []string) string {
	n := 0
	for _, k := range a {
		n += len(k) + 1
	}
	for _, k := range b {
		n += len(k) + 1
	}
	var sb strings.Builder
	sb.Grow(n)
	i, j := 0, 0
	first := true
	emit := func(k string) {
		if !first {
			sb.WriteByte('\x01')
		}
		first = false
		sb.WriteString(k)
	}
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			emit(a[i])
			i++
		case a[i] > b[j]:
			emit(b[j])
			j++
		default:
			emit(a[i])
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		emit(a[i])
	}
	for ; j < len(b); j++ {
		emit(b[j])
	}
	return sb.String()
}

// unionWitness builds w ∪ v by merging their sorted keys; key must be
// mergedKey(w.keys, v.keys).
func unionWitness(w, v Witness, key string) Witness {
	n := len(w.keys) + len(v.keys)
	u := Witness{tuples: make([]relation.SourceTuple, 0, n), keys: make([]string, 0, n), key: key}
	i, j := 0, 0
	for i < len(w.keys) || j < len(v.keys) {
		switch {
		case j == len(v.keys) || i < len(w.keys) && w.keys[i] < v.keys[j]:
			u.tuples, u.keys = append(u.tuples, w.tuples[i]), append(u.keys, w.keys[i])
			i++
		case i == len(w.keys) || v.keys[j] < w.keys[i]:
			u.tuples, u.keys = append(u.tuples, v.tuples[j]), append(u.keys, v.keys[j])
			j++
		default:
			u.tuples, u.keys = append(u.tuples, w.tuples[i]), append(u.keys, w.keys[i])
			i++
			j++
		}
	}
	return u
}
