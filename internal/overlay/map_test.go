package overlay

import (
	"math/rand"
	"strconv"
	"testing"
)

// assertSameMap checks every read surface of m against the plain map want.
func assertSameMap(t *testing.T, m *Map[int], want map[string]int, keys []string, ctx string) {
	t.Helper()
	if m.Size() != len(want) {
		t.Fatalf("%s: Size = %d, want %d", ctx, m.Size(), len(want))
	}
	for _, k := range keys {
		w, wok := want[k]
		g, gok := m.Get(k)
		if gok != wok || g != w {
			t.Fatalf("%s: Get(%q) = (%d, %v), want (%d, %v)", ctx, k, g, gok, w, wok)
		}
		if m.Has(k) != wok {
			t.Fatalf("%s: Has(%q) = %v, want %v", ctx, k, !wok, wok)
		}
	}
	seen := make(map[string]bool, len(want))
	m.Each(func(k string, v int) bool {
		if seen[k] {
			t.Fatalf("%s: Each yielded %q twice", ctx, k)
		}
		seen[k] = true
		if w, ok := want[k]; !ok || w != v {
			t.Fatalf("%s: Each yielded %q=%d, want %d (present %v)", ctx, k, v, w, ok)
		}
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("%s: Each yielded %d entries, want %d", ctx, len(seen), len(want))
	}
	flat := m.Flatten()
	if len(flat) != len(want) {
		t.Fatalf("%s: Flatten has %d entries, want %d", ctx, len(flat), len(want))
	}
	for k, w := range want {
		if flat[k] != w {
			t.Fatalf("%s: Flatten[%q] = %d, want %d", ctx, k, flat[k], w)
		}
	}
}

// TestMapDeriveDifferential drives a seeded random Derive script — mostly
// one-key steps, which deepen the chain until it squashes, with bursts
// that push the mention count past the fold limit — and checks every
// generation against a plain Go map. Two chains run the same script, one
// counting into Metrics and one with nil metrics; every superseded
// generation is re-checked at the end, since derives must never disturb
// the versions they were derived from.
func TestMapDeriveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	base := make(map[string]int)
	for i := 0; i < 12; i++ {
		base[keys[i]] = i
	}
	want := make(map[string]int, len(base))
	for k, v := range base {
		want[k] = v
	}
	baseCopy := make(map[string]int, len(base))
	for k, v := range base {
		baseCopy[k] = v
	}

	var met Metrics
	counted, uncounted := NewMap(base), NewMap(baseCopy)
	type gen struct {
		m    *Map[int]
		want map[string]int
	}
	var history []gen
	for step := 0; step < 600; step++ {
		n := 1
		if rng.Intn(10) == 0 {
			n = 6 + rng.Intn(10)
		}
		set := make(map[string]int)
		dead := make(map[string]struct{})
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			if _, taken := set[k]; taken {
				continue
			}
			if _, taken := dead[k]; taken {
				continue
			}
			if rng.Intn(3) == 0 {
				dead[k] = struct{}{}
			} else {
				set[k] = rng.Intn(1000)
			}
		}
		set2 := make(map[string]int, len(set))
		for k, v := range set {
			set2[k] = v
			want[k] = v
		}
		dead2 := make(map[string]struct{}, len(dead))
		for k := range dead {
			dead2[k] = struct{}{}
			delete(want, k)
		}
		counted = counted.Derive(set, dead, &met)
		uncounted = uncounted.Derive(set2, dead2, nil)

		ctx := "step " + strconv.Itoa(step)
		assertSameMap(t, counted, want, keys, ctx+" (metrics)")
		assertSameMap(t, uncounted, want, keys, ctx+" (nil metrics)")
		snap := make(map[string]int, len(want))
		for k, v := range want {
			snap[k] = v
		}
		history = append(history, gen{counted, snap})
	}
	for i, g := range history {
		assertSameMap(t, g.m, g.want, keys, "history "+strconv.Itoa(i))
	}
	if met.Folds() < 2 || met.Squashes() < 1 {
		t.Fatalf("script reached %d folds and %d squashes, want ≥2 and ≥1", met.Folds(), met.Squashes())
	}
	var nilMet *Metrics
	if nilMet.Folds() != 0 || nilMet.Squashes() != 0 {
		t.Fatal("nil metrics must report zero")
	}
}

// TestMapDeriveEmptyReturnsReceiver: a derive with no changes shares the
// receiver instead of publishing a new generation.
func TestMapDeriveEmptyReturnsReceiver(t *testing.T) {
	m := NewMap(map[string]int{"a": 1})
	if got := m.Derive(nil, nil, nil); got != m {
		t.Fatal("empty Derive built a new generation")
	}
	if m.Depth() != 0 || m.Mentions() != 0 {
		t.Fatalf("flat map reports depth %d mentions %d", m.Depth(), m.Mentions())
	}
}
