package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, width := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]atomic.Int64, n)
			For(n, width, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("width=%d n=%d: index %d ran %d times, want 1", width, n, i, got)
				}
			}
		}
	}
}

func TestForInlinesOnSingleProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	// At width GOMAXPROCS = 1 the loop must run on the calling goroutine in
	// order, observable as strictly ascending indexes.
	var mu sync.Mutex
	var seen []int
	For(100, runtime.GOMAXPROCS(0), func(i int) { mu.Lock(); seen = append(seen, i); mu.Unlock() })
	if len(seen) != 100 {
		t.Fatalf("covered %d indexes, want 100", len(seen))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("inline order broken at %d: got %d", i, v)
		}
	}
}

func TestForBoundsConcurrencyToWidth(t *testing.T) {
	// Width 3 is the caller plus two spawned workers: fn may never run on
	// more than three goroutines at once, however many indexes there are.
	var cur, peak atomic.Int64
	For(64, 3, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("width-3 loop reached %d concurrent workers", p)
	}
}

func TestHashMatchesFNV1a(t *testing.T) {
	// Spot-check the FNV-1a constants: offset basis for "", and a couple of
	// published vectors.
	cases := map[string]uint32{
		"":  2166136261,
		"a": 0xe40c292c,
		"b": 0xe70c2de5,
	}
	for k, want := range cases {
		if got := Hash(k); got != want {
			t.Fatalf("Hash(%q) = %#x, want %#x", k, got, want)
		}
	}
}
