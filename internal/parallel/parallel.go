// Package parallel is the intra-process worker loop the segmented source
// store and the engine fan out on. It grew out of relation's private
// parallelFor once the engine's across-view fan-out wanted the same
// work-stealing loop; importing relation sideways for it would have
// inverted the layering. The package has two pieces:
//
//   - For: the work-stealing loop, bounded by a caller-given width. The
//     segmented store's scatter paths pass GOMAXPROCS; the engine passes
//     Options.Workers to maintain its prepared views concurrently.
//   - Hash: the 32-bit FNV-1a key hash the store partitions segments by.
//
// Determinism contract: For runs fn over a fixed index range with results
// landing in caller-owned per-index slots, so the outcome is independent
// of width and schedule; only the execution interleaving varies. Callers
// that need ordered output gather the slots serially afterwards. The slot
// discipline is checked dynamically: a closure that writes shared state
// outside its own slot is a data race, which CI's
// `go test -race -cpu 2 ./internal/parallel ./internal/relation
// ./internal/engine` step catches (at -cpu 2, GOMAXPROCS-wide callers get
// a second worker on any runner).
package parallel

import (
	"sync"
	"sync/atomic"
)

// Hash is 32-bit FNV-1a, the partition function of the segmented source
// store. Inlined rather than hash/fnv to avoid a Writer allocation per key
// on the hot path.
//
// propview:deterministic
func Hash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// For runs fn over 0..n-1 across min(n, width) goroutines pulling indexes
// from a shared work-stealing counter, so uneven per-index cost (one
// segment folding while its neighbors derive a one-key layer) balances
// itself. The calling goroutine is one of the workers, and For Waits for
// the spawned ones before returning (the join proof: no goroutine
// outlives the call). A width of 1 or less runs the plain inline loop, in
// index order, at no cost over serial code.
//
// propview:deterministic
func For(n, width int, fn func(int)) {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}
