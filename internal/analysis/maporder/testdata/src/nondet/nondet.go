// Package nondet exercises the nondeterminism-root rules:
// propview:deterministic functions must transitively avoid wall-clock and
// randomness, and propagation stops at callees that carry the marker.
package nondet

import "time"

// BadClock stamps output from a function that promised determinism.
//
// propview:deterministic
func BadClock() string {
	return time.Now().String() // want `reaches nondeterminism: time.Now`
}

// stamp is unmarked: free to read the clock, but its summary records it.
func stamp() string {
	return time.Now().String()
}

// BadIndirect reaches the clock through a helper call.
//
// propview:deterministic
func BadIndirect() string {
	return stamp() // want `reaches nondeterminism: time.Now`
}

// seed is deterministic and says so; callers may rely on the promise
// without re-deriving it.
//
// propview:deterministic
func seed() int { return 42 }

// GoodCall relies on seed's own checked promise: propagation stops at
// marked callees.
//
// propview:deterministic
func GoodCall() int { return seed() }
