package engine

import (
	"sync"
	"sync/atomic"
)

// catchUp is one per-generation cache of a value derived from a view —
// its sorted page rows, its where-provenance index — produced at most
// once, off the commit lock. A commit never builds the value. The next
// generation's cache either carries the built value over (carry), or
// holds a log: an older generation's value, the base, plus the writes
// committed since (follow). The generation's first reader replays the log
// onto the base, or, with no log, builds the value from scratch (get).
// Concurrent first readers wait for that one computation. B is the value
// and W one logged write; the caller supplies the replay and the build,
// so the cache never depends on which value it holds.
type catchUp[B, W any] struct {
	once sync.Once
	// built is the value, stored once produced — or before publication,
	// when a commit carries its predecessor's value over.
	// guarded-by: atomic
	built atomic.Pointer[B]
	// log is how a value not built yet will be caught up; nil means the
	// first reader builds from scratch. Cleared once built is stored, so
	// a caught-up generation does not keep its base alive.
	// guarded-by: atomic
	log atomic.Pointer[catchLog[B, W]]
}

// catchLog is an older generation's value plus the writes committed since,
// which replayed in order give this generation's value.
type catchLog[B, W any] struct {
	base *B
	last *logged[W]
}

// logged is one pending write. Writes link newest-first, so a commit
// extends a log in O(1).
type logged[W any] struct {
	prev *logged[W]
	w    W
	// n is the pending size up to and including this write.
	n int
}

// writes returns the log's pending writes, oldest first.
func (lg *catchLog[B, W]) writes() []W {
	n := 0
	for w := lg.last; w != nil; w = w.prev {
		n++
	}
	ws := make([]W, n)
	for w := lg.last; w != nil; w = w.prev {
		n--
		ws[n] = w.w
	}
	return ws
}

// Load returns the built value, nil while it is not built.
func (c *catchUp[B, W]) Load() *B { return c.built.Load() }

// state reads the log, then the value: a concurrent catch-up stores the
// value before it clears the log, so one of the two is seen.
func (c *catchUp[B, W]) state() (*catchLog[B, W], *B) {
	lg := c.log.Load()
	return lg, c.Load()
}

// ready reports whether a reader of this generation runs no from-scratch
// build: the value is built, or a base to catch up from is pending.
func (c *catchUp[B, W]) ready() bool {
	lg, v := c.state()
	return v != nil || lg != nil
}

// carry gives a generation whose value equals from's the value itself if
// built, else from's pending log.
func (c *catchUp[B, W]) carry(from *catchUp[B, W]) {
	if lg, v := from.state(); v != nil {
		c.built.Store(v)
	} else {
		c.log.Store(lg)
	}
}

// follow leaves the value pending as from's value — built, or its log's
// base — plus the write w of size n. With no base, or once the pending
// writes outsize the base (size), replaying would cost about as much as
// starting over, so nothing is left pending and the first reader builds
// from scratch. O(1): it only links.
func (c *catchUp[B, W]) follow(from *catchUp[B, W], w W, n int, size func(*B) int) {
	lg, v := from.state()
	var next catchLog[B, W]
	switch {
	case v != nil:
		next.base = v
	case lg != nil:
		next = *lg
	default:
		return
	}
	if next.last != nil {
		n += next.last.n
	}
	if n > size(next.base) {
		return
	}
	next.last = &logged[W]{prev: next.last, w: w, n: n}
	c.log.Store(&next)
}

// get returns the value, producing it at most once: a built value is
// returned as is (one atomic load); otherwise the first caller replays the
// pending writes onto the log's base, or, with no log or a replay that
// reports !ok, builds from scratch. A build reporting !ok stores nothing,
// and get returns nil.
func (c *catchUp[B, W]) get(replay func(base *B, ws []W) (*B, bool), build func() (*B, bool)) *B {
	if v := c.Load(); v != nil {
		return v
	}
	c.once.Do(func() {
		var v *B
		ok := false
		if lg := c.log.Load(); lg != nil {
			v, ok = replay(lg.base, lg.writes())
		}
		if !ok {
			if v, ok = build(); !ok {
				return
			}
		}
		c.built.Store(v)
		c.log.Store(nil)
	})
	return c.Load()
}
