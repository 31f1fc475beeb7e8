// Package lockfix exercises the lockguard analyzer across the mutex,
// RWMutex, Once, and atomic guard forms.
package lockfix

import (
	"sync"
	"sync/atomic"
)

type Eng struct {
	mu    sync.Mutex
	views map[string]int // guarded-by: mu
	gen   atomic.Int64   // guarded-by: atomic
}

func (e *Eng) good() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.views["a"]
}

func (e *Eng) badRead() int {
	return e.views["a"] // want `read e.views without holding e.mu`
}

func (e *Eng) badWriteAfterUnlock() {
	e.mu.Lock()
	e.views["a"] = 1 // ok
	e.mu.Unlock()
	e.views["b"] = 2 // want `write to e.views without holding e.mu`
}

func (e *Eng) earlyReturn() int {
	e.mu.Lock()
	if len(e.views) == 0 { // ok: checked under the lock
		e.mu.Unlock()
		return 0
	}
	v := e.views["a"] // ok: the unlocking branch returned
	e.mu.Unlock()
	return v
}

func (e *Eng) conditionalLock(b bool) {
	if b {
		e.mu.Lock()
	}
	e.views["a"] = 1 // want `write to e.views without holding e.mu`
}

func (e *Eng) goroutineLeak() {
	e.mu.Lock()
	defer e.mu.Unlock()
	go func() {
		_ = e.views["a"] // want `read e.views without holding e.mu`
	}()
}

func (e *Eng) atomicOK() int64 {
	return e.gen.Load() // ok: the type carries the guarantee
}

func fresh() *Eng {
	e := &Eng{}
	e.views = map[string]int{} // ok: e is not shared yet
	return e
}

type RW struct {
	mu sync.RWMutex
	db int // guarded-by: mu
}

func (r *RW) read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.db // ok
}

func (r *RW) badWriteUnderRead() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.db = 1 // want `write to r.db while holding only the read lock r.mu`
}

type Snap struct {
	once  sync.Once
	where int // guarded-by: once
}

func (s *Snap) Where() int {
	s.once.Do(func() { s.where = 42 }) // ok: built inside Do
	return s.where                     // ok: Do completed on this path
}

func (s *Snap) badWrite() {
	s.where = 1 // want `write to s.where outside its s.once.Do closure`
}

func (s *Snap) badEarlyRead() int {
	return s.where // want `read of s.where before s.once.Do on this path`
}

type BadAtomic struct {
	// guarded-by: atomic
	n int // want `marked guarded-by: atomic but its type int is not from sync/atomic`
}

type BadGuard struct {
	// guarded-by: missing
	v int // want `guarded-by: missing names no sibling field`
}

func (e *Eng) suppressed() int {
	//lint:ignore lockguard fixture exercises the suppression path
	return e.views["a"] // ok: suppressed with justification
}
