// Package aliasfix exercises the snapshotaliasing analyzer: writes
// through read-only accessor results are flagged; copies are not.
package aliasfix

type Tuple []int

type Rel struct {
	tuples []Tuple
}

// Tuples returns the live tuple slice; callers must not modify it.
//
// propview:read-only
func (r *Rel) Tuples() []Tuple { return r.tuples }

// All forwards a read-only result without its own marker: the analyzer
// derives the contract through the fixpoint.
func All(r *Rel) []Tuple { return r.Tuples() }

func writes(r *Rel) {
	ts := r.Tuples()
	ts[0] = Tuple{1}         // want `write to ts\[0\], which aliases a read-only snapshot`
	ts[1][0] = 2             // want `write to ts\[1\]\[0\], which aliases a read-only snapshot`
	ts = append(ts, Tuple{}) // want `append to ts, which aliases a read-only snapshot`
	_ = ts
}

func viaFacade(r *Rel) {
	ts := All(r)
	ts[0] = nil // want `write to ts\[0\], which aliases a read-only snapshot`
}

func viaRange(r *Rel) {
	for _, t := range r.Tuples() {
		t[0] = 9 // want `write to t\[0\], which aliases a read-only snapshot`
	}
}

func viaSlice(r *Rel) {
	head := r.Tuples()[:1]
	head[0] = nil // want `write to head\[0\], which aliases a read-only snapshot`
}

func inClosure(r *Rel) func() {
	ts := r.Tuples()
	return func() {
		ts[0] = nil // want `write to ts\[0\], which aliases a read-only snapshot`
	}
}

func copies(r *Rel) {
	ts := r.Tuples()
	cp := make([]Tuple, len(ts))
	copy(cp, ts)
	cp[0] = nil               // ok: cp owns its backing array
	cp = append(cp, Tuple{1}) // ok
	var local []Tuple
	local = append(local, ts...) // ok: appending into an owned slice
	_, _ = cp, local
}

func rebound(r *Rel) {
	ts := r.Tuples()
	ts = make([]Tuple, 1) // rebinding clears the taint
	ts[0] = Tuple{1}      // ok
}

func reads(r *Rel) int {
	n := 0
	for _, t := range r.Tuples() {
		n += len(t) // ok: reading is the point of the accessor
	}
	return n
}

func suppressed(r *Rel) {
	ts := r.Tuples()
	//lint:ignore snapshotaliasing fixture exercises the suppression path
	ts[0] = nil // ok: suppressed with justification
}
