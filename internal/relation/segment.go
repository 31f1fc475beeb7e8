package relation

// Frozen relations: the segmented store behind every relation version.
// A frozen relation hash-partitions its tuples by key into n ≥ 1
// segments, each an independent layered store (internal/layered) — its
// own immutable base, tombstone/append overlay chain, and fold/squash
// schedule — so deriving a commit's overlay, folding a saturated overlay
// into a fresh base, and answering containment probes all cost
// O(segment) and run concurrently across segments (parallel.For). One
// segment is the unsegmented store: a builder freezes into it by handing
// over its arrays.
//
// Iteration order is the only subtlety: the observable contract (and the
// differential suites) require byte-identical order to a legacy rebuild —
// base order minus tombstones, then appends oldest-first. Hash
// partitioning destroys positional order, so every entry carries a global
// monotone sequence number assigned at insertion: base entries keep their
// original positions' sequences, appended tuples take fresh sequences
// greater than every live one, and iteration k-way-merges the per-segment
// streams by sequence. Within one segment emission is always
// sequence-ascending — the base is sequence-sorted (folds rebuild it in
// emission order, which is ascending by induction), and every layer's
// appends carry sequences above all below — so the merge reproduces the
// legacy order exactly, including the delete-then-reinsert
// re-emission-at-the-end rule. A one-segment store emits in sequence
// order by construction: it skips the merge and keeps no base sequences.
//
// Segments compact on layered.ForSegments(n): the fold floor and the
// tolerable chain depth shrink with the segment count, since a segment's
// base is a fraction of the relation.

import (
	"runtime"
	"sync/atomic"

	"repro/internal/layered"
	"repro/internal/parallel"
)

// segHash is the partition function: 32-bit FNV-1a (parallel.Hash).
func segHash(key string) uint32 { return parallel.Hash(key) }

// seqTuple is one stored tuple tagged with its global insertion sequence.
type seqTuple struct {
	seq uint64
	t   Tuple
}

func (st seqTuple) Key() string { return st.t.Key() }

// segBase is a segment's immutable base: tuples in emission order, their
// key index and, in a store of more than one segment, their sequences.
type segBase struct {
	tuples []Tuple
	index  map[string]int // key -> position in tuples
	seqs   []uint64       // nil in a one-segment store
}

func (b *segBase) Len() int { return len(b.tuples) }

func (b *segBase) at(i int) seqTuple {
	st := seqTuple{t: b.tuples[i]}
	if b.seqs != nil {
		st.seq = b.seqs[i]
	}
	return st
}

func (b *segBase) Has(k string) bool {
	_, ok := b.index[k]
	return ok
}

// segment is one hash partition: a layered store of sequence-tagged
// tuples.
type segment = layered.Store[seqTuple, *segBase]

// segHas reports whether segment s holds key k: the overlay decides, else
// the base index.
func segHas(s *segment, k string) bool {
	if _, ok, decided := s.Decide(k); decided {
		return ok
	}
	return s.Base().Has(k)
}

// segStore is the store of one frozen relation: the segment array plus
// the global sequence allocator. Immutable after construction — derives
// build a new store sharing untouched segments by value — so any
// retained generation stays readable while writers scatter new ones.
type segStore struct {
	segs []segment
	live int
	// nextSeq is the next unallocated global sequence number.
	// propview:generation
	nextSeq uint64
	// one backs segs in a one-segment store, saving an allocation per
	// derive of the common case.
	one [1]segment
}

func (st *segStore) segOf(key string) int {
	if len(st.segs) == 1 {
		return 0
	}
	return int(segHash(key) % uint32(len(st.segs)))
}

func (st *segStore) containsKey(key string) bool {
	return segHas(&st.segs[st.segOf(key)], key)
}

// plain returns the live tuples without materializing when the store has
// one segment and no overlay: the base array itself.
func (st *segStore) plain() ([]Tuple, bool) {
	if len(st.segs) != 1 || st.segs[0].Depth() != 0 {
		return nil, false
	}
	return st.segs[0].Base().tuples, true
}

// derive publishes a segment's next version on the store's schedule; a
// fold rebuilds the segment's base from its live entries in emission
// order.
func (st *segStore) derive(s *segment, dead map[string]struct{}, added []seqTuple, live int, c *layered.Counters) segment {
	multi := len(st.segs) > 1
	return s.Derive(dead, added, live, layered.ForSegments(len(st.segs)), c, func(v *segment) *segBase {
		b := &segBase{tuples: make([]Tuple, 0, v.Len()), index: make(map[string]int, v.Len())}
		if multi {
			b.seqs = make([]uint64, 0, v.Len())
		}
		for c := newSegCursor(v); c.ok; c.advance() {
			b.index[c.cur.t.Key()] = len(b.tuples)
			b.tuples = append(b.tuples, c.cur.t)
			if multi {
				b.seqs = append(b.seqs, c.cur.seq)
			}
		}
		return b
	})
}

// deleteAll derives the store with the present subset of the dead keys
// tombstoned: keys scatter to their segments, each affected segment
// filters to the keys it actually holds and derives its next version, and
// the gather shares every untouched segment by pointer. The map is owned
// by the store afterwards: in a one-segment store holding every key it
// becomes the tombstone set itself. Returns (nil, false) when no key was
// present, so the caller can share the whole relation. exact promises
// that every key is present, and skips the filter. Compactions count into
// c, and a derive scattered across more than one segment into par (either
// may be nil).
func (st *segStore) deleteAll(dead map[string]struct{}, exact bool, c *layered.Counters, par *atomic.Int64) (*segStore, bool) {
	return update(st, dead, func() []map[string]struct{} {
		bySeg := make([]map[string]struct{}, len(st.segs))
		for k := range dead {
			i := st.segOf(k)
			if bySeg[i] == nil {
				bySeg[i] = make(map[string]struct{})
			}
			bySeg[i][k] = struct{}{}
		}
		return bySeg
	}, 0, par, func(s *segment, keys map[string]struct{}) (segment, int) {
		present := keys
		if !exact {
			present = presentKeys(s, keys)
		}
		if len(present) == 0 {
			return *s, 0
		}
		return st.derive(s, present, nil, s.Len()-len(present), c), -len(present)
	})
}

// presentKeys returns the keys s holds: keys itself when it holds them
// all, the common case, else a filtered copy.
func presentKeys(s *segment, keys map[string]struct{}) map[string]struct{} {
	for k := range keys {
		if segHas(s, k) {
			continue
		}
		present := make(map[string]struct{}, len(keys))
		for k := range keys {
			if segHas(s, k) {
				present[k] = struct{}{}
			}
		}
		return present
	}
	return keys
}

// insertAll derives the store with the novel subset of ts appended in
// request order. Sequences are pre-assigned by request position before the
// scatter — non-novel candidates just leave holes in the sequence space —
// so cross-segment merge order equals request order without any
// coordination between segment workers. Presence checks and intra-batch
// dedup run inside the workers: a key always hashes to one segment, so
// per-segment dedup is global dedup. Returns (nil, false) when nothing was
// novel. exact promises that the tuples are novel and distinct, and skips
// the checks; counts as deleteAll does.
func (st *segStore) insertAll(ts []Tuple, exact bool, c *layered.Counters, par *atomic.Int64) (*segStore, bool) {
	cands := make([]seqTuple, len(ts))
	for i, t := range ts {
		cands[i] = seqTuple{seq: st.nextSeq + uint64(i), t: t}
	}
	return update(st, cands, func() [][]seqTuple {
		bySeg := make([][]seqTuple, len(st.segs))
		for _, c := range cands {
			i := st.segOf(c.t.Key())
			bySeg[i] = append(bySeg[i], c)
		}
		return bySeg
	}, uint64(len(ts)), par, func(s *segment, cands []seqTuple) (segment, int) {
		var novel []seqTuple
		var seen map[string]struct{}
		for _, c := range cands {
			if !exact {
				k := c.t.Key()
				if _, dup := seen[k]; dup || segHas(s, k) {
					continue
				}
				if seen == nil {
					seen = make(map[string]struct{}, len(cands))
				}
				seen[k] = struct{}{}
			}
			novel = append(novel, seqTuple{seq: c.seq, t: c.t.Clone()})
		}
		if len(novel) == 0 {
			return *s, 0
		}
		return st.derive(s, nil, novel, s.Len()+len(novel), c), len(novel)
	})
}

// group is one segment's share of a derive's input.
type group interface {
	~map[string]struct{} | ~[]seqTuple
}

// update derives the next store from input all, consuming seqs sequence
// numbers: work runs on every segment with input and returns the
// segment's next version and live-count change (the segment itself when
// unchanged). A one-segment store hands all to its segment; a larger one
// scatters it and runs the affected segments concurrently, each writing
// only its own slot, and the gather shares untouched segments by value.
// Returns (nil, false) when no segment changed.
//
// propview:publish
func update[G group](st *segStore, all G, scatter func() []G, seqs uint64, par *atomic.Int64, work func(*segment, G) (segment, int)) (*segStore, bool) {
	if len(all) == 0 {
		return nil, false
	}
	if len(st.segs) == 1 {
		s, d := work(&st.segs[0], all)
		if d == 0 {
			return nil, false
		}
		ns := &segStore{live: st.live + d, nextSeq: st.nextSeq + seqs, one: [1]segment{s}}
		ns.segs = ns.one[:]
		return ns, true
	}
	bySeg := scatter()
	affected := make([]int, 0, len(bySeg))
	for i := range bySeg {
		if len(bySeg[i]) > 0 {
			affected = append(affected, i)
		}
	}
	if len(affected) > 1 && par != nil {
		par.Add(1)
	}
	segs := make([]segment, len(st.segs))
	copy(segs, st.segs)
	deltas := make([]int, len(segs))
	parallel.For(len(affected), runtime.GOMAXPROCS(0), func(j int) {
		i := affected[j]
		segs[i], deltas[i] = work(&st.segs[i], bySeg[i])
	})
	live := st.live
	for _, d := range deltas {
		live += d
	}
	if live == st.live { // every change moves the live count
		return nil, false
	}
	return &segStore{segs: segs, live: live, nextSeq: st.nextSeq + seqs}, true
}

// segCursor streams one segment's live entries in ascending sequence
// order, pull-style, at O(overlay) extra space.
type segCursor struct {
	base *segBase
	w    layered.Walk[seqTuple]
	bi   int // next base position
	cur  seqTuple
	ok   bool
}

func newSegCursor(s *segment) *segCursor {
	c := &segCursor{base: s.Base(), w: s.Walk()}
	c.advance()
	return c
}

func (c *segCursor) advance() {
	for c.bi < c.base.Len() {
		st := c.base.at(c.bi)
		c.bi++
		if !c.w.Overlaid() || !c.w.Mentioned(st.t.Key()) {
			c.cur, c.ok = st, true
			return
		}
	}
	c.cur, c.ok = c.w.Next()
}

// cursorHeap is a hand-rolled min-heap on the cursors' current sequence.
type cursorHeap []*segCursor

func (h cursorHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].cur.seq < h[min].cur.seq {
			min = l
		}
		if r < len(h) && h[r].cur.seq < h[min].cur.seq {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// parallelCursorMin is the live-tuple count past which building the
// per-segment cursors (each an O(overlay) mentions-map pass) scatters
// across the worker pool; below it the goroutine fan-out costs more than
// it saves.
const parallelCursorMin = 1 << 14

// eachMerged streams the store's live tuples in global sequence order —
// byte-identical to the legacy unsegmented iteration. One segment is
// walked directly; more are k-way-merged by their cursors. Yielded tuples
// alias segment storage (see internal/analysis).
//
// propview:no-retain
func (st *segStore) eachMerged(yield func(Tuple) bool) {
	if len(st.segs) == 1 {
		for c := newSegCursor(&st.segs[0]); c.ok; c.advance() {
			if !yield(c.cur.t) {
				return
			}
		}
		return
	}
	cs := make([]*segCursor, len(st.segs))
	if st.live >= parallelCursorMin {
		parallel.For(len(st.segs), runtime.GOMAXPROCS(0), func(i int) { cs[i] = newSegCursor(&st.segs[i]) })
	} else {
		for i := range st.segs {
			cs[i] = newSegCursor(&st.segs[i])
		}
	}
	h := make(cursorHeap, 0, len(cs))
	for _, c := range cs {
		if c.ok {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for len(h) > 0 {
		c := h[0]
		if !yield(c.cur.t) {
			return
		}
		c.advance()
		if c.ok {
			h.siftDown(0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			h.siftDown(0)
		}
	}
}

// flatten materializes the live tuples in merge order.
func (st *segStore) flatten() []Tuple {
	out := make([]Tuple, 0, st.live)
	st.eachMerged(func(t Tuple) bool {
		//lint:ignore eachretain flatten materializes the canonical slice; segment storage is immutable once published
		out = append(out, t)
		return true
	})
	return out
}

// overlayShape summarizes the segments' overlay: the deepest chain and
// the total mention count.
func (st *segStore) overlayShape() (depth, mentions int) {
	for _, s := range st.segs {
		depth = max(depth, s.Depth())
		mentions += s.Mentions()
	}
	return depth, mentions
}

// newSegStore builds a frozen store of n segments over tuples in their
// iteration order. One segment adopts tuples and index as its base (a nil
// index is built), so the caller hands them over; more segments copy the
// tuple headers into hash partitions, with sequences preserving the
// order, in O(|tuples|).
func newSegStore(n int, tuples []Tuple, index map[string]int) *segStore {
	//lint:ignore genmonotonic a new store starts a fresh sequence space; its tuples hold sequences 0..len-1
	st := &segStore{live: len(tuples), nextSeq: uint64(len(tuples))}
	if n <= 1 {
		if index == nil {
			index = make(map[string]int, len(tuples))
			for i, t := range tuples {
				index[t.Key()] = i
			}
		}
		st.one[0] = layered.New[seqTuple](&segBase{tuples: tuples, index: index})
		st.segs = st.one[:]
		return st
	}
	parts := make([]*segBase, n)
	for i := range parts {
		parts[i] = &segBase{index: make(map[string]int)}
	}
	for seq, t := range tuples {
		k := t.Key()
		p := parts[segHash(k)%uint32(n)]
		p.index[k] = len(p.tuples)
		p.tuples = append(p.tuples, t)
		p.seqs = append(p.seqs, uint64(seq))
	}
	st.segs = make([]segment, n)
	for i, p := range parts {
		st.segs[i] = layered.New[seqTuple](p)
	}
	return st
}
