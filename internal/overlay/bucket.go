package overlay

// Join-bucket chains: the persistent hash indexes an annotated tree keeps
// on the children of every join node, mapping a join-key to the chain of
// partner tuples, and on the child of a projection whose algebra
// recomputes deletions, mapping an output key to its pre-images.

import "repro/internal/relation"

// Bucket is a persistent chain of one join key's partner tuples: appends
// cons a fresh chunk onto the chain in O(|chunk|), sharing every earlier
// chunk — a hub key's history is never copied per write. Iteration is
// oldest-chunk-first, preserving append order.
type Bucket struct {
	prev   *Bucket
	tuples []relation.Tuple
}

// Each walks the chain in append order; stale tuples (lazily removed, see
// BucketVal) are included — callers skip them by liveness lookups.
// Iterative, not recursive: a hub key gaining one chunk per commit grows
// its chain linearly in write count (chunks only merge at the half-stale
// compaction), and probe stack depth must not grow with it. The chunk walk
// is O(chunks) ≤ O(tuples), which a probe pays anyway.
func (b *Bucket) Each(yield func(relation.Tuple) bool) bool {
	var arr [32]*Bucket
	chunks := arr[:0] // heap-free for shallow chains
	for c := b; c != nil; c = c.prev {
		chunks = append(chunks, c)
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		for _, t := range chunks[i].tuples {
			if !yield(t) {
				return false
			}
		}
	}
	return true
}

// BucketVal is one key's entry in a join node's bucket index: the chunk
// chain plus bookkeeping for lazy removal. A removed tuple stays in the
// chain and only the stale count advances, in O(1); the live count is what
// probes spend. Once stale entries reach half the chain the bucket is
// compacted against the child's live map, so the chain length stays within
// 2× of the live fan-out and removal is amortized O(1).
type BucketVal struct {
	chain *Bucket
	n     int // tuples across the chain, stale included
	dead  int // stale (removed) tuples across the chain
}

// Live returns the number of live tuples in the bucket — the exact join
// fan-out of its key. O(1).
func (bv BucketVal) Live() int { return bv.n - bv.dead }

// Each walks every chain entry in append order, stale ones included;
// callers that need only the live fan-out should use EachLive.
func (bv BucketVal) Each(yield func(relation.Tuple) bool) bool { return bv.chain.Each(yield) }

// EachLive walks the chain in append order yielding each live tuple, with
// its key, exactly once, using alive to recognize stale entries and the
// live count to stop as soon as every live tuple has been emitted — a
// probe never walks the stale tail of a churned bucket, and an all-stale
// bucket costs O(1). Entries before the last live one are still visited
// (their positions are unknown), so the worst-case walk is the chain
// prefix holding the live entries, itself bounded at 2× the live fan-out
// by the half-stale compaction.
//
// A key removed and later re-added appears in the chain twice with only
// the net copy counted live; the seen set makes the walk yield it once.
// A chain with no removals since it was built holds no such repeats and
// skips the set.
func (bv BucketVal) EachLive(alive func(key string) bool, yield func(t relation.Tuple, key string) bool) bool {
	remaining := bv.Live()
	if remaining <= 0 {
		return true
	}
	var seen map[string]bool
	bv.chain.Each(func(t relation.Tuple) bool {
		k := t.Key()
		if seen[k] || !alive(k) {
			return true
		}
		if !yield(t, k) {
			remaining = -1
			return false
		}
		remaining--
		if remaining == 0 {
			return false
		}
		if bv.dead > 0 {
			if seen == nil {
				seen = make(map[string]bool, remaining+1)
			}
			seen[k] = true
		}
		return true
	})
	return remaining >= 0
}

// NewBuckets wraps already grouped partner tuples as the flat base of a
// bucket index. The groups map and its slices are owned by the index
// afterwards and must not be mutated.
func NewBuckets(groups map[string][]relation.Tuple) *Map[BucketVal] {
	base := make(map[string]BucketVal, len(groups))
	for k, ts := range groups {
		base[k] = BucketVal{chain: &Bucket{tuples: ts}, n: len(ts)}
	}
	return NewMap(base)
}

// BucketsAdd derives the bucket index with the novel tuples appended to
// their key groups, in O(|novel|).
func BucketsAdd(b *Map[BucketVal], novel []relation.Tuple, key func(relation.Tuple) string, met *Metrics) *Map[BucketVal] {
	if len(novel) == 0 {
		return b
	}
	byKey := make(map[string][]relation.Tuple)
	for _, t := range novel {
		k := key(t)
		byKey[k] = append(byKey[k], t)
	}
	set := make(map[string]BucketVal, len(byKey))
	for k, add := range byKey {
		old, _ := b.Get(k)
		set[k] = BucketVal{chain: &Bucket{prev: old.chain, tuples: add}, n: old.n + len(add), dead: old.dead}
	}
	return b.Derive(set, nil, met)
}

// BucketsRemove derives the bucket index with the died tuples lazily
// removed from their key groups: the stale count advances in O(1) per key.
// A bucket whose live count reaches zero is dropped immediately — also
// O(1), without walking the chain — and a bucket whose chain has become
// half stale is compacted, rebuilt from the live tuples (those alive still
// recognizes, deduplicated), amortizing the rebuild over the removals that
// provoked it.
func BucketsRemove(b *Map[BucketVal], died []relation.Tuple, key func(relation.Tuple) string, alive func(string) bool, met *Metrics) *Map[BucketVal] {
	if len(died) == 0 {
		return b
	}
	byKey := make(map[string]int)
	for _, t := range died {
		byKey[key(t)]++
	}
	set := make(map[string]BucketVal, len(byKey))
	dead := make(map[string]struct{})
	for k, removed := range byKey {
		old, ok := b.Get(k)
		if !ok {
			continue
		}
		nv := BucketVal{chain: old.chain, n: old.n, dead: old.dead + removed}
		if nv.Live() <= 0 {
			dead[k] = struct{}{}
			continue
		}
		if nv.dead*2 >= nv.n {
			seen := make(map[string]bool, nv.Live())
			var kept []relation.Tuple
			nv.chain.Each(func(t relation.Tuple) bool {
				tk := t.Key()
				if !seen[tk] && alive(tk) {
					seen[tk] = true
					kept = append(kept, t)
				}
				return true
			})
			if len(kept) == 0 {
				dead[k] = struct{}{}
				continue
			}
			nv = BucketVal{chain: &Bucket{tuples: kept}, n: len(kept)}
		}
		set[k] = nv
	}
	return b.Derive(set, dead, met)
}
