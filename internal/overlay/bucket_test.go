package overlay

import (
	"strconv"
	"testing"

	"repro/internal/relation"
)

func tupKey(t relation.Tuple) string { return t.Key() }

// liveSet builds the alive predicate from the keys currently considered
// live, and returns it with the set for mutation.
func liveSet(keys ...string) (map[string]bool, func(string) bool) {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m, func(k string) bool { return m[k] }
}

func bucketOf(t *testing.T, b *Map[BucketVal], key string) BucketVal {
	t.Helper()
	bv, ok := b.Get(key)
	if !ok {
		t.Fatalf("bucket %q missing", key)
	}
	return bv
}

// TestEachLiveYieldsExactlyLive asserts that a probe of a lazily-churned
// bucket yields exactly the live tuples — stale chain entries are
// recognized and skipped, never emitted.
func TestEachLiveYieldsExactlyLive(t *testing.T) {
	r := relation.New("R", relation.NewSchema("A"))
	// A constant bucket key models a hub join key holding every tuple in
	// one chain.
	for i := 0; i < 102; i++ {
		r.InsertStrings("v" + strconv.Itoa(i))
	}
	hub := func(relation.Tuple) string { return "hub" }
	b := BucketsAdd(NewBuckets(nil), r.Tuples(), hub, nil)

	// Kill v2..v50 (49 of 102: below the half-stale bound, so the chain
	// keeps the stale entries and only the counts move).
	m, aliveFn := liveSet()
	for i := 0; i < 102; i++ {
		m[relation.StringTuple("v"+strconv.Itoa(i)).Key()] = i < 2 || i > 50
	}
	var died []relation.Tuple
	for i := 2; i <= 50; i++ {
		died = append(died, relation.StringTuple("v"+strconv.Itoa(i)))
	}
	b2 := BucketsRemove(b, died, hub, aliveFn, nil)

	bv := bucketOf(t, b2, "hub")
	if bv.Live() != 53 {
		t.Fatalf("Live() = %d, want 53", bv.Live())
	}
	visited := 0
	bv.EachLive(aliveFn, func(tu relation.Tuple, _ string) bool {
		if !aliveFn(tu.Key()) {
			t.Fatalf("EachLive yielded stale tuple %v", tu)
		}
		visited++
		return true
	})
	if visited != 53 {
		t.Fatalf("EachLive yielded %d tuples, want 53", visited)
	}
}

// TestEachLiveEarlyExitBound asserts the probe-cost contract directly: on
// a bucket whose live tuples sit at the front of the chain, EachLive never
// reaches the stale tail.
func TestEachLiveEarlyExitBound(t *testing.T) {
	hub := func(relation.Tuple) string { return "hub" }
	r := relation.New("R", relation.NewSchema("A"))
	// 101 tuples that stay live, then 100 that die: the live prefix sits at
	// the front of the chain, the stale tail behind it.
	for i := 0; i < 201; i++ {
		r.InsertStrings("v" + strconv.Itoa(i))
	}
	b := BucketsAdd(NewBuckets(nil), r.Tuples(), hub, nil)

	var died []relation.Tuple
	m, aliveFn := liveSet()
	for i := 0; i < 201; i++ {
		k := relation.StringTuple("v" + strconv.Itoa(i)).Key()
		if i < 101 {
			m[k] = true
		} else {
			died = append(died, relation.StringTuple("v"+strconv.Itoa(i)))
		}
	}
	b = BucketsRemove(b, died, hub, aliveFn, nil) // 100 dead of 201: stays lazy

	bv := bucketOf(t, b, "hub")
	if bv.Live() != 101 {
		t.Fatalf("Live() = %d, want 101", bv.Live())
	}
	walked := 0
	bv.EachLive(func(k string) bool { walked++; return aliveFn(k) }, func(relation.Tuple, string) bool { return true })
	// The live count runs out at the 101st entry; the 100-entry stale tail
	// is never visited.
	if walked != 101 {
		t.Fatalf("probe walked %d chain entries for a front-loaded bucket, want 101", walked)
	}
}

// TestEachLiveReAddedKeyYieldsOnce covers the re-add hazard: a key removed
// and re-added appears twice in the chain with a net live count of one;
// the probe must yield it exactly once and still terminate on the count.
func TestEachLiveReAddedKeyYieldsOnce(t *testing.T) {
	hub := func(relation.Tuple) string { return "hub" }
	r := relation.New("R", relation.NewSchema("A"))
	r.InsertStrings("x")
	r.InsertStrings("y")
	b := BucketsAdd(NewBuckets(nil), r.Tuples(), hub, nil)

	x := relation.StringTuple("x")
	m, aliveFn := liveSet(x.Key(), relation.StringTuple("y").Key())

	// Remove x (lazily: 1 dead of 2 → triggers half-stale compaction; so
	// first grow the bucket to keep it lazy).
	b = BucketsAdd(b, []relation.Tuple{relation.StringTuple("z1"), relation.StringTuple("z2"), relation.StringTuple("z3")}, hub, nil)
	m[relation.StringTuple("z1").Key()] = true
	m[relation.StringTuple("z2").Key()] = true
	m[relation.StringTuple("z3").Key()] = true
	m[x.Key()] = false
	b = BucketsRemove(b, []relation.Tuple{x}, hub, aliveFn, nil)

	// Re-add x: chain now holds x twice, live count nets to one copy each
	// for x, y, z1..z3.
	m[x.Key()] = true
	b = BucketsAdd(b, []relation.Tuple{x}, hub, nil)

	bv := bucketOf(t, b, "hub")
	if bv.Live() != 5 {
		t.Fatalf("Live() = %d, want 5", bv.Live())
	}
	seen := map[string]int{}
	ok := bv.EachLive(aliveFn, func(tu relation.Tuple, _ string) bool {
		seen[tu.Key()]++
		return true
	})
	if !ok {
		t.Fatal("EachLive reported early stop")
	}
	total := 0
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %q yielded %d times", k, n)
		}
		total++
	}
	if total != 5 {
		t.Fatalf("EachLive yielded %d distinct keys, want 5", total)
	}
}

// TestBucketsRemoveDropsEmptyInO1 asserts the all-stale fast path: when
// removals bring a bucket's live count to zero, the bucket is dropped
// without the compaction pass ever touching the chain (the alive predicate
// is never consulted).
func TestBucketsRemoveDropsEmptyInO1(t *testing.T) {
	hub := func(relation.Tuple) string { return "hub" }
	r := relation.New("R", relation.NewSchema("A"))
	var died []relation.Tuple
	for i := 0; i < 50; i++ {
		r.InsertStrings("v" + strconv.Itoa(i))
		died = append(died, relation.StringTuple("v"+strconv.Itoa(i)))
	}
	b := BucketsAdd(NewBuckets(nil), r.Tuples(), hub, nil)

	probes := 0
	b = BucketsRemove(b, died, hub, func(string) bool { probes++; return false }, nil)
	if probes != 0 {
		t.Fatalf("empty-bucket drop consulted the alive predicate %d times, want 0", probes)
	}
	if _, ok := b.Get("hub"); ok {
		t.Fatal("all-stale bucket still present")
	}
}
