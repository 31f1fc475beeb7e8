package annotation

import "repro/internal/annotree"

// Reach counts: for every interned source location, the number of view
// locations its annotation reaches — |Affected(src)|, the quantity the
// placement problem minimizes. Every step, the build's insertion from the
// empty instance included, adjusts only the ids in the root's died,
// changed and added entries, so placement reads a candidate's count in
// O(1) instead of walking the view.

// reachChunk is the number of counters per copy-on-write chunk.
const reachChunk = 256

// reach is one generation's counters: a spine of fixed-size chunks. A
// derive copies the spine and the chunks it touches and shares every
// other chunk with the generation it came from, so a step costs
// O(#ids/reachChunk + touched chunks · reachChunk), never O(#ids).
type reach struct {
	chunks []*[reachChunk]int32
}

// get returns the count of id (0 for an id interned after this
// generation's last derive).
func (r *reach) get(id int32) int32 {
	c := int(id) / reachChunk
	if c >= len(r.chunks) || r.chunks[c] == nil {
		return 0
	}
	return r.chunks[c][int(id)%reachChunk]
}

// reachAdj is one counter adjustment.
type reachAdj struct {
	id int32
	d  int32
}

// derive returns the generation with adjs applied; the receiver is
// unchanged.
func (r *reach) derive(adjs []reachAdj) *reach {
	if len(adjs) == 0 {
		return r
	}
	n := len(r.chunks)
	for _, a := range adjs {
		if c := int(a.id)/reachChunk + 1; c > n {
			n = c
		}
	}
	out := &reach{chunks: make([]*[reachChunk]int32, n)}
	copy(out.chunks, r.chunks)
	fresh := make(map[int]bool)
	for _, a := range adjs {
		c := int(a.id) / reachChunk
		if !fresh[c] {
			fresh[c] = true
			chunk := new([reachChunk]int32)
			if old := out.chunks[c]; old != nil {
				*chunk = *old
			}
			out.chunks[c] = chunk
		}
		out.chunks[c][int(a.id)%reachChunk] += a.d
	}
	return out
}

// reachDelta lists the counter adjustments of one root step: every id in
// a died row loses one per position holding it, every id in an added row
// gains one, and a changed row trades its old sets for its new.
func reachDelta(rows []annotree.Row[[]locSet], old func(k string) []locSet) []reachAdj {
	var adjs []reachAdj
	add := func(sets []locSet, sign int32) {
		for _, set := range sets {
			for _, id := range set {
				adjs = append(adjs, reachAdj{id: id, d: sign})
			}
		}
	}
	for _, r := range rows {
		switch r.S {
		case annotree.Died:
			add(r.A, -1)
		case annotree.Added:
			add(r.A, 1)
		case annotree.Changed:
			add(old(r.K), -1)
			add(r.A, 1)
		}
	}
	return adjs
}
