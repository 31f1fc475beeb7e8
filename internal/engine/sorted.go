package engine

import (
	"slices"

	"repro/internal/relation"
)

// sortTuples sorts a view's rows from scratch; a package variable so
// engine tests can count full sorts.
var sortTuples = (*relation.Relation).SortedTuples

// sortLog is the sorted rows of an older generation of a view plus the
// view deltas committed since, which merged into them give this
// generation's sorted rows.
type sortLog struct {
	base []relation.Tuple
	last *sortWrite
}

// sortWrite is one committed write's view delta (provenance.Result.
// ViewDelta) that sorted rows have yet to take in. Writes link
// newest-first, so a commit extends a snapshot's pending log in O(1).
type sortWrite struct {
	prev        *sortWrite
	died, added []relation.Tuple
	// n is the number of rows pending up to and including this write.
	n int
}

// extend returns the log of a generation whose view rows are those of a
// generation with sorted rows sp (nil if not built) and pending log lg
// (nil if none), minus died plus added. It returns nil — the next read
// sorts from scratch — when there is no base to catch up from, or once
// the pending rows outnumber the base's. O(1): it only links.
func (lg *sortLog) extend(sp *[]relation.Tuple, died, added []relation.Tuple) *sortLog {
	var next sortLog
	switch {
	case sp != nil:
		next.base = *sp
	case lg != nil:
		next = *lg
	default:
		return nil
	}
	n := len(died) + len(added)
	if next.last != nil {
		n += next.last.n
	}
	if n > len(next.base) {
		return nil
	}
	next.last = &sortWrite{prev: next.last, died: died, added: added, n: n}
	return &next
}

// replay returns the log's base with its pending writes taken in. The
// writes are netted by row first (net), so a row deleted and then
// restored costs nothing further; a net-empty log yields the base itself,
// which is immutable and so may be shared, and any other net delta is
// merged into a fresh copy of the base in one pass (mergeSorted). The
// base, which older snapshots may share, is never modified. ok is false
// when the deltas do not fit the base, which maintenance rules out; the
// caller then sorts from scratch.
func (lg *sortLog) replay() (rows []relation.Tuple, ok bool) {
	died, added := lg.net()
	if len(died)+len(added) == 0 {
		return lg.base, true
	}
	return mergeSorted(lg.base, died, added)
}

// net returns the rows the base holds and this generation does not
// (died) and the reverse (added), in order of first mention. A row's
// first mention tells whether the base holds it (it was removed) and its
// last whether this generation does (it was added); the order never
// depends on map iteration.
func (lg *sortLog) net() (died, added []relation.Tuple) {
	var writes []*sortWrite
	for w := lg.last; w != nil; w = w.prev {
		writes = append(writes, w)
	}
	type netRow struct{ inBase, inView bool }
	rows := make(map[string]netRow, lg.last.n)
	var order []relation.Tuple
	var keys []string
	mention := func(t relation.Tuple, present bool) {
		k := t.Key()
		if r, seen := rows[k]; seen {
			r.inView = present
			rows[k] = r
			return
		}
		rows[k] = netRow{inBase: !present, inView: present}
		order = append(order, t)
		keys = append(keys, k)
	}
	for i := len(writes) - 1; i >= 0; i-- {
		for _, t := range writes[i].died {
			mention(t, false)
		}
		for _, t := range writes[i].added {
			mention(t, true)
		}
	}
	for i, t := range order {
		switch r := rows[keys[i]]; {
		case r.inBase && !r.inView:
			died = append(died, t)
		case !r.inBase && r.inView:
			added = append(added, t)
		}
	}
	return died, added
}

// mergeSorted returns a fresh slice holding the sorted rows base without
// the rows died and with the rows added, in Tuple.Compare order; died and
// added are sorted in place. Each died row is found in base by binary
// search and each added row's place likewise, and the base runs between
// those places are copied whole: O(n + k log n) for n base rows and k
// delta rows, against O(n log n) comparisons for a fresh sort. ok is false
// when a died row is missing from base or an added row already in it.
func mergeSorted(base, died, added []relation.Tuple) (rows []relation.Tuple, ok bool) {
	slices.SortFunc(died, relation.Tuple.Compare)
	slices.SortFunc(added, relation.Tuple.Compare)
	out := make([]relation.Tuple, 0, max(len(base)-len(died), 0)+len(added))
	for len(died) > 0 || len(added) > 0 {
		if len(added) == 0 || (len(died) > 0 && died[0].Compare(added[0]) < 0) {
			j, found := slices.BinarySearchFunc(base, died[0], relation.Tuple.Compare)
			if !found {
				return nil, false
			}
			out = append(out, base[:j]...)
			base, died = base[j+1:], died[1:]
			continue
		}
		j, found := slices.BinarySearchFunc(base, added[0], relation.Tuple.Compare)
		if found {
			return nil, false
		}
		out = append(out, base[:j]...)
		out = append(out, added[0])
		base, added = base[j:], added[1:]
	}
	return append(out, base...), true
}
