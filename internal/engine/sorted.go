package engine

import (
	"slices"

	"repro/internal/provenance"
	"repro/internal/relation"
)

// sortTuples sorts a view's rows from scratch; a package variable so
// engine tests can count full sorts.
var sortTuples = (*relation.Relation).SortedTuples

// sortedLen sizes a sorted-rows base for the log's drop rule.
func sortedLen(rows *[]relation.Tuple) int { return len(*rows) }

// replaySorted returns the base sorted rows with the pending view deltas
// taken in. The deltas are netted by row first (netDeltas), so a row
// deleted and then restored costs nothing further; a net-empty log yields
// the base itself, which is immutable and so may be shared, and any other
// net delta is merged into a fresh copy of the base in one pass
// (mergeSorted). The base, which older snapshots may share, is never
// modified. ok is false when the deltas do not fit the base, which
// maintenance rules out; the read then sorts from scratch.
func replaySorted(base *[]relation.Tuple, ws []provenance.Delta) (rows *[]relation.Tuple, ok bool) {
	died, added := netDeltas(ws)
	if len(died)+len(added) == 0 {
		return base, true
	}
	merged, ok := mergeSorted(*base, died, added)
	return &merged, ok
}

// netDeltas returns the rows the base holds and the generation after the
// view deltas ws (oldest first) does not (died), and the reverse (added),
// in order of first mention. A row's first mention tells whether the base
// holds it (it was removed) and its last whether the generation does (it
// was added); the order never depends on map iteration. Rows are matched
// by the keys the deltas carry.
func netDeltas(ws []provenance.Delta) (died, added []relation.Tuple) {
	type netRow struct{ inBase, inView bool }
	n := 0
	for _, w := range ws {
		n += len(w.Died) + len(w.Added)
	}
	// Sized up front: grown by append, the two slices allocate once per
	// doubling, and on hub-write those allocations took about a fifth of
	// a page read's median.
	rows := make(map[string]netRow, n)
	order := make([]relation.Tuple, 0, n)
	keys := make([]string, 0, n)
	mention := func(t relation.Tuple, k string, present bool) {
		if r, seen := rows[k]; seen {
			r.inView = present
			rows[k] = r
			return
		}
		rows[k] = netRow{inBase: !present, inView: present}
		order = append(order, t)
		keys = append(keys, k)
	}
	for _, w := range ws {
		for i, t := range w.Died {
			mention(t, w.DiedKeys[i], false)
		}
		for i, t := range w.Added {
			mention(t, w.AddedKeys[i], true)
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
