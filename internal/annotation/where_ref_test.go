package annotation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// The where reference: the paper's forward propagation rules evaluated
// naively on plain Go maps. It shares no code with ComputeWhere, the
// annotated tree's step, the overlay maps or the location interner, so a
// differential against it does not compare the index with itself.

// refRel is one operator's output in the reference: its attributes and,
// per row key, the row with one where-set of location keys per attribute.
type refRel struct {
	attrs []relation.Attribute
	rows  map[string]refRow
}

type refRow struct {
	t     relation.Tuple
	where []map[string]bool
}

func attrIndex(attrs []relation.Attribute, a relation.Attribute) int {
	for i, b := range attrs {
		if a == b {
			return i
		}
	}
	return -1
}

// newRefRow starts a row of t with empty where-sets.
func newRefRow(t relation.Tuple) refRow {
	row := refRow{t: t, where: make([]map[string]bool, len(t))}
	for i := range row.where {
		row.where[i] = make(map[string]bool)
	}
	return row
}

func addAll(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

// refWhere evaluates q over db, carrying every source location to the
// view locations the propagation rules send it to.
func refWhere(q algebra.Query, db *relation.Database) refRel {
	switch q := q.(type) {
	case algebra.Scan:
		// A source location (R, t, A) annotates itself.
		r := db.Relation(q.Rel)
		out := refRel{attrs: r.Schema().Attrs(), rows: make(map[string]refRow)}
		for _, t := range r.Tuples() {
			row := newRefRow(t)
			for i, a := range out.attrs {
				row.where[i][relation.Loc(q.Rel, t, a).Key()] = true
			}
			out.rows[t.Key()] = row
		}
		return out

	case algebra.Select:
		// (R,t',A) → (σ_C(R),t,A) if t = t'.
		in := refWhere(q.Child, db)
		sch := relation.NewSchema(in.attrs...)
		out := refRel{attrs: in.attrs, rows: make(map[string]refRow)}
		for k, row := range in.rows {
			if q.Cond.Holds(sch, row.t) {
				out.rows[k] = row
			}
		}
		return out

	case algebra.Project:
		// (R,t',A) → (Π_B(R),t,A) if A ∈ B and t'.B = t.
		in := refWhere(q.Child, db)
		out := refRel{attrs: q.Attrs, rows: make(map[string]refRow)}
		for _, row := range in.rows {
			pt := make(relation.Tuple, len(q.Attrs))
			for i, a := range q.Attrs {
				pt[i] = row.t[attrIndex(in.attrs, a)]
			}
			o, ok := out.rows[pt.Key()]
			if !ok {
				o = newRefRow(pt)
				out.rows[pt.Key()] = o
			}
			for i, a := range q.Attrs {
				addAll(o.where[i], row.where[attrIndex(in.attrs, a)])
			}
		}
		return out

	case algebra.Join:
		// (R1,t1,A) → (R1⋈R2,t,A) if t.R1 = t1, and symmetrically for R2:
		// a common attribute collects both sides' locations.
		l, r := refWhere(q.Left, db), refWhere(q.Right, db)
		out := refRel{attrs: append([]relation.Attribute(nil), l.attrs...), rows: make(map[string]refRow)}
		var extra []int
		for j, a := range r.attrs {
			if attrIndex(l.attrs, a) < 0 {
				out.attrs = append(out.attrs, a)
				extra = append(extra, j)
			}
		}
		for _, lrow := range l.rows {
			for _, rrow := range r.rows {
				agree := true
				for j, a := range r.attrs {
					if i := attrIndex(l.attrs, a); i >= 0 && !lrow.t[i].Equal(rrow.t[j]) {
						agree = false
					}
				}
				if !agree {
					continue
				}
				t := append(relation.Tuple(nil), lrow.t...)
				for _, j := range extra {
					t = append(t, rrow.t[j])
				}
				o := newRefRow(t)
				for i, a := range out.attrs {
					if li := attrIndex(l.attrs, a); li >= 0 {
						addAll(o.where[i], lrow.where[li])
					}
					if ri := attrIndex(r.attrs, a); ri >= 0 {
						addAll(o.where[i], rrow.where[ri])
					}
				}
				out.rows[t.Key()] = o
			}
		}
		return out

	case algebra.Union:
		// (R1,t1,A) → (R1∪R2,t,A) if t = t1, and symmetrically for R2,
		// whose rows are aligned to the left attribute order first.
		l, r := refWhere(q.Left, db), refWhere(q.Right, db)
		out := refRel{attrs: l.attrs, rows: make(map[string]refRow)}
		merge := func(t relation.Tuple, where func(i int) map[string]bool) {
			o, ok := out.rows[t.Key()]
			if !ok {
				o = newRefRow(t)
				out.rows[t.Key()] = o
			}
			for i := range out.attrs {
				addAll(o.where[i], where(i))
			}
		}
		for _, row := range l.rows {
			merge(row.t, func(i int) map[string]bool { return row.where[i] })
		}
		for _, row := range r.rows {
			t := make(relation.Tuple, len(l.attrs))
			for i, a := range l.attrs {
				t[i] = row.t[attrIndex(r.attrs, a)]
			}
			merge(t, func(i int) map[string]bool { return row.where[attrIndex(r.attrs, l.attrs[i])] })
		}
		return out

	case algebra.Rename:
		// (R,t,A) → (δ_θ(R),t',θ(A)) if t' = t.
		in := refWhere(q.Child, db)
		out := refRel{attrs: make([]relation.Attribute, len(in.attrs)), rows: in.rows}
		for i, a := range in.attrs {
			out.attrs[i] = a
			if b, ok := q.Theta[a]; ok {
				out.attrs[i] = b
			}
		}
		return out
	}
	panic(fmt.Sprintf("refWhere: unknown query node %T", q))
}

// refFingerprint renders the reference's view of q over db in
// whereFingerprint's format.
func refFingerprint(q algebra.Query, db *relation.Database) string {
	ref := refWhere(q, db)
	var lines []string
	for _, row := range ref.rows {
		for i, a := range ref.attrs {
			keys := make([]string, 0, len(row.where[i]))
			for k := range row.where[i] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			lines = append(lines, fmt.Sprintf("%s.%s={%s}", row.t.Key(), a, strings.Join(keys, ",")))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
