package annotation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// The paper's introduction describes the deployment model this file
// implements: annotators "may not have update privileges to the database
// so that annotations have to be stored in a separate database", and the
// loose form of annotation "may allow annotations on annotations". A
// Store is that separate database — annotation values keyed by source
// location, each with an id so later annotations can target earlier ones
// — plus the machinery to materialize an annotated view: evaluate a query
// and report which annotations surface on which view cells under the §3
// propagation rules.

// Annotation is one stored annotation.
type Annotation struct {
	// ID is the store-assigned identity (1-based).
	ID int
	// Target is the annotated source location.
	Target relation.Location
	// Text is the annotation content.
	Text string
	// Parent is the ID of the annotation this one annotates (0 = none):
	// the "annotations on annotations" of §1.
	Parent int
	// Author is free-form attribution.
	Author string
}

// String renders the annotation compactly.
func (a Annotation) String() string {
	s := fmt.Sprintf("#%d %v: %q", a.ID, a.Target, a.Text)
	if a.Parent != 0 {
		s += fmt.Sprintf(" (on #%d)", a.Parent)
	}
	if a.Author != "" {
		s += " — " + a.Author
	}
	return s
}

// Store holds annotations separately from the data, keyed by location.
type Store struct {
	byID  map[int]Annotation
	byLoc map[string][]int
	next  int
}

// NewStore creates an empty annotation store.
func NewStore() *Store {
	return &Store{byID: make(map[int]Annotation), byLoc: make(map[string][]int), next: 1}
}

// Len returns the number of stored annotations.
func (s *Store) Len() int { return len(s.byID) }

// Annotate records an annotation on a source location and returns its id.
func (s *Store) Annotate(target relation.Location, text, author string) int {
	a := Annotation{ID: s.next, Target: target, Text: text, Author: author}
	s.next++
	s.byID[a.ID] = a
	s.byLoc[target.Key()] = append(s.byLoc[target.Key()], a.ID)
	return a.ID
}

// Reply records an annotation on an existing annotation (it inherits the
// parent's location so it propagates with it).
func (s *Store) Reply(parent int, text, author string) (int, error) {
	p, ok := s.byID[parent]
	if !ok {
		return 0, fmt.Errorf("annotation: no annotation #%d", parent)
	}
	a := Annotation{ID: s.next, Target: p.Target, Text: text, Parent: parent, Author: author}
	s.next++
	s.byID[a.ID] = a
	s.byLoc[a.Target.Key()] = append(s.byLoc[a.Target.Key()], a.ID)
	return a.ID, nil
}

// Get retrieves an annotation by id.
func (s *Store) Get(id int) (Annotation, bool) {
	a, ok := s.byID[id]
	return a, ok
}

// At returns the annotations stored on a location, in id order.
func (s *Store) At(loc relation.Location) []Annotation {
	ids := s.byLoc[loc.Key()]
	out := make([]Annotation, len(ids))
	for i, id := range ids {
		out[i] = s.byID[id]
	}
	return out
}

// Thread returns an annotation and its transitive replies, depth-first in
// id order.
func (s *Store) Thread(root int) []Annotation {
	children := make(map[int][]int)
	for _, a := range s.byID {
		if a.Parent != 0 {
			children[a.Parent] = append(children[a.Parent], a.ID)
		}
	}
	for _, c := range children {
		sort.Ints(c)
	}
	var out []Annotation
	var walk func(int)
	walk = func(id int) {
		a, ok := s.byID[id]
		if !ok {
			return
		}
		out = append(out, a)
		for _, c := range children[id] {
			walk(c)
		}
	}
	walk(root)
	return out
}

// AnnotatedCell is one view cell with the annotations that surfaced on it.
type AnnotatedCell struct {
	Location    relation.Location
	Annotations []Annotation
}

// AnnotatedView is a materialized view with annotations propagated from
// the store under the §3 forward rules.
type AnnotatedView struct {
	View *relation.Relation
	// cells maps view location keys to surfaced annotations.
	cells map[string]*AnnotatedCell
}

// Cell returns the annotations visible at view location (t, attr).
func (av *AnnotatedView) Cell(t relation.Tuple, attr relation.Attribute) []Annotation {
	c := av.cells[relation.Loc(av.View.Name(), t, attr).Key()]
	if c == nil {
		return nil
	}
	return c.Annotations
}

// AnnotatedCells returns every view cell that carries at least one
// annotation, in deterministic order.
func (av *AnnotatedView) AnnotatedCells() []AnnotatedCell {
	keys := make([]string, 0, len(av.cells))
	for k := range av.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]AnnotatedCell, 0, len(keys))
	for _, k := range keys {
		out = append(out, *av.cells[k])
	}
	return out
}

// Render draws the annotated view: the table followed by one line per
// annotated cell.
func (av *AnnotatedView) Render() string {
	var b strings.Builder
	b.WriteString(av.View.Table())
	for _, c := range av.AnnotatedCells() {
		fmt.Fprintf(&b, "  %v:\n", c.Location)
		for _, a := range c.Annotations {
			fmt.Fprintf(&b, "    %v\n", a)
		}
	}
	return b.String()
}

// Materialize evaluates q over db and propagates every stored annotation
// to the view, using one where-provenance pass.
func (s *Store) Materialize(q algebra.Query, db *relation.Database) (*AnnotatedView, error) {
	wv, err := ComputeWhere(q, db)
	if err != nil {
		return nil, err
	}
	av := &AnnotatedView{View: wv.View, cells: make(map[string]*AnnotatedCell)}
	attrs := wv.View.Schema().Attrs()
	for _, t := range wv.View.Tuples() {
		sets := wv.setsOf(t.Key())
		for pos, set := range sets {
			var anns []Annotation
			for _, id := range set {
				srcLoc := wv.in.loc(id)
				for _, aid := range s.byLoc[srcLoc.Key()] {
					anns = append(anns, s.byID[aid])
				}
			}
			if len(anns) == 0 {
				continue
			}
			sort.Slice(anns, func(i, j int) bool { return anns[i].ID < anns[j].ID })
			loc := relation.Loc(wv.View.Name(), t, attrs[pos])
			av.cells[loc.Key()] = &AnnotatedCell{Location: loc, Annotations: anns}
		}
	}
	return av, nil
}

// PlaceAndStore runs the placement optimizer for a view location and, on
// success, records the annotation at the chosen source location. It
// returns the placement and the new annotation id.
func (s *Store) PlaceAndStore(q algebra.Query, db *relation.Database, t relation.Tuple, attr relation.Attribute, text, author string) (*Placement, int, error) {
	p, err := Place(q, db, t, attr)
	if err != nil {
		return nil, 0, err
	}
	id := s.Annotate(p.Source, text, author)
	return p, id, nil
}
