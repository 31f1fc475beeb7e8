package deletion

import (
	"errors"
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

func TestViewExactGroup(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	targets := []relation.Tuple{
		relation.StringTuple("john", "f1"),
		relation.StringTuple("john", "f2"),
	}
	res, err := ViewExactGroupBasis(basisOf(t, q, db), targets, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting john's two memberships removes both targets and nothing
	// else (mary's pairs survive via her own membership).
	if !res.SideEffectFree() {
		t.Errorf("expected free group deletion, got %v (T=%v)", res.SideEffects, res.T)
	}
	// Verify by re-evaluation: both targets gone, mary intact.
	after := algebra.MustEval(q, db.DeleteAll(res.T))
	for _, target := range targets {
		if after.Contains(target) {
			t.Errorf("target %v survived", target)
		}
	}
	if !after.Contains(relation.StringTuple("mary", "f1")) || !after.Contains(relation.StringTuple("mary", "f2")) {
		t.Errorf("mary's rows must survive: %v", after)
	}
}

func TestViewExactGroupDedupsTargets(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	res, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{
		relation.StringTuple("john", "f2"),
		relation.StringTuple("john", "f2"),
	}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() {
		t.Errorf("single-target group must match single-target result: %v", res.SideEffects)
	}
}

func TestGroupMissingTarget(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	_, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("no", "pe")}, ViewOptions{})
	if !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
	_, err = SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{relation.StringTuple("no", "pe")})
	if !errors.Is(err, ErrNotInView) {
		t.Errorf("expected ErrNotInView, got %v", err)
	}
}

func TestSourceExactGroup(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	targets := []relation.Tuple{
		relation.StringTuple("john", "f1"),
		relation.StringTuple("john", "f2"),
	}
	res, err := SourceExactGroupBasis(basisOf(t, q, db), targets)
	if err != nil {
		t.Fatal(err)
	}
	// Both john memberships must go: (john,f1) has disjoint witnesses via
	// staff and admin, so 2 deletions minimum; those two also kill
	// (john,f2).
	if len(res.T) != 2 {
		t.Errorf("group min deletion=%d want 2 (T=%v)", len(res.T), res.T)
	}
	after := algebra.MustEval(q, db.DeleteAll(res.T))
	for _, target := range targets {
		if after.Contains(target) {
			t.Errorf("target %v survived", target)
		}
	}
}

// Group of size 1 must agree with the single-target solvers.
func TestGroupDegeneratesToSingle(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	target := relation.StringTuple("john", "f1")

	g, err := SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SourceExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.T) != len(s.T) {
		t.Errorf("group=%d single=%d", len(g.T), len(s.T))
	}

	gv, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := ViewExactGroupBasis(basisOf(t, q, db), []relation.Tuple{target}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gv.SideEffects) != len(sv.SideEffects) {
		t.Errorf("group effects=%d single=%d", len(gv.SideEffects), len(sv.SideEffects))
	}
}

// Deleting the whole view is always possible and has zero side-effects by
// definition (no non-target tuples remain to protect).
func TestGroupWholeView(t *testing.T) {
	db := userGroupDB()
	q := userFileQuery()
	view := algebra.MustEval(q, db)
	res, err := ViewExactGroupBasis(basisOf(t, q, db), view.Tuples(), ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SideEffectFree() {
		t.Error("whole-view deletion has no possible side-effects")
	}
	after := algebra.MustEval(q, db.DeleteAll(res.T))
	if after.Len() != 0 {
		t.Errorf("view must be empty after whole-view deletion, has %d", after.Len())
	}
}
