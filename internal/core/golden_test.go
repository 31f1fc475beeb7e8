package core

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/deletion"
	"repro/internal/provenance"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/setcover"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenInstance is one database and query the corpus deletes from.
type goldenInstance struct {
	name string
	db   *relation.Database
	q    algebra.Query
}

// goldenInstances covers every route of Delete: SPU, SJ, key joins with
// unique witnesses, chains, and non-chain PJ and JU queries.
func goldenInstances() []goldenInstance {
	var out []goldenInstance
	add := func(name string, db *relation.Database, q algebra.Query) {
		out = append(out, goldenInstance{name, db, q})
	}
	for seed := int64(1); seed <= 3; seed++ {
		db, q := workload.SPU(rand.New(rand.NewSource(seed)), 3, 24, 5)
		add(fmt.Sprintf("SPU seed %d", seed), db, q)
	}
	for seed := int64(1); seed <= 3; seed++ {
		db, q := workload.SJ(rand.New(rand.NewSource(seed)), 16, 4)
		add(fmt.Sprintf("SJ seed %d", seed), db, q)
	}
	for seed := int64(1); seed <= 3; seed++ {
		db, q := workload.Curation(rand.New(rand.NewSource(seed)), 6, 3)
		add(fmt.Sprintf("Curation seed %d", seed), db, q)
	}
	for seed := int64(0); seed < 5; seed++ {
		db, q := workload.UserGroupFile(rand.New(rand.NewSource(seed)), 8, 4, 6, 2, 2)
		add(fmt.Sprintf("UserGroupFile seed %d", seed), db, q)
	}
	for seed := int64(0); seed < 3; seed++ {
		db, q := workload.UserGroupFile(rand.New(rand.NewSource(seed)), 6, 6, 6, 1, 1)
		add(fmt.Sprintf("UserGroupFile single-share seed %d", seed), db, q)
	}
	for k := 2; k <= 4; k++ {
		db, q := workload.Chain(rand.New(rand.NewSource(int64(k))), k, 8, 3)
		add(fmt.Sprintf("Chain k=%d", k), db, q)
	}
	for seed := int64(1); seed <= 3; seed++ {
		db, q := workload.TwoRelationPJ(rand.New(rand.NewSource(seed)), 8, 3)
		add(fmt.Sprintf("TwoRelationPJ seed %d", seed), db, q)
	}
	{
		r := rand.New(rand.NewSource(4))
		db := relation.NewDatabase()
		for _, rel := range []struct {
			name   string
			a1, a2 relation.Attribute
		}{{"P", "A", "B"}, {"Q", "B", "C"}, {"W", "B", "D"}} {
			t := relation.New(rel.name, relation.NewSchema(rel.a1, rel.a2))
			for i := 0; i < 8; i++ {
				t.Insert(relation.NewTuple(relation.Int(int64(r.Intn(2))), relation.Int(int64(r.Intn(2)))))
			}
			db.MustAdd(t)
		}
		add("triangle PJ", db, algebra.Pi([]relation.Attribute{"A", "C"},
			algebra.NatJoin(algebra.R("P"), algebra.R("Q"), algebra.R("W"))))
	}
	f1 := reduction.Figure1()
	add("Figure 1 (PJ)", f1.DB, f1.Query)
	f2 := reduction.Figure2()
	add("Figure 2 (JU)", f2.DB, f2.Query)
	f3 := reduction.Figure3()
	add("Figure 3 (PJ)", f3.DB, f3.Query)
	ju, err := reduction.EncodeSourceJU(setcover.MustInstance(4, []int{0, 1}, []int{1, 2}, []int{2, 3}))
	if err != nil {
		panic(err)
	}
	add("source JU", ju.DB, ju.Query)
	return out
}

// goldenTargets picks the first, middle and last view tuples.
func goldenTargets(q algebra.Query, db *relation.Database) []relation.Tuple {
	view := algebra.MustEval(q, db)
	n := view.Len()
	if n == 0 {
		return nil
	}
	idx := []int{0}
	if n > 2 {
		idx = append(idx, n/2)
	}
	if n > 1 {
		idx = append(idx, n-1)
	}
	out := make([]relation.Tuple, len(idx))
	for i, j := range idx {
		out[i] = view.Tuple(j)
	}
	return out
}

// writeReport renders a report, or the sentinel an error matches.
func writeReport(b *strings.Builder, rep *DeleteReport, err error) {
	switch {
	case errors.Is(err, deletion.ErrNotInView):
		b.WriteString("  error: not in view\n")
		return
	case errors.Is(err, provenance.ErrLimit):
		b.WriteString("  error: witness limit\n")
		return
	case err != nil:
		fmt.Fprintf(b, "  error: %v\n", err)
		return
	}
	fmt.Fprintf(b, "  class=%s fragment=%s exact=%v\n  algorithm: %s\n", rep.Class, rep.Fragment, rep.Exact, rep.Algorithm)
	fmt.Fprintf(b, "  T: %v\n  side effects: %v\n", rep.Result.T, rep.Result.SideEffects)
}

// TestDeleteReportsGolden pins the routed report of every route, objective
// and solver option over the corpus, plus absent targets and the caps.
func TestDeleteReportsGolden(t *testing.T) {
	var b strings.Builder
	run := func(name string, db *relation.Database, q algebra.Query, target relation.Tuple, obj Objective, opts DeleteOptions) {
		fmt.Fprintf(&b, "%s | %v | %s | %+v\n", name, target, obj, opts)
		rep, err := Delete(q, db, target, obj, opts)
		writeReport(&b, rep, err)
	}
	for _, in := range goldenInstances() {
		for _, target := range goldenTargets(in.q, in.db) {
			run(in.name, in.db, in.q, target, MinimizeViewSideEffects, DeleteOptions{})
			run(in.name, in.db, in.q, target, MinimizeSourceDeletions, DeleteOptions{})
			run(in.name, in.db, in.q, target, MinimizeSourceDeletions, DeleteOptions{Greedy: true})
			for _, capW := range []int{1, 2} {
				run(in.name, in.db, in.q, target, MinimizeViewSideEffects, DeleteOptions{MaxWitnesses: capW})
				run(in.name, in.db, in.q, target, MinimizeSourceDeletions, DeleteOptions{MaxWitnesses: capW})
			}
			run(in.name, in.db, in.q, target, MinimizeViewSideEffects, DeleteOptions{MaxCandidates: 1})
		}
		absent := make(relation.Tuple, algebra.MustEval(in.q, in.db).Schema().Len())
		for i := range absent {
			absent[i] = relation.String("absent")
		}
		run(in.name, in.db, in.q, absent, MinimizeViewSideEffects, DeleteOptions{})
		run(in.name, in.db, in.q, absent, MinimizeSourceDeletions, DeleteOptions{})
	}
	// The candidate cap around the four minimal hitting sets of (john, f1)
	// in the paper's UserGroup/GroupFile example.
	db := relation.NewDatabase()
	ug := relation.New("UserGroup", relation.NewSchema("user", "group"))
	ug.InsertStrings("john", "staff")
	ug.InsertStrings("john", "admin")
	ug.InsertStrings("mary", "admin")
	db.MustAdd(ug)
	gf := relation.New("GroupFile", relation.NewSchema("group", "file"))
	gf.InsertStrings("staff", "f1")
	gf.InsertStrings("admin", "f1")
	gf.InsertStrings("admin", "f2")
	db.MustAdd(gf)
	q := algebra.Pi([]relation.Attribute{"user", "file"}, algebra.NatJoin(algebra.R("UserGroup"), algebra.R("GroupFile")))
	for _, capC := range []int{3, 4, 5} {
		run("UserGroup/GroupFile", db, q, relation.StringTuple("john", "f1"), MinimizeViewSideEffects, DeleteOptions{MaxCandidates: capC})
	}
	checkGolden(t, "testdata/delete_reports.golden", b.String())
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the output (rerun with -update to rewrite it)", path)
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first difference at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
				break
			}
		}
	}
}

// TestAnnotateReportsGolden pins the routed placement of every cell of the
// golden targets over the corpus, plus a tie between two side-effect-free
// sources in different branches of a union.
func TestAnnotateReportsGolden(t *testing.T) {
	var b strings.Builder
	run := func(name string, db *relation.Database, q algebra.Query, target relation.Tuple, attr relation.Attribute) {
		fmt.Fprintf(&b, "%s | %v | %s\n", name, target, attr)
		rep, err := Annotate(q, db, target, attr)
		if err != nil {
			fmt.Fprintf(&b, "  error: %v\n", err)
			return
		}
		p := rep.Placement
		fmt.Fprintf(&b, "  class=%s fragment=%s\n  algorithm: %s\n", rep.Class, rep.Fragment, rep.Algorithm)
		fmt.Fprintf(&b, "  source: %v side effects: %d\n  affected: %v\n", p.Source, p.SideEffects, p.Affected.Sorted())
	}
	for _, in := range goldenInstances() {
		attrs := algebra.MustEval(in.q, in.db).Schema().Attrs()
		for _, target := range goldenTargets(in.q, in.db) {
			for _, attr := range attrs {
				run(in.name, in.db, in.q, target, attr)
			}
		}
	}
	db := relation.NewDatabase()
	for _, rel := range []struct {
		name string
		b    int64
	}{{"S", 1}, {"R", 2}} {
		r := relation.New(rel.name, relation.NewSchema("A", "B"))
		r.Insert(relation.NewTuple(relation.String("x"), relation.Int(rel.b)))
		db.MustAdd(r)
	}
	a := []relation.Attribute{"A"}
	run("tie", db, algebra.Un(algebra.Pi(a, algebra.R("S")), algebra.Pi(a, algebra.R("R"))), relation.StringTuple("x"), "A")
	checkGolden(t, "testdata/annotate_reports.golden", b.String())
}
