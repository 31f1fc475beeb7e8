package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/workload"
)

// opKind is the kind of one scripted request.
type opKind uint8

const (
	opDelete  opKind = iota // Engine.Delete, or Engine.DeleteGroup when len(targets) > 1
	opRestore               // Engine.Insert of exactly the tuples the client's previous delete removed
	opAnnotate
	opQuery // Engine.QueryPage of pageSize rows
	opStats
	numKinds
)

var kindNames = [numKinds]string{"delete", "restore", "annotate", "query", "stats"}

func (k opKind) String() string { return kindNames[k] }

// pageSize is the row count of every scripted QueryPage.
const pageSize = 50

// op is one scripted request. Scripts are generated from the seed before
// anything is timed, so every run of a (workload, seed, seconds) triple
// sends identical requests.
type op struct {
	kind    opKind
	view    string
	targets []relation.Tuple // delete
	obj     core.Objective   // delete
	greedy  bool             // delete, source objective
	maxCand int              // delete, view objective
	attr    relation.Attribute
	target  relation.Tuple // annotate
	offset  int            // query
}

func (o op) String() string {
	switch o.kind {
	case opDelete:
		return fmt.Sprintf("delete %s %v obj=%d greedy=%t cap=%d", o.view, o.targets, o.obj, o.greedy, o.maxCand)
	case opAnnotate:
		return fmt.Sprintf("annotate %s %v %s", o.view, o.target, o.attr)
	case opQuery:
		return fmt.Sprintf("query %s %d", o.view, o.offset)
	default:
		return fmt.Sprintf("%s %s", o.kind, o.view)
	}
}

// viewDef is one view the workload prepares. Family partitions the views
// by the disjoint source relations they read; a client only writes to its
// own family, so concurrent clients never touch each other's views.
type viewDef struct {
	name   string
	query  algebra.Query
	family int
	size   int // rows of the view over the generated database
}

// workloadSpec is a generated workload: the source database, the views,
// the engine options and one fixed script per closed-loop client.
type workloadSpec struct {
	name    string
	db      *relation.Database
	views   []viewDef
	opts    engine.Options
	scripts [][]op
}

func (w *workloadSpec) view(name string) *viewDef {
	for i := range w.views {
		if w.views[i].name == name {
			return &w.views[i]
		}
	}
	return nil
}

// encode renders the database, views and scripts as text; the same seed
// must give the same bytes.
func (w *workloadSpec) encode() []byte {
	var b bytes.Buffer
	b.WriteString(relation.WriteDatabaseString(w.db))
	for _, v := range w.views {
		fmt.Fprintf(&b, "view %s family=%d size=%d %s\n", v.name, v.family, v.size, algebra.Format(v.query))
	}
	for c, s := range w.scripts {
		for _, o := range s {
			fmt.Fprintf(&b, "client %d: %s\n", c, o)
		}
	}
	return b.Bytes()
}

// sizes scales a workload. full is what the benchmark runs; the tests use
// tiny sizes so a smoke run finishes in well under a second.
type sizes struct {
	// curation: genes and the maximum proteins per gene.
	genes, proteins int
	// hub-write: users, groups and files of the access-control view.
	users, groups, files int
	// many-views: rows per relation and the integer domain.
	rows, domain int
	// Rounds per second of --seconds, per workload: measured once so that a
	// script lasts about --seconds on a 2-vCPU machine, and constant so the
	// work stays identical across runs and commits.
	curationRounds, hubRounds, manyRounds float64
}

var fullSizes = sizes{
	genes: 8000, proteins: 4,
	users: 1000, groups: 200, files: 2500,
	rows: 1000, domain: 400,
	curationRounds: 1.2, hubRounds: 0.5, manyRounds: 17,
}

var tinySizes = sizes{
	genes: 60, proteins: 3,
	users: 40, groups: 8, files: 30,
	rows: 40, domain: 20,
	curationRounds: 2, hubRounds: 2, manyRounds: 2,
}

var workloadNames = []string{"curation", "hub-write", "many-views"}

// generate builds the named workload's inputs from seed. The script holds
// rounds(seconds) rounds, so --seconds changes how much is measured but
// never what one round does.
func generate(name string, seed int64, seconds float64, sz sizes) (*workloadSpec, error) {
	r := rand.New(rand.NewSource(seed))
	rounds := func(perSecond float64) int {
		return int(math.Max(1, math.Ceil(seconds*perSecond)))
	}
	var w *workloadSpec
	var err error
	switch name {
	case "curation":
		w, err = genCuration(r, sz, rounds(sz.curationRounds))
	case "hub-write":
		w, err = genHubWrite(r, sz, rounds(sz.hubRounds))
	case "many-views":
		w, err = genManyViews(r, sz, rounds(sz.manyRounds))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.name = name
	return w, nil
}

// sizeViews evaluates every view once over the generated database, to
// record its size and to hand the script generator its rows. It fails on
// an empty view, which could not be a delete target.
func sizeViews(db *relation.Database, views []viewDef) (map[string][]relation.Tuple, error) {
	rows := make(map[string][]relation.Tuple, len(views))
	for i := range views {
		rel, err := algebra.Eval(views[i].query, db)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", views[i].name, err)
		}
		if rel.Len() == 0 {
			return nil, fmt.Errorf("view %s is empty", views[i].name)
		}
		views[i].size = rel.Len()
		rows[views[i].name] = rel.Tuples()
	}
	return rows, nil
}

// scriptGen appends ops for one client, drawing targets from the views'
// initial rows. Every delete is followed by its restore, so the view
// contents at every scripted request equal the initial ones and every
// drawn target is present when its request runs.
type scriptGen struct {
	r     *rand.Rand
	rows  map[string][]relation.Tuple
	attrs map[string][]relation.Attribute
	ops   []op
}

func (g *scriptGen) pick(view string) relation.Tuple {
	rs := g.rows[view]
	return rs[g.r.Intn(len(rs))]
}

// roundTrip scripts a delete of n distinct targets followed by the
// restore of whatever it removed.
func (g *scriptGen) roundTrip(view string, n int, obj core.Objective, greedy bool, maxCand int) {
	seen := map[string]bool{}
	var ts []relation.Tuple
	for len(ts) < n && len(seen) < len(g.rows[view]) {
		t := g.pick(view)
		if !seen[t.Key()] {
			seen[t.Key()] = true
			ts = append(ts, t)
		}
	}
	g.ops = append(g.ops,
		op{kind: opDelete, view: view, targets: ts, obj: obj, greedy: greedy, maxCand: maxCand},
		op{kind: opRestore, view: view})
}

func (g *scriptGen) annotate(view string) {
	attrs := g.attrs[view]
	g.ops = append(g.ops, op{kind: opAnnotate, view: view, target: g.pick(view), attr: attrs[g.r.Intn(len(attrs))]})
}

func (g *scriptGen) query(view string) {
	off := 0
	if n := len(g.rows[view]); n > pageSize {
		off = g.r.Intn(n - pageSize + 1)
	}
	g.ops = append(g.ops, op{kind: opQuery, view: view, offset: off})
}

func (g *scriptGen) stats() { g.ops = append(g.ops, op{kind: opStats}) }

// closingAnnotates ends a script with one Annotate per view, so every
// where-provenance index is built when heap_end_mb is read, whichever
// views the last restores happened to touch.
func closingAnnotates(g *scriptGen, views []viewDef) {
	for _, v := range views {
		g.annotate(v.name)
	}
}

func newScriptGen(r *rand.Rand, db *relation.Database, views []viewDef, rows map[string][]relation.Tuple) (*scriptGen, error) {
	g := &scriptGen{r: r, rows: rows, attrs: make(map[string][]relation.Attribute, len(views))}
	for _, v := range views {
		s, err := algebra.SchemaOf(v.query, db)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", v.name, err)
		}
		g.attrs[v.name] = s.Attrs()
	}
	return g, nil
}

// genCuration is the paper's annotation use case: the Gene⋈Protein key
// join of workload.Curation plus two selection views. One client mostly
// annotates and reads pages; the two delete→restore round trips of each
// round drop the touched views' where-provenance index, so the next
// Annotate on them rebuilds it.
func genCuration(r *rand.Rand, sz sizes, rounds int) (*workloadSpec, error) {
	db, q := workload.Curation(r, sz.genes, sz.proteins)
	views := []viewDef{
		{name: "curated", query: q},
		{name: "human", query: algebra.MustParse("select(organism = 'human'; Gene)")},
		{name: "kinase", query: algebra.MustParse("project(gene, protein; select(function = 'kinase'; Protein))")},
	}
	rows, err := sizeViews(db, views)
	if err != nil {
		return nil, err
	}
	g, err := newScriptGen(r, db, views, rows)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rounds; i++ {
		// Three of four deletes are single view-objective deletes on the
		// join view, so the delete median sits inside their mode.
		switch i % 4 {
		case 1:
			g.roundTrip("curated", 2, core.MinimizeSourceDeletions, false, 0)
		case 3:
			g.roundTrip("kinase", 1, core.MinimizeSourceDeletions, true, 0)
		default:
			g.roundTrip("curated", 1, core.MinimizeViewSideEffects, false, 0)
		}
		g.roundTrip("curated", 1, core.MinimizeViewSideEffects, false, 0)
		g.query("curated")
		for j := 0; j < 6; j++ {
			g.annotate("curated")
			g.query("curated")
		}
		g.annotate([]string{"human", "kinase"}[i%2])
		g.query([]string{"human", "kinase"}[i%2])
		if i%2 == 1 {
			g.stats()
		}
	}
	closingAnnotates(g, views)
	return &workloadSpec{db: db, views: views, scripts: [][]op{g.ops}}, nil
}

// genHubWrite is the NP-hard solve path: one access-control view
// Π_{user,file}(UserGroup⋈GroupFile) on a segmented store, with zipf-skewed
// group membership so a few hub groups reach most users. One client deletes
// under the view objective (capped) and the source objective (exact and
// greedy), restores, reads a page after each write, and scrapes stats
// twice per round. It never annotates.
func genHubWrite(r *rand.Rand, sz sizes, rounds int) (*workloadSpec, error) {
	db := relation.NewDatabase()
	ug := relation.New("UserGroup", relation.NewSchema("user", "group"))
	gname := func(i int) string { return "g" + strconv.Itoa(i) }
	// The seed decides which groups are hubs; the zipf profile is fixed.
	hub := r.Perm(sz.groups)
	z := rand.NewZipf(r, 1.2, 1, uint64(sz.groups-1))
	for u := 0; u < sz.users; u++ {
		for k := 1 + r.Intn(3); k > 0; k-- {
			ug.InsertStrings("u"+strconv.Itoa(u), gname(hub[z.Uint64()]))
		}
	}
	db.MustAdd(ug)
	// Every file is shared by two groups dealt round-robin from two
	// seed-chosen group orders, so each group holds the same number of
	// files whichever groups the seed made hubs, and the view's size and
	// the solve costs stay alike across seeds.
	gf := relation.New("GroupFile", relation.NewSchema("group", "file"))
	first, second := r.Perm(sz.groups), r.Perm(sz.groups)
	for f := 0; f < sz.files; f++ {
		gf.InsertStrings(gname(first[f%sz.groups]), "f"+strconv.Itoa(f))
		gf.InsertStrings(gname(second[f%sz.groups]), "f"+strconv.Itoa(f))
	}
	db.MustAdd(gf)
	views := []viewDef{{name: "access", query: algebra.MustParse("project(user, file; join(UserGroup, GroupFile))")}}
	rows, err := sizeViews(db, views)
	if err != nil {
		return nil, err
	}
	g, err := newScriptGen(r, db, views, rows)
	if err != nil {
		return nil, err
	}
	const maxCand = 8
	for i := 0; i < rounds; i++ {
		// Four view-objective writes against two source-objective ones keep
		// the delete median inside the view-objective mode.
		for j := 0; j < 3; j++ {
			g.roundTrip("access", 1, core.MinimizeViewSideEffects, false, maxCand)
			g.query("access")
		}
		g.stats()
		g.roundTrip("access", 3, core.MinimizeViewSideEffects, false, maxCand)
		g.query("access")
		g.roundTrip("access", 1, core.MinimizeSourceDeletions, false, 0)
		g.query("access")
		g.roundTrip("access", 1, core.MinimizeSourceDeletions, true, 0)
		g.query("access")
		g.stats()
	}
	return &workloadSpec{db: db, views: views, opts: engine.Options{Segments: 8}, scripts: [][]op{g.ops}}, nil
}

// manyViewQueries are the per-family views of many-views: mixed fragments
// over the family's relations %[1]s1(A,B), %[1]s2(B,C), %[1]s3(A,B) and
// %[1]s4(B,C). %[2]d is half the value domain.
var manyViewQueries = []struct{ name, src string }{
	{"spu1", "union(project(A; %[1]s1), project(A; %[1]s3))"},
	{"su1", "union(select(B < %[2]d; %[1]s1), %[1]s3)"},
	{"s1", "select(B >= %[2]d; %[1]s2)"},
	{"p1", "project(B; %[1]s4)"},
	{"sj1", "select(A < %[2]d; join(%[1]s1, %[1]s2))"},
	{"j1", "join(%[1]s3, %[1]s4)"},
	{"pj1", "project(A, C; join(%[1]s1, %[1]s2))"},
	{"pj2", "project(A, C; join(%[1]s3, %[1]s4))"},
	{"pj3", "project(A; join(%[1]s1, %[1]s2))"},
	{"ju1", "union(join(%[1]s1, %[1]s2), join(%[1]s3, %[1]s4))"},
	{"sju1", "union(select(A < %[2]d; join(%[1]s1, %[1]s2)), join(%[1]s3, %[1]s4))"},
	{"pju1", "union(project(A, C; join(%[1]s1, %[1]s2)), project(A, C; join(%[1]s3, %[1]s4)))"},
}

// genManyViews prepares tens of small views of mixed fragments over two
// disjoint relation families; one client per family mixes delete→restore,
// page reads, an annotate per round and a periodic stats scrape.
func genManyViews(r *rand.Rand, sz sizes, rounds int) (*workloadSpec, error) {
	db := relation.NewDatabase()
	families := []string{"a", "b"}
	for _, fam := range families {
		for i, attrs := range [][2]string{{"A", "B"}, {"B", "C"}, {"A", "B"}, {"B", "C"}} {
			rel := relation.New(fam+strconv.Itoa(i+1), relation.NewSchema(attrs[0], attrs[1]))
			for rel.Len() < sz.rows {
				rel.Insert(relation.NewTuple(relation.Int(int64(r.Intn(sz.domain))), relation.Int(int64(r.Intn(sz.domain)))))
			}
			db.MustAdd(rel)
		}
	}
	var views []viewDef
	for f, fam := range families {
		for _, v := range manyViewQueries {
			q, err := algebra.Parse(fmt.Sprintf(v.src, fam, sz.domain/2))
			if err != nil {
				return nil, fmt.Errorf("view %s: %w", v.name, err)
			}
			views = append(views, viewDef{name: fam + "_" + v.name, query: q, family: f})
		}
	}
	rows, err := sizeViews(db, views)
	if err != nil {
		return nil, err
	}
	var scripts [][]op
	for f, fam := range families {
		g, err := newScriptGen(r, db, views, rows)
		if err != nil {
			return nil, err
		}
		name := func(i int) string { return fam + "_" + manyViewQueries[i%len(manyViewQueries)].name }
		for i := 0; i < rounds; i++ {
			// Each pass over the family's views uses one objective, so every
			// view meets every objective; exact source-objective deletes are
			// the majority, which keeps the delete median inside their mode.
			v := name(i)
			switch (i / len(manyViewQueries)) % 4 {
			case 0:
				g.roundTrip(v, 1, core.MinimizeViewSideEffects, false, 16)
			case 2:
				g.roundTrip(v, 1, core.MinimizeSourceDeletions, true, 0)
			default:
				g.roundTrip(v, 1, core.MinimizeSourceDeletions, false, 0)
			}
			g.query(v)
			g.query(name(g.r.Intn(len(manyViewQueries))))
			g.query(name(g.r.Intn(len(manyViewQueries))))
			g.annotate(name(g.r.Intn(len(manyViewQueries))))
			if i%6 == 5 {
				g.stats()
			}
		}
		closingAnnotates(g, views[f*len(manyViewQueries):(f+1)*len(manyViewQueries)])
		scripts = append(scripts, g.ops)
	}
	return &workloadSpec{db: db, views: views, scripts: scripts}, nil
}
