package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// span is one timed interval. Spans of one request share op (its script
// index; -1 for set-up), and parent indexes the enclosing span of the same
// tracer (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Client int    `json:"client"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps one client's spans in memory; they are written out when
// the run ends. A tracer is used by one goroutine only.
type tracer struct {
	epoch  time.Time
	client int
	spans  []span
}

// record appends a span that has already ended.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		Name: name, Client: t.client, Op: op, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return len(t.spans) - 1
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.record(name, parent, op, now, now)
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// time runs fn inside a span.
func (t *tracer) time(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that its children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curLo, curHi, open = iv[0], iv[1], true
			case iv[0] <= curHi:
				if iv[1] > curHi {
					curHi = iv[1]
				}
			default:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// shadowView is a client's private copy of one prepared view's state,
// advanced by replaying the client's requests through the layers.
type shadowView struct {
	def  *viewDef
	plan algebra.Query
	prov *provenance.Result
	// where is nil after a restore changed the view: the engine drops its
	// index then and rebuilds it on the next Annotate.
	where *annotation.WhereView
	// sorted is nil when the view changed since its last page read.
	sorted []relation.Tuple
}

// layerCounts are the per-layer work counts a shadow accumulates.
type layerCounts struct {
	deletes, targets, deleted, exact int
	annotates, rebuilds, sideEffects int
	whereTouched                     int64
}

// shadow replays one client's requests on a private copy of the engine's
// state through each layer's public functions, in the order the engine's
// commitDelete, insertGroup, apply and Annotate call them, timing each
// call as a child span, and checks that the replay reproduces what the
// engine returned. Clients write disjoint view families, so each shadow
// holds only its client's views.
type shadow struct {
	tr      *tracer
	db      *relation.Database
	views   map[string]*shadowView
	order   []*shadowView
	workers int // across-view width, as the engine's Options.Workers default
	intra   int // intra-view width, as the engine resolves it
	counts  layerCounts
}

// newShadow copies the engine's current state for one client's views,
// timing the layers Prepare runs: the store snapshot, planning, the
// witness basis and the where-provenance index.
func newShadow(e *engine.Engine, w *workloadSpec, family int, tr *tracer) (*shadow, error) {
	s := &shadow{tr: tr, views: map[string]*shadowView{}, workers: runtime.GOMAXPROCS(0), intra: e.Stats().MaintenanceWorkers}
	root := tr.begin("setup.shadow", -1, -1)
	defer tr.end(root)
	src := e.Database()
	tr.time("relation.freeze", root, -1, func() { s.db = src.Sharded(w.opts.Segments) })
	for i := range w.views {
		v := &w.views[i]
		if v.family != family {
			continue
		}
		sv := &shadowView{def: v}
		var err error
		tr.time("algebra.plan", root, -1, func() {
			if err = algebra.Validate(v.query, s.db); err == nil {
				sv.plan = algebra.OptimizeJoins(algebra.Normalize(v.query), s.db)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", v.name, err)
		}
		tr.time("provenance.compute", root, -1, func() { sv.prov, err = provenance.Compute(sv.plan, s.db) })
		if err != nil {
			return nil, fmt.Errorf("witnesses of %s: %w", v.name, err)
		}
		tr.time("annotation.where_build", root, -1, func() { sv.where, err = annotation.ComputeWhere(sv.plan, s.db) })
		if err != nil {
			return nil, fmt.Errorf("where-provenance of %s: %w", v.name, err)
		}
		// Mirror the engine's index state, so the first Annotate after the
		// copy rebuilds exactly when the engine's does.
		if d, err := e.Describe(v.name); err != nil {
			return nil, err
		} else if !d.WhereReady {
			sv.where = nil
		}
		s.views[v.name] = sv
		s.order = append(s.order, sv)
	}
	return s, nil
}

// fanOut runs fn(0..n-1) on up to s.workers goroutines, the shape of the
// engine's across-view fan-out.
func (s *shadow) fanOut(n int, fn func(i int)) {
	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

func sameTuples(a, b []relation.SourceTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// replayDelete replays a delete as commitDelete runs it: validation, the
// group solve, the store derive, per-view basis maintenance, then
// where-index maintenance. It also times the basis maintenance at width 1
// for the intra-view speedup; that extra pass is not part of the engine's
// work and is left out of the commit decomposition.
func (s *shadow) replayDelete(i int, o op, rep *core.DeleteReport, res *clientResult) {
	tr := s.tr
	root := tr.begin("replay.delete", -1, i)
	defer tr.end(root)
	sv := s.views[o.view]
	var err error
	tr.time("deletion.validate", root, i, func() { _, err = deletion.GroupTargets(sv.prov.View, o.targets) })
	if err != nil {
		res.fail("op %d: replayed validation: %v", i, err)
		return
	}
	var T []relation.SourceTuple
	exact := false
	switch {
	case o.obj == core.MinimizeViewSideEffects:
		tr.time("deletion.solve_view", root, i, func() {
			var r *deletion.ViewExactResult
			if r, err = deletion.ViewExactGroupBasis(sv.prov, o.targets, deletion.ViewOptions{MaxCandidates: o.maxCand}); err == nil {
				T, exact = r.T, r.Exhausted
			}
		})
	case o.greedy:
		tr.time("deletion.solve_greedy", root, i, func() {
			var r *deletion.SourceExactResult
			if r, err = deletion.SourceGreedyGroupBasis(sv.prov, o.targets); err == nil {
				T = r.T
			}
		})
	default:
		tr.time("deletion.solve_source", root, i, func() {
			var r *deletion.SourceExactResult
			if r, err = deletion.SourceExactGroupBasis(sv.prov, o.targets); err == nil {
				T, exact = r.T, true
			}
		})
	}
	if err != nil {
		res.fail("op %d: replayed solve: %v", i, err)
		return
	}
	if !sameTuples(T, rep.Result.T) {
		res.fail("op %d: replayed solve deletes %v, engine deleted %v", i, T, rep.Result.T)
		return
	}
	s.counts.deletes++
	s.counts.targets += len(o.targets)
	s.counts.deleted += len(T)
	if exact {
		s.counts.exact++
	}

	var newDB *relation.Database
	tr.time("relation.derive_delete", root, i, func() { newDB = s.db.DeleteAll(T) })
	next := make([]*provenance.Result, len(s.order))
	maint := func() {
		tr.time("provenance.maint_delete", root, i, func() {
			s.fanOut(len(s.order), func(k int) { next[k] = s.order[k].prov.ApplyDeletionWorkers(newDB, T, s.intra) })
		})
	}
	serial := func() {
		tr.time("provenance.maint_delete_serial", root, i, func() {
			s.fanOut(len(s.order), func(k int) { s.order[k].prov.ApplyDeletionWorkers(newDB, T, 1) })
		})
	}
	// The second pass runs on warm caches, so the two widths take turns
	// going first.
	if s.counts.deletes%2 == 0 {
		maint()
		serial()
	} else {
		serial()
		maint()
	}
	where := make([]*annotation.WhereView, len(s.order))
	touched := make([]int64, len(s.order))
	tr.time("annotation.where_maint", root, i, func() {
		s.fanOut(len(s.order), func(k int) {
			old := s.order[k].where
			if old == nil {
				return
			}
			before := old.MaintenanceTouched()
			where[k] = old.ApplyDeletionWorkers(T, s.intra)
			touched[k] = where[k].MaintenanceTouched() - before
		})
	})
	for _, n := range touched {
		s.counts.whereTouched += n
	}
	s.db = newDB
	for k, sv := range s.order {
		if next[k] != sv.prov {
			sv.sorted = nil
		}
		sv.prov, sv.where = next[k], where[k]
	}
}

// replayRestore replays an insert as insertGroup runs it: the store derive,
// then per-view basis maintenance. A view the insert changed loses its
// where index and sorted rows, as the engine's snapshot does.
func (s *shadow) replayRestore(i int, o op, T []relation.SourceTuple, rep *engine.InsertReport, res *clientResult) {
	tr := s.tr
	root := tr.begin("replay.restore", -1, i)
	defer tr.end(root)
	var newDB *relation.Database
	var err error
	tr.time("relation.derive_insert", root, i, func() { newDB, err = s.db.InsertAll(T) })
	if err != nil {
		res.fail("op %d: replayed insert: %v", i, err)
		return
	}
	next := make([]*provenance.Result, len(s.order))
	errs := make([]error, len(s.order))
	tr.time("provenance.maint_insert", root, i, func() {
		s.fanOut(len(s.order), func(k int) { next[k], errs[k] = s.order[k].prov.ApplyInsertionWorkers(newDB, T, s.intra) })
	})
	for _, err := range errs {
		if err != nil {
			res.fail("op %d: replayed maintenance: %v", i, err)
			return
		}
	}
	s.db = newDB
	for k, sv := range s.order {
		if next[k] != sv.prov {
			sv.sorted, sv.where = nil, nil
		}
		sv.prov = next[k]
	}
	for _, v := range rep.Views {
		if sv := s.views[v.Name]; sv != nil && sv.prov.View.Len() != v.ViewSize {
			res.fail("op %d: replayed %s has %d rows, engine %d", i, v.Name, sv.prov.View.Len(), v.ViewSize)
		}
	}
}

// replayAnnotate rebuilds the where index when the last restore dropped
// it, then places the annotation, as Engine.Annotate does.
func (s *shadow) replayAnnotate(i int, o op, got *annotation.Placement, res *clientResult) {
	tr := s.tr
	root := tr.begin("replay.annotate", -1, i)
	defer tr.end(root)
	sv := s.views[o.view]
	var err error
	if sv.where == nil {
		tr.time("annotation.where_rebuild", root, i, func() { sv.where, err = annotation.ComputeWhere(sv.plan, s.db) })
		if err != nil {
			res.fail("op %d: replayed where rebuild: %v", i, err)
			return
		}
		s.counts.rebuilds++
	}
	var p *annotation.Placement
	tr.time("annotation.place", root, i, func() { p, err = annotation.PlaceOn(sv.where, o.target, o.attr) })
	if err != nil {
		res.fail("op %d: replayed placement: %v", i, err)
		return
	}
	s.counts.annotates++
	s.counts.sideEffects += p.SideEffects
	if p.Source.Key() != got.Source.Key() || p.SideEffects != got.SideEffects {
		res.fail("op %d: replayed placement %v (%d side effects), engine %v (%d)", i, p.Source, p.SideEffects, got.Source, got.SideEffects)
	}
}

// replayQuery sorts the view when it changed since the last page read, as
// the engine's per-snapshot sorted cache does, and compares the page.
func (s *shadow) replayQuery(i int, o op, page engine.ViewPage, res *clientResult) {
	tr := s.tr
	root := tr.begin("replay.query", -1, i)
	defer tr.end(root)
	sv := s.views[o.view]
	if sv.sorted == nil {
		tr.time("relation.sort", root, i, func() { sv.sorted = sv.prov.View.SortedTuples() })
	}
	end := o.offset + len(page.Tuples)
	if end > len(sv.sorted) {
		res.fail("op %d: engine page of %s ends at %d, replay has %d rows", i, o.view, end, len(sv.sorted))
		return
	}
	for k, t := range page.Tuples {
		if !t.Equal(sv.sorted[o.offset+k]) {
			res.fail("op %d: page row %d of %s is %v, replay has %v", i, o.offset+k, o.view, t, sv.sorted[o.offset+k])
			return
		}
	}
}

// probeUnreached times, once, each annotation layer the script never
// reached (hub-write never annotates), on the first row and attribute of
// the client's first view, so every layer metric is measured on every
// workload. Probes have op -1, are not requests, and change no count.
func (s *shadow) probeUnreached() error {
	reached := map[string]bool{}
	for _, sp := range s.tr.spans {
		reached[sp.Name] = true
	}
	rebuild, place := !reached["annotation.where_rebuild"], !reached["annotation.place"]
	if len(s.order) == 0 || !rebuild && !place {
		return nil
	}
	sv := s.order[0]
	root := s.tr.begin("probe.annotate", -1, -1)
	defer s.tr.end(root)
	where := sv.where
	var err error
	if rebuild || where == nil {
		s.tr.time("annotation.where_rebuild", root, -1, func() { where, err = annotation.ComputeWhere(sv.plan, s.db) })
		if err != nil {
			return fmt.Errorf("probe: where rebuild of %s: %w", sv.def.name, err)
		}
	}
	if place {
		t, attr := sv.prov.View.Tuple(0), sv.prov.View.Schema().Attr(0)
		s.tr.time("annotation.place", root, -1, func() { _, err = annotation.PlaceOn(where, t, attr) })
		if err != nil {
			return fmt.Errorf("probe: placement on %s: %w", sv.def.name, err)
		}
	}
	return nil
}

// replayStats walks every witness of the client's views, as Engine.Stats
// does, and compares the counts.
func (s *shadow) replayStats(i int, st engine.Stats, res *clientResult) {
	tr := s.tr
	root := tr.begin("replay.stats", -1, i)
	defer tr.end(root)
	counts := make([]int, len(s.order))
	tr.time("provenance.witness_walk", root, i, func() {
		for k, sv := range s.order {
			for _, t := range sv.prov.View.Tuples() {
				counts[k] += len(sv.prov.Witnesses(t))
			}
		}
	})
	for _, v := range st.Views {
		for k, sv := range s.order {
			if sv.def.name == v.Name && counts[k] != v.WitnessCount {
				res.fail("op %d: replay counts %d witnesses in %s, engine %d", i, counts[k], v.Name, v.WitnessCount)
			}
		}
	}
}
