package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
)

// setup builds an engine over the workload's database and prepares every
// view; the returned time runs from engine.New until the last Prepare
// returns.
func setup(w *workloadSpec) (*engine.Engine, float64, error) {
	start := time.Now()
	e := engine.New(w.db, w.opts)
	for _, v := range w.views {
		if err := e.Prepare(v.name, v.query); err != nil {
			return nil, 0, fmt.Errorf("prepare %s: %w", v.name, err)
		}
	}
	return e, time.Since(start).Seconds(), nil
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// placementSample is an engine placement kept for the end-of-run check
// against an independently computed where-provenance index.
type placementSample struct {
	view        string
	target      relation.Tuple
	attr        relation.Attribute
	src         relation.Location
	sideEffects int
}

// clientResult is what one closed-loop client measured and checked.
type clientResult struct {
	lat        [numKinds][]float64 // engine call latency per op, ms
	attempts   [numKinds]int
	failures   [numKinds]int
	placements []placementSample
	wrong      []string // correctness violations
}

func (c *clientResult) fail(format string, args ...any) {
	if len(c.wrong) < 20 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

// placementSampleEvery keeps every n-th placement for the end-of-run check.
const placementSampleEvery = 8

// client runs one script against the engine, closed loop: each request is
// sent when the previous one has returned. With a shadow it also replays
// every request through the layers' public functions (trace.go).
type client struct {
	e      *engine.Engine
	w      *workloadSpec
	shadow *shadow // nil when untraced
	res    clientResult
}

func (c *client) run(script []op) {
	var deleted []relation.SourceTuple // what the last delete removed, for its restore
	for i, o := range script {
		c.res.attempts[o.kind]++
		var err error
		switch o.kind {
		case opDelete:
			deleted, err = c.delete(i, o)
		case opRestore:
			err = c.restore(i, o, deleted)
			deleted = nil
		case opAnnotate:
			err = c.annotate(i, o)
		case opQuery:
			err = c.query(i, o)
		case opStats:
			err = c.stats(i)
		}
		if err != nil {
			c.res.failures[o.kind]++
			c.res.fail("op %d (%s): %v", i, o, err)
		}
	}
}

// timed runs fn and records its latency, and in a traced run its span.
func (c *client) timed(i int, kind opKind, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	c.res.lat[kind] = append(c.res.lat[kind], float64(end.Sub(start))/float64(time.Millisecond))
	if c.shadow != nil {
		c.shadow.tr.record("engine."+kind.String(), -1, i, start, end)
	}
}

func (c *client) delete(i int, o op) ([]relation.SourceTuple, error) {
	var rep *core.DeleteReport
	var err error
	opts := core.DeleteOptions{MaxCandidates: o.maxCand, Greedy: o.greedy}
	c.timed(i, opDelete, func() {
		if len(o.targets) > 1 {
			rep, err = c.e.DeleteGroup(o.view, o.targets, o.obj, opts)
		} else {
			rep, err = c.e.Delete(o.view, o.targets[0], o.obj, opts)
		}
	})
	if err != nil {
		return nil, err
	}
	view, err := c.e.Query(o.view)
	if err != nil {
		return nil, err
	}
	for _, t := range o.targets {
		if view.Contains(t) {
			c.res.fail("op %d: target %v still in %s after its delete committed", i, t, o.view)
		}
	}
	if c.shadow != nil {
		c.shadow.replayDelete(i, o, rep, &c.res)
	}
	return rep.Result.T, nil
}

func (c *client) restore(i int, o op, T []relation.SourceTuple) error {
	if len(T) == 0 {
		return fmt.Errorf("nothing to restore: the delete before it failed")
	}
	var rep *engine.InsertReport
	var err error
	c.timed(i, opRestore, func() { rep, err = c.e.Insert(T) })
	if err != nil {
		return err
	}
	d, err := c.e.Describe(o.view)
	if err != nil {
		return err
	}
	if want := c.w.view(o.view).size; d.ViewSize != want {
		c.res.fail("op %d: restore left %s at %d rows, want %d", i, o.view, d.ViewSize, want)
	}
	if c.shadow != nil {
		c.shadow.replayRestore(i, o, T, rep, &c.res)
	}
	return nil
}

func (c *client) annotate(i int, o op) error {
	var rep *core.AnnotateReport
	var err error
	c.timed(i, opAnnotate, func() { rep, err = c.e.Annotate(o.view, o.target, o.attr) })
	if err != nil {
		return err
	}
	if c.res.attempts[opAnnotate]%placementSampleEvery == 1 {
		c.res.placements = append(c.res.placements, placementSample{
			view: o.view, target: o.target, attr: o.attr,
			src: rep.Placement.Source, sideEffects: rep.Placement.SideEffects,
		})
	}
	if c.shadow != nil {
		c.shadow.replayAnnotate(i, o, rep.Placement, &c.res)
	}
	return nil
}

func (c *client) query(i int, o op) error {
	var page engine.ViewPage
	var err error
	c.timed(i, opQuery, func() { page, err = c.e.QueryPage(o.view, o.offset, pageSize) })
	if err != nil {
		return err
	}
	size := c.w.view(o.view).size
	want := pageSize
	if size-o.offset < want {
		want = size - o.offset
	}
	if page.Total != size || len(page.Tuples) != want {
		c.res.fail("op %d: page of %s has %d of %d rows, want %d of %d", i, o.view, len(page.Tuples), page.Total, want, size)
	}
	if c.shadow != nil {
		c.shadow.replayQuery(i, o, page, &c.res)
	}
	return nil
}

func (c *client) stats(i int) error {
	var st engine.Stats
	c.timed(i, opStats, func() { st = c.e.Stats() })
	if len(st.Views) != len(c.w.views) {
		c.res.fail("op %d: stats lists %d views, want %d", i, len(st.Views), len(c.w.views))
	}
	if c.shadow != nil {
		c.shadow.replayStats(i, st, &c.res)
	}
	return nil
}

// runScripts runs one client per script concurrently and returns their
// results in script order and the wall time of the whole run.
func runScripts(e *engine.Engine, w *workloadSpec, shadows []*shadow) ([]clientResult, float64) {
	clients := make([]*client, len(w.scripts))
	for i := range clients {
		clients[i] = &client{e: e, w: w}
		if shadows != nil {
			clients[i].shadow = shadows[i]
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c *client, script []op) {
			defer wg.Done()
			c.run(script)
		}(clients[i], w.scripts[i])
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	out := make([]clientResult, len(clients))
	for i, c := range clients {
		out[i] = c.res
	}
	return out, wall
}

// merged pools the clients' measurements.
func merged(rs []clientResult) clientResult {
	var m clientResult
	for _, r := range rs {
		for k := opKind(0); k < numKinds; k++ {
			m.lat[k] = append(m.lat[k], r.lat[k]...)
			m.attempts[k] += r.attempts[k]
			m.failures[k] += r.failures[k]
		}
		m.placements = append(m.placements, r.placements...)
		m.wrong = append(m.wrong, r.wrong...)
	}
	return m
}

// checkPlacement verifies a sampled placement against an independently
// computed where-provenance index: the chosen source location must reach
// the target location, and reach exactly sideEffects other locations.
func checkPlacement(wv *annotation.WhereView, p placementSample) error {
	if !wv.PropagatesTo(p.src, p.target, p.attr) {
		return fmt.Errorf("placement %v for (%v, %s) on %s does not propagate to it", p.src, p.target, p.attr, p.view)
	}
	if got := wv.Affected(p.src).Len() - 1; got != p.sideEffects {
		return fmt.Errorf("placement %v for (%v, %s) on %s has %d side effects, engine reported %d", p.src, p.target, p.attr, p.view, got, p.sideEffects)
	}
	return nil
}
