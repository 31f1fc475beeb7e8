// The write pipeline: concurrent write requests coalesce into batches that
// commit under one lock. Delete/DeleteGroup requests against the same view
// coalesce into one cached-basis group solve; concurrent Insert requests
// coalesce into one source extension with one delta-maintenance sweep; and
// the per-view incremental maintenance of every commit fans out across a
// bounded worker pool. Both kinds flow through the same batcher/batch
// machinery and the same commit lock, so an arbitrary interleaving of
// deletions and insertions is just a sequence of serialized batch commits
// (differential_test.go proves the sequence equivalent to applying the
// requests one at a time).
//
// Life of a delete request:
//
//  1. join — the request enters the view's pending batch if one is open
//     and compatible (same objective and solver options, combined target
//     count within MaxBatchSize); otherwise it opens a new batch and
//     becomes its leader.
//  2. collect — the leader waits up to MaxCoalesceWait (or until the batch
//     is full) for followers, then blocks on the engine's commit lock.
//     Contention is the natural coalescing window: while an earlier batch
//     is committing, later requests pile into the pending batch for free,
//     so throughput under load no longer degrades to one solve per
//     request even with MaxCoalesceWait = 0.
//  3. commit — holding the commit lock, the leader freezes the batch,
//     validates each request's targets against the current snapshot
//     (requests with vanished targets fail individually; they never poison
//     the batch), runs ONE group solve over the union of surviving
//     targets (deletion.*GroupBasis), and applies the chosen source
//     deletions with one maintenance sweep: every prepared view's
//     ApplyDeletion runs on the worker pool, since each view's snapshot is
//     independent of the others.
//  4. publish — the new source generation and every view's new snapshot
//     are published atomically; each view's generation counter advances by
//     the number of coalesced requests, so for requests with distinct
//     targets the generation counts are identical to applying the requests
//     one at a time (see differential_test.go). Requests that target the
//     SAME tuple and coalesce all succeed — they were concurrent and the
//     tuple was present at the commit's snapshot — whereas a strict serial
//     order would fail all but the first with ErrNotInView; coalescing
//     linearizes such requests as simultaneous.
package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/parallel"
	"repro/internal/relation"
)

// Options tunes the engine's write pipeline. The zero value selects the
// defaults noted on each field.
type Options struct {
	// Workers bounds how many prepared views a commit maintains at once;
	// each view's own maintenance pass is serial. Default:
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxBatchSize caps the total number of target tuples coalesced into
	// one group solve. A single DeleteGroup larger than the cap is still
	// admitted, alone. Default: 32. Set to 1 to disable coalescing.
	MaxBatchSize int
	// MaxCoalesceWait is how long a batch leader waits for followers
	// before committing. Zero (the default) means no artificial wait:
	// batching then arises only from contention on the commit lock, which
	// keeps uncontended latency unchanged.
	MaxCoalesceWait time.Duration
	// Segments is the number of hash-partitioned segments each source
	// relation is stored as (relation.Database.Sharded). Every segment
	// keeps its own overlay and fold/squash schedule, so commit-time
	// derivation and compaction scatter across segments and run in
	// parallel, and folds cost O(segment) instead of O(relation). Zero
	// (the default) and one both mean the one-segment store. Worth
	// raising for large relations under write load; a good starting point
	// is a few segments per core.
	Segments int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatchSize <= 0 {
		o.MaxBatchSize = 32
	}
	if o.MaxCoalesceWait < 0 {
		o.MaxCoalesceWait = 0
	}
	return o
}

// writeKind distinguishes the two write request types in the pipeline.
type writeKind uint8

const (
	writeDelete writeKind = iota
	writeInsert
)

// batchKey is the compatibility class of a write request: only requests of
// the same kind may share a batch, and deletions additionally must solve
// for the same objective with the same solver options to share a group
// solve. (Insertions have no solver knobs, so all concurrent inserts are
// compatible.)
type batchKey struct {
	kind          writeKind
	obj           core.Objective
	greedy        bool
	maxCandidates int
}

// writeReq is one caller's write inside a batch: a Delete/DeleteGroup
// (targets/group, answered in report) or an Insert (tuples, answered in
// ins). The leader fills the answer and err before closing the batch's
// done channel.
type writeReq struct {
	kind    writeKind
	targets []relation.Tuple       // delete: view tuples to remove
	group   bool                   // delete: DeleteGroup vs Delete
	tuples  []relation.SourceTuple // insert: source tuples to add

	report *core.DeleteReport
	ins    *InsertReport
	err    error
}

// size is the request's contribution to its batch's coalescing cap.
func (r *writeReq) size() int {
	if r.kind == writeInsert {
		return len(r.tuples)
	}
	return len(r.targets)
}

// batch is one coalesced unit of work: every request commits or fails
// together in a single group solve + maintenance sweep.
type batch struct {
	key  batchKey
	reqs []*writeReq
	size int           // total targets across reqs
	full chan struct{} // closed when size reaches MaxBatchSize
	done chan struct{} // closed after the leader commits
}

// batcher is a coalescing point — one per view for deletions, one per
// engine for insertions. Pending batches are keyed by compatibility class,
// so a mixed stream (e.g. alternating objectives) keeps one open batch per
// class instead of each incompatible arrival orphaning the previous batch
// and degrading coalescing to size 1.
type batcher struct {
	mu      sync.Mutex
	pending map[batchKey]*batch // guarded-by: mu (open batches accepting joiners)
}

// join adds req to the open batch of its compatibility class, or opens a
// new batch with req as leader. Returns the batch and whether the caller
// leads it.
func (bt *batcher) join(req *writeReq, key batchKey, maxSize int) (*batch, bool) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if b := bt.pending[key]; b != nil && b.size+req.size() <= maxSize {
		b.reqs = append(b.reqs, req)
		b.size += req.size()
		if b.size >= maxSize {
			close(b.full)
			delete(bt.pending, key) // full: stop admitting joiners
		}
		return b, false
	}
	b := &batch{
		key:  key,
		reqs: []*writeReq{req},
		size: req.size(),
		full: make(chan struct{}),
		done: make(chan struct{}),
	}
	if b.size >= maxSize {
		// An oversized (or cap-1) request runs alone; don't register it so
		// nothing piles onto a batch that will never admit a joiner.
		close(b.full)
		return b, true
	}
	// A same-key batch at capacity was deleted above; a same-key batch
	// below capacity was joined. So the slot is free here.
	if bt.pending == nil {
		bt.pending = make(map[batchKey]*batch)
	}
	bt.pending[key] = b
	return b, true
}

// freeze closes the batch to new joiners; membership is final afterwards.
func (bt *batcher) freeze(b *batch) {
	bt.mu.Lock()
	if bt.pending[b.key] == b {
		delete(bt.pending, b.key)
	}
	bt.mu.Unlock()
}

// runBatch is the leader's path: collect followers, take the commit lock,
// freeze and commit (the kind-specific commit function does the work). The
// unlock and the done broadcast are deferred so a panicking solver cannot
// wedge the engine (commit lock held forever) or strand followers on
// b.done; followers of a panicked batch fail with an error while the panic
// itself propagates on the leader's goroutine.
func (e *Engine) runBatch(bt *batcher, b *batch, commit func(*batch)) {
	if e.opt.MaxCoalesceWait > 0 {
		timer := time.NewTimer(e.opt.MaxCoalesceWait)
		select {
		case <-b.full:
		case <-timer.C:
		}
		timer.Stop()
	}
	e.wmu.Lock()
	defer close(b.done)
	defer e.wmu.Unlock()
	bt.freeze(b)
	defer func() {
		if r := recover(); r != nil {
			for _, req := range b.reqs {
				if req.err == nil && req.report == nil && req.ins == nil {
					req.err = fmt.Errorf("engine: write batch panicked: %v", r)
				}
			}
			panic(r)
		}
	}()
	commit(b)
}

// validateTargets reports the first target absent from view, mirroring
// deletion.GroupTargets' per-target check so a vanished target fails its
// own request instead of the whole batch.
func validateTargets(view *relation.Relation, targets []relation.Tuple) error {
	_, err := deletion.GroupTargets(view, targets)
	return err
}

// commitDelete runs one group solve over every live delete request in the
// batch and applies the result. Callers hold wmu.
func (e *Engine) commitDelete(p *prepared, b *batch) {
	snap := p.snap.Load()

	// Per-request validation: a target that vanished between enqueue and
	// commit (typically deleted by the batch committed just before this
	// one) fails only its own request.
	live := b.reqs[:0:0]
	var merged []relation.Tuple
	for _, r := range b.reqs {
		if err := validateTargets(snap.prov.View, r.targets); err != nil {
			r.err = err
			continue
		}
		live = append(live, r)
		merged = append(merged, r.targets...)
	}
	if len(live) == 0 {
		return
	}

	report := &core.DeleteReport{Fragment: p.frag}
	vopt := deletion.ViewOptions{MaxCandidates: b.key.maxCandidates}
	var solveErr error
	switch {
	case b.key.obj == core.MinimizeViewSideEffects:
		report.Class = p.cls.view
		r, err := deletion.ViewExactGroupBasis(snap.prov, merged, vopt)
		if err != nil {
			solveErr = err
			break
		}
		report.Algorithm = "cached-basis exact hitting-set search"
		report.Result = &r.Result
		report.Exact = r.Exhausted
	case b.key.greedy:
		report.Class = p.cls.source
		r, err := deletion.SourceGreedyGroupBasis(snap.prov, merged)
		if err != nil {
			solveErr = err
			break
		}
		report.Algorithm = "cached-basis greedy hitting set (H_n-approx)"
		report.Result = &r.Result
		report.Exact = false
	default:
		report.Class = p.cls.source
		r, err := deletion.SourceExactGroupBasis(snap.prov, merged)
		if err != nil {
			solveErr = err
			break
		}
		report.Algorithm = "cached-basis exact minimum hitting set"
		report.Result = &r.Result
		report.Exact = true
	}
	if solveErr != nil {
		for _, r := range live {
			r.err = solveErr
		}
		return
	}
	if len(live) > 1 {
		report.Algorithm += " (batched, coalesced)"
	} else if live[0].group {
		report.Algorithm += " (batched)"
	}

	e.apply(report.Result.T, len(live))
	// The committed snapshot's view size and generation travel in the
	// report so servers never pair this commit's deletions with a LATER
	// generation's view size (we still hold wmu, so the values read here
	// are exactly what this commit published).
	report.ViewSize = p.snap.Load().prov.View.Len()
	report.Generation = p.gen.Load()
	e.nDeletes.Add(int64(len(live)))
	e.nDeleted.Add(int64(len(report.Result.T)))
	e.nBatches.Add(1)
	if len(live) > 1 {
		e.nCoalesced.Add(int64(len(live)))
	}
	for _, r := range live {
		r.report = report
	}
}

// commitInsert extends the source with every novel tuple of the batch and
// delta-maintains every prepared view. Duplicate tuples — already present,
// or claimed by an earlier request in the same batch — are idempotent
// no-ops, so a request whose tuples all exist succeeds without advancing
// any generation; generations advance by the number of requests that
// contributed at least one novel tuple, keeping the counts identical to
// applying the requests one at a time. The maintenance pass is two-phase:
// every view's next snapshot is computed (fanned out on the worker pool)
// before anything is published, so a failure — e.g. a grown basis tripping
// a PrepareLimited cap — publishes nothing. When a COALESCED batch fails,
// the requests are replayed one at a time (mirroring the delete path's
// per-request attribution of vanished targets): only the request whose
// tuples actually blow a cap fails, innocent concurrent inserts succeed
// exactly as they would have under any serial order. Callers hold wmu.
func (e *Engine) commitInsert(b *batch) {
	if err := e.insertGroup(b.reqs); err != nil {
		if len(b.reqs) == 1 {
			b.reqs[0].err = err
			return
		}
		for _, r := range b.reqs {
			if rerr := e.insertGroup([]*writeReq{r}); rerr != nil {
				r.err = rerr
			}
		}
	}
}

// insertGroup commits one set of insert requests as a unit: novel-tuple
// claiming in request order, one source extension, one fanned-out
// delta-maintenance sweep, one publish. On success every request receives
// the shared report; on failure nothing is published, no request is
// touched, and the error is returned for the caller to attribute. Callers
// hold wmu.
//
// propview:publish
func (e *Engine) insertGroup(reqs []*writeReq) error {
	e.mu.RLock()
	db := e.db
	ps := make([]*prepared, 0, len(e.views))
	for _, p := range e.views {
		ps = append(ps, p)
	}
	e.mu.RUnlock()

	seen := make(map[string]bool)
	var novel []relation.SourceTuple
	requested, contributing := 0, 0
	for _, r := range reqs {
		requested += len(r.tuples)
		claimed := false
		for _, st := range r.tuples {
			if seen[st.Key()] || db.Contains(st) {
				continue
			}
			seen[st.Key()] = true
			novel = append(novel, st)
			claimed = true
		}
		if claimed {
			contributing++
		}
	}

	report := &InsertReport{
		Requested:  requested,
		Inserted:   novel,
		Duplicates: requested - len(novel),
		Coalesced:  len(reqs) > 1,
	}
	finish := func() {
		report.SourceSize = e.database().Size()
		for _, p := range ps {
			report.Views = append(report.Views, InsertViewUpdate{
				Name:       p.name,
				ViewSize:   p.snap.Load().prov.View.Len(),
				Generation: p.gen.Load(),
			})
		}
		sort.Slice(report.Views, func(i, j int) bool { return report.Views[i].Name < report.Views[j].Name })
		e.nInserts.Add(int64(len(reqs)))
		if len(reqs) > 1 {
			e.nCoalescedIns.Add(int64(len(reqs)))
		}
		for _, r := range reqs {
			r.ins = report
		}
	}
	if len(novel) == 0 {
		finish() // pure duplicates: succeed without publishing a generation
		return nil
	}

	newDB, err := db.InsertAll(novel)
	if err != nil {
		// Unreachable for requests validated by Insert.
		return err
	}
	next := make([]*snapshot, len(ps))
	errs := make([]error, len(ps))
	e.fanOut(len(ps), func(i int) {
		old := ps[i].snap.Load()
		prov, ierr := old.prov.ApplyInsertion(novel)
		if ierr != nil {
			errs[i] = fmt.Errorf("engine: maintaining view %q: %w", ps[i].name, ierr)
			return
		}
		next[i] = nextSnapshot(old, newDB, prov, true, novel)
	})
	for _, ierr := range errs {
		if ierr != nil {
			return ierr
		}
	}

	e.mu.Lock()
	e.db = newDB
	for i, p := range ps {
		p.snap.Store(next[i])
		p.gen.Add(int64(contributing))
	}
	e.sgen.Add(1)
	e.mu.Unlock()
	e.nMaint.Add(int64(len(ps)))
	e.nInserted.Add(int64(len(novel)))
	e.nBatches.Add(1)
	finish()
	return nil
}

// fanOut runs fn(0..n-1), one prepared view per index, on up to
// e.opt.Workers goroutines and waits for all of them.
//
// propview:fanout
func (e *Engine) fanOut(n int, fn func(i int)) { parallel.For(n, e.opt.Workers, fn) }
