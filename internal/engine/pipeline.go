// The write pipeline is group commit (DeWitt et al., "Implementation
// Techniques for Main Memory Database Systems", SIGMOD 1984): every write
// — a Delete, DeleteGroup or Insert its caller waits on, or a write handed
// to Submit — enters one bounded FIFO queue, and whoever holds the commit
// lock commits the batch at its head, so writes that queue during a commit
// share the next batch without a timer. A waiting caller commits batches
// on its own goroutine until its own write has committed, so an
// uncontended write pays no hand-off; a Submitted write starts a committer
// goroutine if none runs, which exits when the queue is empty. Batches
// commit in queue order (differential_test.go proves the sequence
// equivalent to applying the requests one at a time), and queue order is
// admission order but for one case: a waiting caller's write that shares
// no source relation with any queued write, all of them other waiting
// callers', goes to the head (overtakes). The writes it passes are still
// in flight, so committing it first is as correct a serialization, they
// leave the same source either way, and a cheap write need not wait out an
// unrelated solve.
//
// Life of a delete request:
//
//  1. admit — Delete validates the view and targets and queues the
//     request; a full queue (MaxQueue) refuses with ErrOverloaded, a
//     closed engine with ErrClosed.
//  2. batch — holding the commit lock, a committer takes the head of the
//     queue and every request directly behind it against the same view
//     with the same objective and solver options, within MaxBatchSize
//     targets (an oversized head runs alone).
//  3. commit — commitDelete fails each request whose targets vanished
//     individually, runs ONE group solve over the union of the surviving
//     targets (core.SolveBasis), and maintains every prepared view
//     once, one after another. A panic fails only this batch's requests.
//  4. publish — the new source generation and every view's snapshot are
//     published atomically; each view's generation advances by the number
//     of coalesced requests, as if they ran one at a time. Coalesced
//     requests on the SAME tuple all succeed, linearized as simultaneous,
//     where a serial order would fail all but the first.
//  5. answer — after releasing the lock, the committer wakes the batch's
//     waiting callers and runs its Submit callbacks.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/relation"
)

// Options tunes the engine's write pipeline. The zero value selects the
// defaults noted on each field.
type Options struct {
	// MaxBatchSize caps the total number of target tuples coalesced into
	// one group solve. A single DeleteGroup larger than the cap is still
	// admitted, alone. Default: 32. Set to 1 to disable coalescing.
	MaxBatchSize int
	// MaxQueue bounds the writes admitted but not yet taken into a batch;
	// one more fails at once with ErrOverloaded. Default: 64.
	MaxQueue int
	// Segments is ignored.
	//
	// Deprecated: the source store has no segments any more. The field
	// stays only because perfbench still sets it (ROADMAP item 2(a)
	// deletes it).
	Segments int
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.MaxBatchSize <= 0 {
		o.MaxBatchSize = 32
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	return o
}

var (
	// ErrOverloaded is returned (wrapped) when a write finds the write
	// queue full (Options.MaxQueue). Nothing was admitted; retry later.
	ErrOverloaded = fmt.Errorf("engine: write queue full")
	// ErrClosed is returned when a write arrives after Close.
	ErrClosed = fmt.Errorf("engine: closed to writes")
)

// CommitHook, when non-nil, runs under the commit lock before each delete
// batch commits, with its view name: a seam for tests to inject a panic
// in place of a solver bug. Set it only while no engine is committing.
var CommitHook func(view string)

// batchKey is the compatibility class of a write request: deletions share
// a batch when they target the same view with the same objective and
// solver options; insertions all share the zero key.
type batchKey struct {
	view          *prepared // a deletion's view; nil for an insertion
	obj           core.Objective
	greedy        bool
	maxCandidates int
}

// writeReq is one caller's write: a Delete/DeleteGroup (targets/group,
// answered in report) or an Insert (tuples, answered in ins).
type writeReq struct {
	key     batchKey
	targets []relation.Tuple       // delete: view tuples to remove
	group   bool                   // delete: DeleteGroup vs Delete
	tuples  []relation.SourceTuple // insert: source tuples to add
	rels    []string               // the source relations the write reads or writes

	report *core.DeleteReport
	ins    *InsertReport
	err    error

	done   chan struct{} // a waiting caller's wake-up; nil for Submit
	notify func(error)   // the Submit callback, if any

	queued    bool // under qmu: admitted and not yet taken into a batch
	overtaken bool // under qmu: a later write went ahead of it
}

// size is the request's contribution to its batch's coalescing cap.
func (r *writeReq) size() int {
	if r.key.view == nil {
		return len(r.tuples)
	}
	return len(r.targets)
}

// batch is one coalesced unit of work: every request commits or fails
// together in a single group solve + maintenance sweep.
type batch struct {
	key  batchKey
	reqs []*writeReq
}

// Write is one write for Submit: a deletion of Targets from the prepared
// view View — minimizing Objective, as DeleteGroup when Group is set — or,
// when Insert is non-empty, an insertion of those source tuples. Of
// Options, MaxCandidates and Greedy apply (see Delete).
type Write struct {
	View      string
	Targets   []relation.Tuple
	Group     bool
	Objective core.Objective
	Options   core.DeleteOptions
	Insert    []relation.SourceTuple
}

// Submit validates w and admits it to the write queue without waiting. A
// nil error means the write is admitted: it commits in admission order,
// and done (nil is allowed) then runs with what Delete, DeleteGroup or
// Insert would have returned as error — on the goroutine that committed
// the write, so it must return promptly. A write that fails validation,
// finds the queue full (ErrOverloaded) or comes after Close (ErrClosed) is
// refused, and done never runs.
func (e *Engine) Submit(w Write, done func(error)) error {
	r, err := e.request(w)
	if err != nil {
		return err
	}
	r.notify = done
	return e.enqueue(r)
}

// await admits w and commits until it has committed. The returned request
// carries the outcome; a refused write carries the refusal in err.
func (e *Engine) await(w Write) *writeReq {
	r, err := e.request(w)
	if err == nil {
		r.done = make(chan struct{})
		if err = e.enqueue(r); err == nil {
			e.drain(r)
			<-r.done
			return r
		}
	}
	return &writeReq{err: err}
}

// request validates w and builds its queue entry, on the caller's
// goroutine, so a malformed write never takes a queue slot. MaxWitnesses
// is not carried: the basis was capped (or not) at Prepare time.
func (e *Engine) request(w Write) (*writeReq, error) {
	if len(w.Insert) == 0 {
		p, err := e.lookup(w.View)
		if err != nil {
			return nil, err
		}
		if len(w.Targets) == 0 {
			return nil, fmt.Errorf("engine: empty target set")
		}
		key := batchKey{view: p, obj: w.Objective, greedy: w.Options.Greedy, maxCandidates: w.Options.MaxCandidates}
		return &writeReq{key: key, targets: w.Targets, group: w.Group, rels: p.rels}, nil
	}
	if w.View != "" || len(w.Targets) > 0 {
		return nil, fmt.Errorf("engine: a write deletes view tuples or inserts source tuples, not both")
	}
	// The relation set and schemas are fixed at engine construction, so
	// this cannot race with commits.
	db := e.database()
	var rels []string
	for _, st := range w.Insert {
		r := db.Relation(st.Rel)
		if r == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownRelation, st.Rel)
		}
		if len(st.Tuple) != r.Schema().Len() {
			return nil, fmt.Errorf("engine: inserting arity-%d tuple into %s%s", len(st.Tuple), st.Rel, r.Schema())
		}
		if !slices.Contains(rels, st.Rel) {
			rels = append(rels, st.Rel)
		}
	}
	return &writeReq{tuples: w.Insert, rels: rels}, nil
}

// enqueue admits r: at the tail, or at the head when overtakes allows. A
// waiting caller then drains itself; a Submitted write starts the
// committer goroutine if none runs.
func (e *Engine) enqueue(r *writeReq) error {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if len(e.queue) >= e.opt.MaxQueue {
		return fmt.Errorf("%w: %d writes waiting", ErrOverloaded, len(e.queue))
	}
	r.queued = true
	if r.done != nil && overtakes(e.queue, r) {
		e.queue = slices.Insert(e.queue, 0, r)
	} else {
		e.queue = append(e.queue, r)
	}
	switch {
	case r.done != nil:
		e.committer.Add(1) // the caller's drain
	case !e.committing:
		e.committing = true
		e.committer.Add(1)
		go e.drain(nil)
	}
	return nil
}

// overtakes reports whether a waiting caller's write r may go to the head
// of queue — every queued write is another waiting caller's, shares no
// source relation with r, and was never passed before, which bounds how
// long a write can be held back — and if so marks them passed. Callers
// hold qmu.
func overtakes(queue []*writeReq, r *writeReq) bool {
	if len(queue) == 0 {
		return false
	}
	for _, q := range queue {
		if q.done == nil || q.overtaken {
			return false
		}
		for _, rel := range q.rels {
			if slices.Contains(r.rels, rel) {
				return false
			}
		}
	}
	for _, q := range queue {
		q.overtaken = true
	}
	return true
}

// drain commits the queue batch by batch: for a waiting caller until its
// own write until has committed, for the committer goroutine (until ==
// nil) until the queue is empty. Each batch commits under the commit lock
// and is answered after its release.
func (e *Engine) drain(until *writeReq) {
	defer e.committer.Done()
	for {
		e.wmu.Lock()
		b := e.nextBatch(until)
		if b != nil {
			e.commit(b)
		}
		e.wmu.Unlock()
		if b == nil {
			return
		}
		for _, r := range b.reqs {
			if r.done != nil {
				close(r.done)
			} else if r.notify != nil {
				r.notify(r.err)
			}
		}
		// Stop right after the batch holding until: taking the lock again
		// only to find it gone would cost the caller its turn at the lock.
		if until != nil && slices.Contains(b.reqs, until) {
			return
		}
	}
}

// nextBatch removes the batch at the head of the queue: the head request
// and every request directly behind it with the same key, while the
// combined size stays within MaxBatchSize. It returns nil once until has
// left the queue, and on an empty queue, which stops the committer
// goroutine. Callers hold wmu, so writes that queued while the commit lock
// was busy coalesce here.
func (e *Engine) nextBatch(until *writeReq) *batch {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if until != nil && !until.queued {
		return nil
	}
	if len(e.queue) == 0 {
		e.committing = false
		return nil
	}
	head := e.queue[0]
	n, size := 1, head.size()
	for n < len(e.queue) && e.queue[n].key == head.key && size+e.queue[n].size() <= e.opt.MaxBatchSize {
		size += e.queue[n].size()
		n++
	}
	b := &batch{key: head.key, reqs: slices.Clone(e.queue[:n])}
	for _, r := range b.reqs {
		r.queued = false
	}
	e.queue = slices.Delete(e.queue, 0, n)
	return b
}

// commit runs one batch through its kind's commit function. A panic — a
// solver or maintenance bug — fails the batch's unanswered requests
// instead of the process. Callers hold wmu.
func (e *Engine) commit(b *batch) {
	defer func() {
		if r := recover(); r != nil {
			for _, req := range b.reqs {
				if req.err == nil && req.report == nil && req.ins == nil {
					req.err = fmt.Errorf("engine: write batch panicked: %v", r)
				}
			}
		}
	}()
	if b.key.view == nil {
		e.commitInsert(b)
		return
	}
	if CommitHook != nil {
		CommitHook(b.key.view.name)
	}
	e.commitDelete(b.key.view, b)
}

// Queue reports the write queue's depth — admitted writes not yet taken
// into a batch — and its capacity, Options.MaxQueue.
func (e *Engine) Queue() (depth, capacity int) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue), e.opt.MaxQueue
}

// Close refuses every later write with ErrClosed and waits until every
// write admitted before it has committed and been answered. Reads keep
// working. Close is idempotent and optional: the committer goroutine
// exits whenever the queue drains, so a dropped engine leaks nothing.
func (e *Engine) Close() {
	e.qmu.Lock()
	e.closed = true
	e.qmu.Unlock()
	e.committer.Wait()
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

	report := &core.DeleteReport{Fragment: p.frag, Class: p.cls.source}
	if b.key.obj == core.MinimizeViewSideEffects {
		report.Class = p.cls.view
	}
	opts := core.DeleteOptions{MaxCandidates: b.key.maxCandidates, Greedy: b.key.greedy}
	if err := core.SolveBasis(report, snap.prov, merged, b.key.obj, opts); err != nil {
		for _, r := range live {
			r.err = err
		}
		return
	}
	report.Algorithm = "cached-basis " + report.Algorithm
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
// every view's next snapshot is computed before anything is published, so
// a failure — e.g. a grown basis tripping a PrepareLimited cap —
// publishes nothing. When a COALESCED batch fails,
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
	for i, p := range ps {
		old := p.snap.Load()
		prov, ierr := old.prov.ApplyInsertion(novel)
		if ierr != nil {
			return fmt.Errorf("engine: maintaining view %q: %w", p.name, ierr)
		}
		next[i] = nextSnapshot(old, newDB, prov, true, novel)
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
