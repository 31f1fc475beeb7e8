// Package engine is the prepared-view serving layer: the long-lived object
// a server process holds when the paper's one-shot solvers must answer
// sustained traffic against the same views.
//
// Prepare runs the algebra layer once per view — validation, Theorem 3.1
// normalization, join-order optimization — then materializes the view and
// computes the witness basis (why-provenance); the where-provenance index
// follows on the view's first Annotate. Query, Witnesses, Delete,
// DeleteGroup, Insert and Annotate requests are answered from that cached
// state:
//
//   - deletions solve on the cached basis (internal/deletion's *Basis
//     solvers) and maintain the materialized view and basis of every
//     prepared view incrementally via provenance.Result.ApplyDeletion,
//     instead of re-evaluating the query and rebuilding the basis per
//     request;
//   - DeleteGroup amortizes one basis pass and one hitting-set solve across
//     a whole batch of targets;
//   - insertions (Insert) extend the source and delta-maintain every view
//     and basis via provenance.Result.ApplyInsertion — new witnesses are
//     exactly the derivations using inserted tuples — so a curated
//     database can grow, and can undo a propagated deletion by restoring
//     exactly the deleted tuples, without a restart-and-re-Prepare;
//   - annotation placement answers from the where-provenance index, built
//     lazily and then caught up, never rebuilt per write. A write can
//     shrink or widen the where-set of a *surviving* view tuple (e.g. when
//     a projection pre-image dies with its join partner), so the index
//     retains its annotated operator tree and WhereView.ApplyDeletion /
//     ApplyInsertion propagate a write through it in O(|Δ|). Commits leave
//     the index alone: a snapshot holds either a built index or a
//     catch-up log — an older generation's index plus the ordered writes
//     since — and the first Annotate on the generation replays the log,
//     off the commit lock. Once the pending tuples outnumber the base
//     index's view rows the log is dropped and that Annotate rebuilds the
//     index from scratch instead. Each index generation carries per-
//     location reach counts, so placement compares its candidates in O(1)
//     each and walks only the winner's forward image (see Annotate);
//     ViewStats.WhereReady reports whether an Annotate on the current
//     generation runs no full computation;
//   - paged reads (QueryPage) serve the view's rows in sorted order from
//     rows sorted once and then caught up the same way: a commit links
//     the view delta its maintenance pass reported
//     (provenance.Result.ViewDelta) onto the older sorted rows, and the
//     generation's first page read merges the net delta in, off the
//     commit lock; ViewStats.SortedReady reports whether that read runs
//     no full sort.
//
// Concurrency: readers are lock-free on immutable snapshots.
// Writes — deletions and insertions — enter one bounded FIFO queue whose
// head batch is committed by whoever holds the commit lock: a waiting
// caller or, for Submitted writes, a committer goroutine (pipeline.go).
// Queued Delete/DeleteGroup requests against the same view coalesce into
// a single cached-basis group solve, queued Insert requests into a single
// source extension, and each commit maintains its prepared views one
// after another on the committing goroutine — so throughput under write
// contention does not degrade to one solve per request. Prepare
// computes off the commit lock against a captured source generation and
// revalidates at registration, so an expensive prepare never stalls
// concurrent writes. The engine owns a private frozen snapshot of the
// source database and never mutates a published generation, so concurrent
// Query/Annotate readers and Delete/Insert writers are race-free by
// construction (see race_test.go). Options tunes the pipeline (batch
// cap, queue bound); the zero value keeps uncontended latency identical
// to a serial engine.
//
// Storage: source generations live in the persistent, structure-sharing
// versioned store (internal/relation, store.go). A commit derives the
// next generation in O(|Δ|) — untouched relations are shared by pointer,
// touched relations get a frozen version (a tombstone/append layer)
// sharing the same base arrays — instead of the old copy-the-world
// DeleteAll/InsertAll, so commit cost scales with the
// write, not with |S|, and retaining several generations (the serving one
// plus those pinned by view snapshots) costs overlays, not copies. Stats
// surfaces the store's sharing/compaction counters and the live version
// count.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/relation"
)

// ErrUnknownView is returned (wrapped) when a request names a view that was
// never prepared.
var ErrUnknownView = fmt.Errorf("engine: unknown view")

// ErrConflict is returned (wrapped) when Prepare reuses a view name for a
// different query.
var ErrConflict = fmt.Errorf("engine: view already prepared with a different query")

// ErrUnknownRelation is returned (wrapped) when an Insert names a source
// relation the engine's database does not have.
var ErrUnknownRelation = fmt.Errorf("engine: unknown source relation")

// snapshot is one immutable generation of a prepared view: the source
// database generation it reflects, the materialized view with its witness
// basis, and the lazily-built where-provenance index. Snapshots are never
// mutated after publication; writers replace them wholesale.
type snapshot struct {
	db   *relation.Database // source generation this snapshot reflects
	prov *provenance.Result // materialized view + witness basis

	// where is the where-provenance index: built by the generation's
	// first Annotate, which catches an older generation's index up by
	// replaying the source writes committed since, or computes it from
	// scratch when none is pending.
	where catchUp[annotation.WhereView, sourceWrite]
	// whereErr is the error of a failed index computation, cached like a
	// result.
	// guarded-by: atomic
	whereErr atomic.Pointer[error]

	// sorted holds the view rows in lexicographic order, the rows
	// QueryPage slices, so a page costs O(page). The generation's first
	// page read catches an older generation's sorted rows up by merging in
	// the view deltas committed since, or sorts the view when none is
	// pending.
	sorted catchUp[[]relation.Tuple, provenance.Delta]
}

// sourceWrite is one committed write a where index has yet to replay: a
// deletion's T or an insertion's novel tuples.
type sourceWrite struct {
	ins bool
	T   []relation.SourceTuple
}

// whereLen sizes a where-index base for the log's drop rule.
func whereLen(wv *annotation.WhereView) int { return wv.View.Len() }

// sortedView returns the snapshot's lexicographically sorted rows,
// producing them at most once per generation, off the commit lock.
func (s *snapshot) sortedView() []relation.Tuple {
	return *s.sorted.get(replaySorted, func() (*[]relation.Tuple, bool) {
		rows := sortTuples(s.prov.View)
		return &rows, true
	})
}

// sortedReady reports whether a page read on this generation runs no full
// sort: the sorted rows are built, or a base to catch up from is pending.
func (s *snapshot) sortedReady() bool { return s.sorted.ready() }

// nextSnapshot wraps a view's maintenance result for the new source
// generation; ins and T are the committed write. When the write left the
// result untouched — ApplyDeletion / ApplyInsertion returned the receiver
// because the write was disjoint from the view — every cache carries over
// as is: the sorted page rows and the where index, built or pending. A
// changed result carries its sorted rows over when its view rows did not
// change, and otherwise leaves them pending: the old generation's sorted
// rows (or its log's base) plus the result's view delta, merged on the
// next page read. Its where index is pending likewise: the old
// generation's index (or its base) plus the write, replayed on the next
// Annotate. Once a log's pending tuples outnumber its base's rows,
// replaying would cost about as much as starting over, so the base is
// dropped and the next read sorts the view, or the next Annotate computes
// the index, from scratch. Runs under the commit lock, so it only links:
// no sorting, merging or key hashing.
func nextSnapshot(old *snapshot, newDB *relation.Database, prov *provenance.Result, ins bool, T []relation.SourceTuple) *snapshot {
	s := &snapshot{db: newDB, prov: prov}
	if prov == old.prov {
		s.sorted.carry(&old.sorted)
		s.where.carry(&old.where)
		return s
	}
	// A write that left the view's rows as they were carries the sorted
	// rows over rather than logging an empty delta, so a log's length in
	// writes stays bounded by its pending rows.
	if d := prov.ViewDelta(); len(d.Died)+len(d.Added) == 0 {
		s.sorted.carry(&old.sorted)
	} else {
		s.sorted.follow(&old.sorted, d, len(d.Died)+len(d.Added), sortedLen)
	}
	s.where.follow(&old.where, sourceWrite{ins: ins, T: T}, len(T), whereLen)
	return s
}

// computeWhere builds a where-provenance index; a package variable so
// engine tests can count full computations and inject failures (the error
// paths are otherwise unreachable for a plan that already passed Prepare).
var computeWhere = annotation.ComputeWhere

// computeProvenance evaluates a view with its witness basis; a package
// variable so engine tests can stall or race the off-lock part of Prepare.
var computeProvenance = provenance.ComputeLimited

// whereView returns the where-provenance index of this generation,
// producing it at most once: a carried or already produced index is
// returned as is; otherwise the first caller replays the pending writes
// onto the base index, or — with no base — computes the index from
// scratch. Either way it runs off the commit lock. A caught-up index
// whose interner has outgrown its live source locations (see
// internerBloated) is replaced by a from-scratch computation. A
// computation error is cached like a result: it is surfaced on every
// Annotate against this generation but never blocks Prepare or the write
// path.
func (s *snapshot) whereView(plan algebra.Query) (*annotation.WhereView, error) {
	replay := func(wv *annotation.WhereView, ws []sourceWrite) (*annotation.WhereView, bool) {
		for _, w := range ws {
			if w.ins {
				wv = wv.ApplyInsertion(w.T)
			} else {
				wv = wv.ApplyDeletion(w.T)
			}
		}
		if internerBloated(wv) {
			// A failed rebuild keeps the caught-up index: it answers
			// correctly, only with a larger interner.
			if fresh, err := computeWhere(plan, s.db); err == nil {
				wv = fresh
			}
		}
		return wv, true
	}
	build := func() (*annotation.WhereView, bool) {
		wv, err := computeWhere(plan, s.db)
		if err != nil {
			s.whereErr.Store(&err)
			return nil, false
		}
		return wv, true
	}
	if wv := s.where.get(replay, build); wv != nil {
		return wv, nil
	}
	return nil, *s.whereErr.Load()
}

// internerBloated reports whether a where index's interner holds more than
// twice the source locations its scans still hold. The interner only
// appends (a restored tuple gets its old ids back), so an engine inserting
// ever-new tuples would grow it without bound; a from-scratch index starts
// at exactly the live locations, so a rebuild runs at most once per
// live-location count of inserted locations.
func internerBloated(wv *annotation.WhereView) bool {
	return wv.InternedLocations() > 2*wv.LiveLocations()
}

// whereReady reports whether an Annotate on this generation runs no full
// index computation: the index is built, or a base to catch up from is
// pending.
func (s *snapshot) whereReady() bool { return s.where.ready() }

// prepared is one registered view: its plan (fixed at Prepare time) and the
// current snapshot generation.
type prepared struct {
	name string
	src  string        // canonical textual form of the original query
	plan algebra.Query // normalized + join-optimized
	frag string
	rels []string // the source relations the plan reads
	cls  struct {
		view, source, ann algebra.Class
	}
	annAlg string // every Annotate report's Algorithm: annotation.Route's label

	snap atomic.Pointer[snapshot] // guarded-by: atomic
	// gen counts the write requests maintained through.
	// guarded-by: atomic
	// propview:generation
	gen atomic.Int64
}

// Engine serves prepared views over a private copy of a source database.
type Engine struct {
	opt   Options
	mu    sync.RWMutex         // guards views map, db pointer and sgen
	wmu   sync.Mutex           // commit lock: one batch solves+publishes at a time
	db    *relation.Database   // guarded-by: mu
	views map[string]*prepared // guarded-by: mu
	// sgen is the source generation: committed write batches so far. The
	// atomic type makes bare reads safe; commits additionally publish it
	// under mu so (db, sgen) can be captured as a consistent pair.
	// guarded-by: atomic
	// propview:generation
	sgen atomic.Int64

	// The write queue (pipeline.go); qmu is taken under wmu, not around it.
	qmu        sync.Mutex
	queue      []*writeReq    // guarded-by: qmu (admitted, not yet batched)
	committing bool           // guarded-by: qmu (the committer goroutine runs)
	closed     bool           // guarded-by: qmu (Close was called)
	committer  sync.WaitGroup // the committer goroutine and waiting callers, for Close

	// Request counters (atomic; Stats assembles them).
	nPrepares     atomic.Int64
	nQueries      atomic.Int64
	nDeletes      atomic.Int64
	nInserts      atomic.Int64
	nAnnotates    atomic.Int64
	nDeleted      atomic.Int64 // source tuples deleted
	nInserted     atomic.Int64 // novel source tuples inserted
	nMaint        atomic.Int64 // incremental basis maintenance passes
	nBatches      atomic.Int64 // committed write batches
	nCoalesced    atomic.Int64 // delete requests that shared a batch
	nCoalescedIns atomic.Int64 // insert requests that shared a batch
}

// New creates an engine over a private frozen snapshot of db
// (relation.Database.Freeze). Freezing copies each builder relation of db
// once, O(|S|), and shares an already frozen relation in O(1); either way
// later mutations of the caller's database do not reach the engine,
// which is what makes the published generations immutable. An optional
// Options tunes the write pipeline; omitted or zero fields take the
// documented defaults.
func New(db *relation.Database, opts ...Options) *Engine {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	return &Engine{opt: o, db: db.Freeze(), views: make(map[string]*prepared)}
}

// Prepare registers q under name: the query is validated, normalized
// (Theorem 3.1 — propagation-preserving, so cached provenance answers match
// the original query), join-order optimized, evaluated, and its witness
// basis is computed and cached. The where-provenance index is not: the
// view's first Annotate computes it, and from then on every Annotate only
// replays the writes committed since the index's generation (see
// Annotate), so a view that is never annotated never pays for or holds an
// index. Preparing the same (name, query) pair again is a no-op; reusing a
// name for a different query returns ErrConflict.
func (e *Engine) Prepare(name string, q algebra.Query) error {
	return e.PrepareLimited(name, q, provenance.Limit{})
}

// maxPrepareRetries bounds how many times a prepare recomputes off-lock
// after losing a race with a commit before it gives up and computes while
// holding the commit lock (guaranteed progress under a hot write stream).
const maxPrepareRetries = 3

// PrepareLimited is Prepare with a cap on the witness basis, for
// adversarial queries whose basis is exponential (Corollary 3.1). The cap
// is enforced here and re-enforced by Insert's incremental maintenance, so
// every later write stays within it too.
//
// The expensive work — evaluation and witness-basis computation — runs
// WITHOUT the commit lock, against a captured source
// generation; concurrent deletes and inserts commit freely underneath an
// in-flight prepare instead of stalling behind it. Registration then takes
// the commit lock and revalidates the captured generation: if a commit
// landed meanwhile, the prepare recomputes against the newer source (after
// maxPrepareRetries lost races it computes while holding the lock, which
// cannot lose). Holding the lock at registration time still guarantees a
// registered view never misses a maintenance pass.
func (e *Engine) PrepareLimited(name string, q algebra.Query, lim provenance.Limit) error {
	if name == "" {
		return fmt.Errorf("engine: empty view name")
	}
	src := algebra.Format(q)

	build := func(db *relation.Database) (*prepared, *snapshot, error) {
		if err := algebra.Validate(q, db); err != nil {
			return nil, nil, err
		}
		plan := algebra.OptimizeJoins(algebra.Normalize(q), db)
		prov, err := computeProvenance(plan, db, lim)
		if err != nil {
			return nil, nil, err
		}
		p := &prepared{name: name, src: src, plan: plan, frag: algebra.Fragment(q), rels: algebra.BaseRelations(plan)}
		p.cls.view = algebra.Classify(q, algebra.ProblemViewSideEffect)
		p.cls.source = algebra.Classify(q, algebra.ProblemSourceSideEffect)
		p.cls.ann = algebra.Classify(q, algebra.ProblemAnnotationPlacement)
		_, alg := annotation.Route(algebra.OperatorsOf(q))
		p.annAlg = "cached where-index " + alg
		return p, &snapshot{db: db, prov: prov}, nil
	}

	for attempt := 0; ; attempt++ {
		// Capture (source, generation) atomically; both are published
		// together under mu by every commit.
		e.mu.RLock()
		existing := e.views[name]
		db := e.db
		gen := e.sgen.Load()
		e.mu.RUnlock()
		if existing != nil {
			if existing.src == src {
				return nil
			}
			return fmt.Errorf("%w: %q is %s, not %s", ErrConflict, name, existing.src, src)
		}

		p, snap, err := build(db)
		if err != nil {
			return err
		}

		e.wmu.Lock()
		if e.sgen.Load() != gen {
			// A commit landed while we computed: this snapshot reflects a
			// stale source. Recompute — off-lock again if retries remain,
			// else against the now-stable current source while holding wmu.
			if attempt < maxPrepareRetries {
				e.wmu.Unlock()
				continue
			}
			e.mu.RLock()
			db = e.db
			e.mu.RUnlock()
			if p, snap, err = build(db); err != nil {
				e.wmu.Unlock()
				return err
			}
		}
		e.mu.Lock()
		if other := e.views[name]; other != nil {
			// A concurrent prepare won the name while we computed.
			e.mu.Unlock()
			e.wmu.Unlock()
			if other.src == src {
				return nil
			}
			return fmt.Errorf("%w: %q is %s, not %s", ErrConflict, name, other.src, src)
		}
		p.snap.Store(snap)
		e.views[name] = p
		e.mu.Unlock()
		e.wmu.Unlock()
		e.nPrepares.Add(1)
		return nil
	}
}

// PrepareText is Prepare with a query in the textual syntax.
func (e *Engine) PrepareText(name, querySrc string) error {
	q, err := algebra.Parse(querySrc)
	if err != nil {
		return err
	}
	return e.Prepare(name, q)
}

// lookup resolves a prepared view by name.
func (e *Engine) lookup(name string) (*prepared, error) {
	e.mu.RLock()
	p := e.views[name]
	e.mu.RUnlock()
	if p == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownView, name)
	}
	return p, nil
}

// Views returns the prepared view names in lexicographic order.
//
// propview:deterministic
func (e *Engine) Views() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.views))
	for n := range e.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns metadata about one prepared view. Unlike Stats it
// leaves WitnessCount and Tree zero, and unlike Query it
// does not count toward the served-query statistics — it is the cheap
// accessor for servers composing responses.
//
// The snapshot and generation counter are read together under the read
// lock so they always describe the same published generation: commits
// publish both under the write lock, and monitoring relies on the pairing
// (same Generation ⇒ same snapshot, so WhereReady can only go false→true
// between two observations of one generation).
func (e *Engine) Describe(name string) (ViewStats, error) {
	p, err := e.lookup(name)
	if err != nil {
		return ViewStats{}, err
	}
	e.mu.RLock()
	snap := p.snap.Load()
	gen := p.gen.Load()
	e.mu.RUnlock()
	return ViewStats{
		Name:        p.name,
		Query:       p.src,
		Fragment:    p.frag,
		ViewSize:    snap.prov.View.Len(),
		Generation:  gen,
		WhereReady:  snap.whereReady(),
		SortedReady: snap.sortedReady(),
	}, nil
}

// Schema returns the prepared view's output schema. Like Describe it does
// not count as a served query.
func (e *Engine) Schema(name string) (relation.Schema, error) {
	p, err := e.lookup(name)
	if err != nil {
		return relation.Schema{}, err
	}
	return p.snap.Load().prov.View.Schema(), nil
}

// Query returns the materialized view — no evaluation happens.
//
// Aliasing contract: the returned relation is a read-only view of the
// generation current when Query ran (relation.Relation.ReadOnly, O(1):
// the provenance layer publishes views frozen). It shares the snapshot's
// immutable store, so reads are free; it is NOT updated by later writes —
// re-Query for the current generation. A caller that mutates it thaws a
// private copy rather than racing with the engine, so the snapshot cannot
// be corrupted from outside.
//
// propview:read-only
func (e *Engine) Query(name string) (*relation.Relation, error) {
	p, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	e.nQueries.Add(1)
	return p.snap.Load().prov.View.ReadOnly(), nil
}

// ViewPage is one page of a prepared view in lexicographic order, as
// served by QueryPage.
type ViewPage struct {
	// Schema is the view's output schema.
	Schema relation.Schema
	// Tuples holds rows [Offset, Offset+Limit) of the sorted view. The
	// slice aliases the snapshot's sorted rows, which later generations
	// may share, and must not be modified.
	Tuples []relation.Tuple
	// Total is the full view cardinality, so Offset+len(Tuples) < Total
	// means more pages remain.
	Total int
	// Offset is the effective (end-clamped) offset of the page.
	Offset int
	// Limit echoes the requested limit.
	Limit int
	// Generation identifies the published snapshot the page was cut from;
	// two pages with equal Generation come from the same sorted row set.
	Generation int64
}

// QueryPage returns rows [offset, offset+limit) of the lexicographically
// sorted view — the serving path behind GET /query pagination. The sorted
// rows are produced at most once per published snapshot generation, by
// its first page read, and every later page of the generation costs
// O(page) slicing. That first read catches the previous sorted rows up
// instead of sorting the view: it nets the view deltas committed since
// (a delete and its restore cancel), drops the net dead rows and merges
// in the net added ones in one pass, O(n + k log n) for k delta rows
// against O(n log n) for a sort. Only the view's first read, and a read
// after a write log that outgrew its base, sort the whole view; a commit
// that leaves the view's rows as they were carries its sorted rows over.
// ViewStats.SortedReady reports whether the next read sorts. offset and
// limit must be non-negative; an offset past the end yields an empty
// page. Counts as one served query.
func (e *Engine) QueryPage(name string, offset, limit int) (ViewPage, error) {
	p, err := e.lookup(name)
	if err != nil {
		return ViewPage{}, err
	}
	if offset < 0 || limit < 0 {
		return ViewPage{}, fmt.Errorf("engine: negative offset or limit")
	}
	// Snapshot and generation are read together under the read lock so the
	// page is attributable to one published generation (see Describe).
	e.mu.RLock()
	snap := p.snap.Load()
	gen := p.gen.Load()
	e.mu.RUnlock()
	rows := snap.sortedView()
	total := len(rows)
	if offset > total {
		offset = total
	}
	end := total
	if limit < total-offset {
		end = offset + limit
	}
	e.nQueries.Add(1)
	return ViewPage{
		Schema:     snap.prov.View.Schema(),
		Tuples:     rows[offset:end],
		Total:      total,
		Offset:     offset,
		Limit:      limit,
		Generation: gen,
	}, nil
}

// Witnesses returns the cached minimal witnesses of view tuple t (nil if t
// is not in the view).
//
// Aliasing contract: the slice is the caller's to keep — it is copied out
// of the snapshot — but the Witness values share the snapshot's immutable
// tuple data; they are values and cannot be mutated in place.
func (e *Engine) Witnesses(name string, t relation.Tuple) ([]provenance.Witness, error) {
	p, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	e.nQueries.Add(1)
	ws := p.snap.Load().prov.Witnesses(t)
	if ws == nil {
		return nil, nil
	}
	return append([]provenance.Witness(nil), ws...), nil
}

// Delete removes target from the named view by deleting source tuples,
// minimizing the requested objective. The solve runs on the cached witness
// basis; the chosen deletions are then applied to the engine's source and
// every prepared view's materialized state is maintained incrementally.
//
// Delete waits for its commit. Requests queued back to back against the
// same view with the same objective and options coalesce into a single
// group solve (see pipeline.go); coalesced callers all receive the same
// read-only report of the combined batch. A full write queue refuses with
// ErrOverloaded, a closed engine with ErrClosed.
//
// Of the options, MaxCandidates and Greedy apply; opts.MaxWitnesses has no
// effect here because the basis is fixed when the view is prepared — cap
// it with PrepareLimited instead.
func (e *Engine) Delete(name string, target relation.Tuple, obj core.Objective, opts core.DeleteOptions) (*core.DeleteReport, error) {
	r := e.await(Write{View: name, Targets: []relation.Tuple{target}, Objective: obj, Options: opts})
	return r.report, r.err
}

// DeleteGroup removes a whole batch of view tuples in one request: one
// basis pass and one hitting-set solve cover every target, and the
// incremental maintenance runs once for the combined deletion set. Like
// Delete, queued calls may coalesce into one larger group solve.
func (e *Engine) DeleteGroup(name string, targets []relation.Tuple, obj core.Objective, opts core.DeleteOptions) (*core.DeleteReport, error) {
	r := e.await(Write{View: name, Targets: targets, Group: true, Objective: obj, Options: opts})
	return r.report, r.err
}

// Insert adds source tuples to the engine's database and incrementally
// extends every prepared view's materialized state and witness basis by a
// delta evaluation (provenance.Result.ApplyInsertion): new witnesses are
// exactly the derivations using at least one inserted tuple, so nothing is
// recomputed from scratch. Re-inserting exactly the tuples a previous
// Delete removed restores the pre-deletion view, basis and source —
// insertion is the undo the deletion-only engine lacked.
//
// Tuples already present are idempotent no-ops, reported in the report's
// Duplicates count. Inserts flow through the same write queue as
// deletes: inserts queued back to back may share one commit (one source
// extension, one delta-maintenance sweep), all receiving the same combined
// read-only report, and per-view generations advance once per request that
// contributed a novel tuple — exactly as if the requests ran one at a
// time. A view prepared under a PrepareLimited witness cap re-enforces the
// cap: an insertion that would grow some basis past it fails the whole
// batch (wrapped provenance.ErrLimit) and publishes nothing.
func (e *Engine) Insert(tuples []relation.SourceTuple) (*InsertReport, error) {
	if len(tuples) == 0 {
		return nil, fmt.Errorf("engine: empty insert set")
	}
	r := e.await(Write{Insert: tuples})
	return r.ins, r.err
}

// apply publishes a new source generation with T removed and incrementally
// maintains every prepared view, one ApplyDeletion pass after another.
// reqs is the number of coalesced delete requests this commit carries;
// each view's generation counter advances by it, keeping generation
// counts identical to applying the requests one at a time.
// Callers hold wmu.
//
// propview:publish
func (e *Engine) apply(T []relation.SourceTuple, reqs int) {
	if len(T) == 0 {
		return
	}
	e.mu.RLock()
	db := e.db
	ps := make([]*prepared, 0, len(e.views))
	for _, p := range e.views {
		ps = append(ps, p)
	}
	e.mu.RUnlock()

	newDB := db.DeleteAll(T)
	next := make([]*snapshot, len(ps))
	for i, p := range ps {
		old := p.snap.Load()
		next[i] = nextSnapshot(old, newDB, old.prov.ApplyDeletion(T), false, T)
	}
	e.nMaint.Add(int64(len(ps)))

	e.mu.Lock()
	e.db = newDB
	for i, p := range ps {
		p.snap.Store(next[i])
		p.gen.Add(int64(reqs))
	}
	e.sgen.Add(1)
	e.mu.Unlock()
}

// Annotate places an annotation on view location (target, attr) with
// minimal side-effects, from the view's where-provenance index. The first
// Annotate on a view computes the index; after that, the first Annotate on
// each later generation catches the index up by replaying the writes
// committed since (annotation.WhereView.ApplyDeletion / ApplyInsertion),
// off the commit lock, so it pays for what changed rather than for the
// view. Placement then reads the candidates' reach counts and walks only
// the winner's forward image (annotation.PlaceOn), for every class: the
// index holds exactly the candidates Theorems 3.3 and 3.4 enumerate, and
// the label names the theorem of the view's class.
func (e *Engine) Annotate(name string, target relation.Tuple, attr relation.Attribute) (*core.AnnotateReport, error) {
	p, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	snap := p.snap.Load()
	wv, err := snap.whereView(p.plan)
	if err != nil {
		return nil, err
	}
	placement, err := annotation.PlaceOn(wv, target, attr)
	if err != nil {
		return nil, err
	}
	e.nAnnotates.Add(1)
	return &core.AnnotateReport{
		Class:     p.cls.ann,
		Fragment:  p.frag,
		Algorithm: p.annAlg,
		Placement: placement,
	}, nil
}

// Database returns the current source generation as a read-only frozen
// snapshot (relation.Database.Freeze, O(#relations): every relation of a
// generation is frozen, so each is shared as a new header over its
// immutable store). It is detached from later commits, and a caller
// mutating one of its relations thaws a private copy instead of reaching
// the engine's state.
func (e *Engine) Database() *relation.Database {
	return e.database().Freeze()
}

// database returns the live current generation; engine-internal readers
// use it directly (they never mutate a published generation).
func (e *Engine) database() *relation.Database {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.db
}

// SourceSchema returns the schema of one source relation, or (wrapped)
// ErrUnknownRelation. The relation set and schemas are fixed at engine
// construction, so this is the cheap accessor request validators want —
// unlike Database it does not snapshot the whole store.
func (e *Engine) SourceSchema(rel string) (relation.Schema, error) {
	r := e.database().Relation(rel)
	if r == nil {
		return relation.Schema{}, fmt.Errorf("%w: %q", ErrUnknownRelation, rel)
	}
	return r.Schema(), nil
}

// ViewStats describes one prepared view's cached state.
type ViewStats struct {
	// Name is the prepared view's registered name.
	Name string `json:"name"`
	// Query is the canonical textual form of the original query.
	Query string `json:"query"`
	// Fragment is the operator fragment (e.g. "PJ", "SPU").
	Fragment string `json:"fragment"`
	// ViewSize is the current materialized-view cardinality.
	ViewSize int `json:"view_size"`
	// WitnessCount is the total number of cached minimal witnesses.
	WitnessCount int `json:"witness_count"`
	// Generation counts the write requests (deletions and insertions)
	// maintained through.
	Generation int64 `json:"generation"`
	// WhereReady reports whether an Annotate on the current generation
	// runs no full where-index computation: the index is built, or an
	// older generation's index is pending catch-up. False until the view's
	// first Annotate, and after a write log long enough that a rebuild is
	// due.
	WhereReady bool `json:"where_ready"`
	// SortedReady reports whether a page read on the current generation
	// runs no full sort of the view: its sorted rows are built, or an
	// older generation's sorted rows are pending catch-up. False until the
	// view's first page read, and after a write log long enough that a
	// fresh sort is due.
	SortedReady bool `json:"sorted_ready"`
	// Tree summarizes the view's provenance-tree store: node count and
	// overlay shape of the current generation plus the lifetime
	// sharing/compaction counters (provenance.Result.TreeStats). Like
	// WitnessCount it is filled by Stats, not by Describe.
	Tree provenance.TreeStats `json:"tree"`
}

// InsertReport is the outcome of a committed Insert. Coalesced requests
// share one report describing the combined batch; it must be treated as
// read-only.
type InsertReport struct {
	// Requested is the total number of tuples the batch asked to insert.
	Requested int `json:"requested"`
	// Inserted lists the novel source tuples actually added, in request
	// order. Empty when every requested tuple already existed.
	Inserted []relation.SourceTuple `json:"inserted"`
	// Duplicates counts requested tuples that were already present (or
	// repeated within the batch) and were skipped as idempotent no-ops.
	Duplicates int `json:"duplicates"`
	// SourceSize is the source tuple count after the commit.
	SourceSize int `json:"source_size"`
	// Coalesced reports whether this commit carried more than one request.
	Coalesced bool `json:"coalesced"`
	// Views carries each prepared view's post-commit size and generation,
	// sorted by name — the same committed-snapshot pairing DeleteReport
	// carries for its view.
	Views []InsertViewUpdate `json:"views"`
}

// InsertViewUpdate is one prepared view's state after an insert commit.
type InsertViewUpdate struct {
	Name       string `json:"name"`
	ViewSize   int    `json:"view_size"`
	Generation int64  `json:"generation"`
}

// Stats is a point-in-time summary of the engine's state and traffic.
type Stats struct {
	// SourceSize is the total tuple count of the current source generation.
	SourceSize int `json:"source_size"`
	// Views describes every prepared view, sorted by name.
	Views []ViewStats `json:"views"`
	// Request counters.
	Prepares  int64 `json:"prepares"`
	Queries   int64 `json:"queries"`
	Deletes   int64 `json:"deletes"`
	Inserts   int64 `json:"inserts"`
	Annotates int64 `json:"annotates"`
	// DeletedSourceTuples is the total number of source tuples removed.
	DeletedSourceTuples int64 `json:"deleted_source_tuples"`
	// InsertedSourceTuples is the total number of novel source tuples added
	// (duplicate inserts are idempotent and not counted).
	InsertedSourceTuples int64 `json:"inserted_source_tuples"`
	// IncrementalMaintenances counts per-view maintenance passes —
	// ApplyDeletion or ApplyInsertion, one per prepared view per committed
	// write batch.
	IncrementalMaintenances int64 `json:"incremental_maintenances"`
	// CommitBatches counts committed write batches of either kind;
	// (Deletes+Inserts)/CommitBatches is the average coalescing factor.
	CommitBatches int64 `json:"commit_batches"`
	// CoalescedDeletes counts delete requests that shared their batch with
	// at least one other request.
	CoalescedDeletes int64 `json:"coalesced_deletes"`
	// CoalescedInserts counts insert requests that shared their batch with
	// at least one other request.
	CoalescedInserts int64 `json:"coalesced_inserts"`
	// LiveSourceVersions counts the distinct source generations currently
	// retained: the serving generation plus any older generations still
	// referenced by view snapshots (e.g. a view whose maintenance a reader
	// captured before the latest publish). Structure sharing makes holding
	// several live versions cheap — they differ by overlays, not copies.
	LiveSourceVersions int `json:"live_source_versions"`
	// Store summarizes the versioned source store: current overlay shape
	// plus lifetime sharing and compaction counters.
	Store relation.StoreStats `json:"store"`
	// MaintenanceWorkers is always 1: each view's maintenance pass is
	// serial. Kept only for the benchmark driver (perfbench) until the
	// next change allowed to edit it.
	MaintenanceWorkers int `json:"maintenance_workers"`
}

// Stats assembles the current counters and per-view summaries. Like
// Describe, each view's snapshot and generation are captured as a pair
// under the read lock. The cost is O(views): each view's witness total is
// carried by its maintained basis (provenance.Result.WitnessCount), not
// counted by walking the view.
func (e *Engine) Stats() Stats {
	type viewCapture struct {
		p    *prepared
		snap *snapshot
		gen  int64
	}
	e.mu.RLock()
	db := e.db
	ps := make([]viewCapture, 0, len(e.views))
	for _, p := range e.views {
		ps = append(ps, viewCapture{p: p, snap: p.snap.Load(), gen: p.gen.Load()})
	}
	e.mu.RUnlock()

	live := map[*relation.Database]struct{}{db: {}}
	for _, c := range ps {
		live[c.snap.db] = struct{}{}
	}

	st := Stats{
		SourceSize:              db.Size(),
		LiveSourceVersions:      len(live),
		Store:                   db.StoreStats(),
		Prepares:                e.nPrepares.Load(),
		Queries:                 e.nQueries.Load(),
		Deletes:                 e.nDeletes.Load(),
		Inserts:                 e.nInserts.Load(),
		Annotates:               e.nAnnotates.Load(),
		DeletedSourceTuples:     e.nDeleted.Load(),
		InsertedSourceTuples:    e.nInserted.Load(),
		IncrementalMaintenances: e.nMaint.Load(),
		CommitBatches:           e.nBatches.Load(),
		CoalescedDeletes:        e.nCoalesced.Load(),
		CoalescedInserts:        e.nCoalescedIns.Load(),
		MaintenanceWorkers:      1,
	}
	for _, c := range ps {
		st.Views = append(st.Views, ViewStats{
			Name:         c.p.name,
			Query:        c.p.src,
			Fragment:     c.p.frag,
			ViewSize:     c.snap.prov.View.Len(),
			WitnessCount: c.snap.prov.WitnessCount(),
			Generation:   c.gen,
			WhereReady:   c.snap.whereReady(),
			SortedReady:  c.snap.sortedReady(),
			Tree:         c.snap.prov.TreeStats(),
		})
	}
	sort.Slice(st.Views, func(i, j int) bool { return st.Views[i].Name < st.Views[j].Name })
	return st
}
