package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/annotation"
	"repro/internal/core"
	"repro/internal/deletion"
	"repro/internal/engine"
	"repro/internal/relation"
)

// newServer wires the JSON endpoints onto an engine. Split from main so
// the handler tests drive it through httptest. The returned server is an
// http.Handler; closing the engine drains its write queue for a graceful
// shutdown.
func newServer(e *engine.Engine) *server {
	s := &server{engine: e}
	mux := http.NewServeMux()
	mux.HandleFunc("/prepare", s.handlePrepare)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/insert", s.handleInsert)
	mux.HandleFunc("/annotate", s.handleAnnotate)
	mux.HandleFunc("/stats", s.handleStats)
	s.mux = mux
	return s
}

type server struct {
	engine *engine.Engine
	mux    *http.ServeMux

	asyncAccepted  atomic.Int64 // jobs admitted to the write queue (202)
	asyncRejected  atomic.Int64 // jobs refused on a full queue (429)
	asyncCompleted atomic.Int64 // jobs committed
	asyncFailed    atomic.Int64 // jobs whose commit failed (e.g. target vanished)

	// errMu guards recentErrs, a ring of the most recent async commit
	// failures (newest last) surfaced under /stats "async"."last_errors" —
	// without it a failed 202 job was visible only as a counter.
	errMu      sync.Mutex
	recentErrs []asyncErrorJSON // guarded-by: errMu
}

// ServeHTTP makes the server mountable directly into http.Server.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxRecentErrors bounds the async failure ring.
const maxRecentErrors = 16

// asyncErrorJSON is one recorded async commit failure. View names the
// prepared view of a delete job, Rel the source relation of an insert job.
type asyncErrorJSON struct {
	Op    string `json:"op"`
	View  string `json:"view,omitempty"`
	Rel   string `json:"rel,omitempty"`
	Error string `json:"error"`
}

// asyncDone is the engine callback of an accepted async job: it counts
// the outcome and records a failure in the ring.
func (s *server) asyncDone(job asyncErrorJSON) func(error) {
	return func(err error) {
		if err == nil {
			s.asyncCompleted.Add(1)
			return
		}
		s.asyncFailed.Add(1)
		job.Error = err.Error()
		s.errMu.Lock()
		s.recentErrs = append(s.recentErrs, job)
		if len(s.recentErrs) > maxRecentErrors {
			s.recentErrs = s.recentErrs[1:]
		}
		s.errMu.Unlock()
		log.Printf("propviewd: async %s: %v", job.Op, err)
	}
}

// lastAsyncErrors snapshots the failure ring, newest last.
func (s *server) lastAsyncErrors() []asyncErrorJSON {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return append([]asyncErrorJSON{}, s.recentErrs...)
}

type errorResponse struct {
	Error string `json:"error"`
}

// errBodyTooLarge marks a request body that blew the decoder's size cap —
// a distinct condition (413) from a malformed body (400).
var errBodyTooLarge = errors.New("request body too large")

// statusOf maps domain errors onto HTTP statuses: unknown names and absent
// tuples are 404, a conflicting prepare is 409, an oversized body is 413,
// a full write queue or a closed engine is 503, everything else a caller
// sent us is 400. (An async write finding the queue full is a 429 instead;
// see submitAsync.)
func statusOf(err error) int {
	switch {
	case errors.Is(err, engine.ErrUnknownView),
		errors.Is(err, engine.ErrUnknownRelation),
		errors.Is(err, deletion.ErrNotInView),
		errors.Is(err, annotation.ErrNoPlacement):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, engine.ErrOverloaded), errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is gone; all that is left is to log. Typically a
		// client hangup mid-response.
		log.Printf("propviewd: encoding response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// maxBodyBytes caps request bodies; the largest legitimate payload is a
// batched /delete, far under a megabyte.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes one JSON object from a size-capped request
// body. An oversized body maps to errBodyTooLarge (413), not a generic
// bad-request error.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: limit is %d bytes", errBodyTooLarge, mbe.Limit)
		}
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// requireMethod answers 405 and reports false on a method mismatch.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
		return false
	}
	return true
}

// parseTuple converts a JSON tuple (array of strings) against a schema
// arity.
func parseTuple(vals []string, arity int) (relation.Tuple, error) {
	if len(vals) != arity {
		return nil, fmt.Errorf("tuple has %d values, view needs %d", len(vals), arity)
	}
	t := make(relation.Tuple, len(vals))
	for i, s := range vals {
		t[i] = relation.ParseValue(s, true)
	}
	return t, nil
}

// parseTuples parses a request's "tuple" or its "tuples" (not both)
// against arity; group reports that it was "tuples". what names the
// operation for the missing-tuple error.
func parseTuples(one []string, many [][]string, arity int, what string) (ts []relation.Tuple, group bool, err error) {
	switch {
	case len(one) > 0 && len(many) > 0:
		return nil, false, fmt.Errorf("give either tuple or tuples, not both")
	case len(one) > 0:
		many = [][]string{one}
	case len(many) > 0:
		group = true
	default:
		return nil, false, fmt.Errorf("missing tuple (or tuples) to %s", what)
	}
	ts = make([]relation.Tuple, len(many))
	for i, vals := range many {
		if ts[i], err = parseTuple(vals, arity); err != nil {
			return nil, false, err
		}
	}
	return ts, group, nil
}

func renderTuple(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.String()
	}
	return out
}

// --- /prepare ---

type prepareRequest struct {
	Name  string `json:"name"`
	Query string `json:"query"`
}

type prepareResponse struct {
	Name     string   `json:"name"`
	Query    string   `json:"query"`
	Fragment string   `json:"fragment"`
	Schema   []string `json:"schema"`
	ViewSize int      `json:"view_size"`
}

func (s *server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req prepareRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.engine.PrepareText(req.Name, req.Query); err != nil {
		writeErr(w, err)
		return
	}
	info, err := s.engine.Describe(req.Name)
	if err != nil {
		writeErr(w, err)
		return
	}
	schema, err := s.engine.Schema(req.Name)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, prepareResponse{
		Name:     req.Name,
		Query:    info.Query,
		Fragment: info.Fragment,
		Schema:   schema.Attrs(),
		ViewSize: info.ViewSize,
	})
}

// --- /query ---

// Query pagination bounds. A request without ?limit= gets
// defaultQueryLimit rows; an explicit limit is capped at maxQueryLimit so
// one request can never serialize an unbounded view.
const (
	defaultQueryLimit = 1000
	maxQueryLimit     = 10000
)

// queryResponse is one page of a view. Tuples holds rows
// [offset, offset+limit) of the lexicographically sorted view; Total is
// the full view cardinality, so offset+len(tuples) < total means more
// pages remain. Limit and Offset echo the effective (clamped) values.
// Generation identifies the published snapshot the page was cut from —
// the sorted row set is cached per generation (engine.QueryPage), so a
// paginating client can detect a commit landing between pages by a
// generation change.
type queryResponse struct {
	View       string     `json:"view"`
	Schema     []string   `json:"schema"`
	Tuples     [][]string `json:"tuples"`
	Total      int        `json:"total"`
	Offset     int        `json:"offset"`
	Limit      int        `json:"limit"`
	Generation int64      `json:"generation"`
}

// parsePositiveInt reads an optional non-negative integer query parameter.
func parsePositiveInt(q string, name string, def int) (int, error) {
	if q == "" {
		return def, nil
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", name, q)
	}
	return v, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	params := r.URL.Query()
	name := params.Get("view")
	if name == "" {
		writeErr(w, fmt.Errorf("missing ?view= parameter"))
		return
	}
	limit, err := parsePositiveInt(params.Get("limit"), "limit", defaultQueryLimit)
	if err != nil {
		writeErr(w, err)
		return
	}
	// limit=0 is a valid metadata-only request: an empty page whose total
	// still reports the view cardinality.
	if limit > maxQueryLimit {
		limit = maxQueryLimit
	}
	offset, err := parsePositiveInt(params.Get("offset"), "offset", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The engine serves the page off the per-snapshot sorted cache: the
	// first page of a generation pays the sort, every later page (from any
	// client) is an O(page) slice until the next commit publishes a fresh
	// snapshot.
	page, err := s.engine.QueryPage(name, offset, limit)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := queryResponse{
		View:       name,
		Schema:     page.Schema.Attrs(),
		Tuples:     [][]string{},
		Total:      page.Total,
		Offset:     page.Offset,
		Limit:      page.Limit,
		Generation: page.Generation,
	}
	for _, t := range page.Tuples {
		resp.Tuples = append(resp.Tuples, renderTuple(t))
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /delete ---

type deleteRequest struct {
	View      string     `json:"view"`
	Tuple     []string   `json:"tuple,omitempty"`  // single target
	Tuples    [][]string `json:"tuples,omitempty"` // batched targets
	Objective string     `json:"objective,omitempty"`
	Greedy    bool       `json:"greedy,omitempty"`
	// Async answers once the engine has admitted the delete to its write
	// queue (202 Accepted) instead of after the commit. A full queue
	// answers 429.
	Async bool `json:"async,omitempty"`
}

type sourceTupleJSON struct {
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
}

// deleteResponse describes a committed deletion. When concurrent /delete
// requests coalesced in the engine, every participant receives the same
// combined report: deletions and side_effects then cover the whole batch,
// not just this request's target, and the algorithm string carries a
// "coalesced" marker. Run the server with -max-batch 1 for strictly
// per-request responses.
type deleteResponse struct {
	View        string            `json:"view"`
	Class       string            `json:"class"`
	Fragment    string            `json:"fragment"`
	Algorithm   string            `json:"algorithm"`
	Exact       bool              `json:"exact"`
	Deletions   []sourceTupleJSON `json:"deletions"`
	SideEffects [][]string        `json:"side_effects"`
	// ViewSize and Generation come from the report's committed snapshot,
	// not a post-commit Describe — under concurrent writers the two could
	// otherwise disagree about which generation the size describes.
	ViewSize   int   `json:"view_size"`
	Generation int64 `json:"generation"`
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req deleteRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	schema, err := s.engine.Schema(req.View)
	if err != nil {
		writeErr(w, err)
		return
	}

	var obj core.Objective
	switch req.Objective {
	case "", "view":
		obj = core.MinimizeViewSideEffects
	case "source":
		obj = core.MinimizeSourceDeletions
	default:
		writeErr(w, fmt.Errorf("objective must be \"view\" or \"source\", got %q", req.Objective))
		return
	}

	opts := core.DeleteOptions{Greedy: req.Greedy}
	targets, group, err := parseTuples(req.Tuple, req.Tuples, schema.Len(), "delete")
	if err != nil {
		writeErr(w, err)
		return
	}

	if req.Async {
		s.submitAsync(w, engine.Write{View: req.View, Targets: targets, Group: group, Objective: obj, Options: opts},
			asyncErrorJSON{Op: "delete", View: req.View})
		return
	}

	var rep *core.DeleteReport
	if group {
		rep, err = s.engine.DeleteGroup(req.View, targets, obj, opts)
	} else {
		rep, err = s.engine.Delete(req.View, targets[0], obj, opts)
	}
	if err != nil {
		writeErr(w, err)
		return
	}

	resp := deleteResponse{
		View:        req.View,
		Class:       rep.Class.String(),
		Fragment:    rep.Fragment,
		Algorithm:   rep.Algorithm,
		Exact:       rep.Exact,
		Deletions:   []sourceTupleJSON{},
		SideEffects: [][]string{},
	}
	for _, st := range rep.Result.T {
		resp.Deletions = append(resp.Deletions, sourceTupleJSON{Rel: st.Rel, Tuple: renderTuple(st.Tuple)})
	}
	for _, t := range rep.Result.SideEffects {
		resp.SideEffects = append(resp.SideEffects, renderTuple(t))
	}
	resp.ViewSize = rep.ViewSize
	resp.Generation = rep.Generation
	writeJSON(w, http.StatusOK, resp)
}

// asyncAcceptedResponse acknowledges an enqueued async write.
type asyncAcceptedResponse struct {
	Op         string `json:"op"`
	View       string `json:"view,omitempty"`
	Rel        string `json:"rel,omitempty"`
	Queued     bool   `json:"queued"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
}

// submitAsync admits a validated write to the engine's write queue, or
// pushes back: a full queue (429) is the client's signal to retry later or
// fall back to a synchronous write; a closed (shutting-down) engine
// refuses with 503. job names the write for the response and, should the
// commit fail, for the error ring.
func (s *server) submitAsync(w http.ResponseWriter, write engine.Write, job asyncErrorJSON) {
	err := s.engine.Submit(write, s.asyncDone(job))
	switch {
	case errors.Is(err, engine.ErrOverloaded):
		s.asyncRejected.Add(1)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: "write queue full; retry later or write synchronously",
		})
	case err != nil:
		writeErr(w, err)
	default:
		s.asyncAccepted.Add(1)
		depth, capacity := s.engine.Queue()
		writeJSON(w, http.StatusAccepted, asyncAcceptedResponse{
			Op:         job.Op,
			View:       job.View,
			Rel:        job.Rel,
			Queued:     true,
			QueueDepth: depth,
			QueueCap:   capacity,
		})
	}
}

// --- /insert ---

// insertRequest adds tuples to one source relation. Re-inserting exactly
// the tuples a previous /delete removed undoes the propagated deletion:
// every prepared view and witness basis is restored byte-identically.
type insertRequest struct {
	Rel    string     `json:"rel"`
	Tuple  []string   `json:"tuple,omitempty"`  // single tuple
	Tuples [][]string `json:"tuples,omitempty"` // batched tuples
	// Async answers once the insert is admitted to the same write queue
	// as async deletes (202 Accepted / 429 on a full queue).
	Async bool `json:"async,omitempty"`
}

// insertResponse describes a committed insertion. Like deleteResponse,
// coalesced concurrent /insert requests share one combined report. Views
// reuses the engine's report type directly — its JSON tags are part of the
// engine API.
type insertResponse struct {
	Rel        string                    `json:"rel"`
	Requested  int                       `json:"requested"`
	Inserted   []sourceTupleJSON         `json:"inserted"`
	Duplicates int                       `json:"duplicates"`
	SourceSize int                       `json:"source_size"`
	Coalesced  bool                      `json:"coalesced"`
	Views      []engine.InsertViewUpdate `json:"views"`
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req insertRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	schema, err := s.engine.SourceSchema(req.Rel)
	if err != nil {
		writeErr(w, err)
		return
	}
	rows, _, err := parseTuples(req.Tuple, req.Tuples, schema.Len(), "insert")
	if err != nil {
		writeErr(w, err)
		return
	}
	tuples := make([]relation.SourceTuple, len(rows))
	for i, t := range rows {
		tuples[i] = relation.SourceTuple{Rel: req.Rel, Tuple: t}
	}

	if req.Async {
		s.submitAsync(w, engine.Write{Insert: tuples}, asyncErrorJSON{Op: "insert", Rel: req.Rel})
		return
	}

	rep, err := s.engine.Insert(tuples)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := insertResponse{
		Rel:        req.Rel,
		Requested:  rep.Requested,
		Inserted:   []sourceTupleJSON{},
		Duplicates: rep.Duplicates,
		SourceSize: rep.SourceSize,
		Coalesced:  rep.Coalesced,
		Views:      []engine.InsertViewUpdate{},
	}
	for _, st := range rep.Inserted {
		resp.Inserted = append(resp.Inserted, sourceTupleJSON{Rel: st.Rel, Tuple: renderTuple(st.Tuple)})
	}
	resp.Views = append(resp.Views, rep.Views...)
	writeJSON(w, http.StatusOK, resp)
}

// --- /annotate ---

type annotateRequest struct {
	View  string   `json:"view"`
	Tuple []string `json:"tuple"`
	Attr  string   `json:"attr"`
}

type locationJSON struct {
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
	Attr  string   `json:"attr"`
}

type annotateResponse struct {
	View        string       `json:"view"`
	Class       string       `json:"class"`
	Fragment    string       `json:"fragment"`
	Algorithm   string       `json:"algorithm"`
	Source      locationJSON `json:"source"`
	SideEffects int          `json:"side_effects"`
}

func (s *server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req annotateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	schema, err := s.engine.Schema(req.View)
	if err != nil {
		writeErr(w, err)
		return
	}
	target, err := parseTuple(req.Tuple, schema.Len())
	if err != nil {
		writeErr(w, err)
		return
	}
	rep, err := s.engine.Annotate(req.View, target, req.Attr)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, annotateResponse{
		View:      req.View,
		Class:     rep.Class.String(),
		Fragment:  rep.Fragment,
		Algorithm: rep.Algorithm,
		Source: locationJSON{
			Rel:   rep.Placement.Source.Rel,
			Tuple: renderTuple(rep.Placement.Source.Tuple),
			Attr:  string(rep.Placement.Source.Attr),
		},
		SideEffects: rep.Placement.SideEffects,
	})
}

// --- /stats ---

// asyncStats reports the async writes and the engine's write queue
// alongside the engine counters. Enabled is always true; it stays for
// clients that read it.
type asyncStats struct {
	Enabled    bool  `json:"enabled"`
	QueueCap   int   `json:"queue_cap"`
	QueueDepth int   `json:"queue_depth"`
	Accepted   int64 `json:"accepted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Rejected   int64 `json:"rejected"`
	// LastErrors is a bounded ring of the most recent async commit
	// failures, newest last.
	LastErrors []asyncErrorJSON `json:"last_errors"`
}

// statsResponse embeds the engine stats so its fields stay at the top
// level of the JSON object, with the server-side async queue nested under
// "async".
type statsResponse struct {
	engine.Stats
	Async asyncStats `json:"async"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	depth, capacity := s.engine.Queue()
	writeJSON(w, http.StatusOK, statsResponse{Stats: s.engine.Stats(), Async: asyncStats{
		Enabled:    true,
		QueueCap:   capacity,
		QueueDepth: depth,
		Accepted:   s.asyncAccepted.Load(),
		Completed:  s.asyncCompleted.Load(),
		Failed:     s.asyncFailed.Load(),
		Rejected:   s.asyncRejected.Load(),
		LastErrors: s.lastAsyncErrors(),
	}})
}
