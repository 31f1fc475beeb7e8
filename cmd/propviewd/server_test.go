package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
)

const testDB = `
relation UserGroup(user, group)
john, staff
john, admin
mary, admin

relation GroupFile(group, file)
staff, f1
admin, f1
admin, f2
`

const testQuery = "project(user, file; join(UserGroup, GroupFile))"

func newTestServer(t *testing.T, prepare bool) http.Handler {
	t.Helper()
	db, err := relation.ReadDatabaseString(testDB)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(db)
	if prepare {
		if err := e.PrepareText("access", testQuery); err != nil {
			t.Fatal(err)
		}
	}
	return newServer(e)
}

// do issues one request, asserts the response declares JSON, and decodes
// the body.
func do(t *testing.T, h http.Handler, method, url, body string) (int, map[string]any) {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, url, nil)
	} else {
		req = httptest.NewRequest(method, url, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type = %q, want application/json", method, url, ct)
	}
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, url, rec.Body.String())
	}
	return rec.Code, decoded
}

func TestHandlers(t *testing.T) {
	cases := []struct {
		name       string
		prepare    bool // prepare "access" before the request
		method     string
		url        string
		body       string
		wantStatus int
		check      func(t *testing.T, resp map[string]any)
	}{
		{
			name:   "prepare ok",
			method: http.MethodPost, url: "/prepare",
			body:       `{"name": "access", "query": "` + testQuery + `"}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				if resp["view_size"].(float64) != 4 {
					t.Errorf("view_size = %v, want 4", resp["view_size"])
				}
				if resp["fragment"].(string) != "PJ" {
					t.Errorf("fragment = %v, want PJ", resp["fragment"])
				}
			},
		},
		{
			name: "prepare same query is idempotent", prepare: true,
			method: http.MethodPost, url: "/prepare",
			body:       `{"name": "access", "query": "` + testQuery + `"}`,
			wantStatus: http.StatusOK,
		},
		{
			name: "conflicting prepare", prepare: true,
			method: http.MethodPost, url: "/prepare",
			body:       `{"name": "access", "query": "project(user; UserGroup)"}`,
			wantStatus: http.StatusConflict,
		},
		{
			name:   "prepare bad JSON",
			method: http.MethodPost, url: "/prepare",
			body:       `{"name": "x", `,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "prepare unknown field",
			method: http.MethodPost, url: "/prepare",
			body:       `{"name": "x", "sql": "select 1"}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "prepare unparsable query",
			method: http.MethodPost, url: "/prepare",
			body:       `{"name": "x", "query": "select * from t"}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name:   "prepare wrong method",
			method: http.MethodGet, url: "/prepare",
			wantStatus: http.StatusMethodNotAllowed,
		},
		{
			name: "query ok", prepare: true,
			method: http.MethodGet, url: "/query?view=access",
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				if n := len(resp["tuples"].([]any)); n != 4 {
					t.Errorf("%d tuples, want 4", n)
				}
			},
		},
		{
			name: "query unknown view", prepare: true,
			method: http.MethodGet, url: "/query?view=nope",
			wantStatus: http.StatusNotFound,
		},
		{
			name: "query missing view param", prepare: true,
			method: http.MethodGet, url: "/query",
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "delete ok", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "access", "tuple": ["john", "f2"], "objective": "view"}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				if n := len(resp["deletions"].([]any)); n == 0 {
					t.Error("no deletions reported")
				}
				// Deleting UserGroup(john, admin) removes (john,f2) with no
				// side-effects: (john,f1) survives via the staff route.
				// ViewSize/Generation come from the report's committed
				// snapshot, not a later Describe.
				if resp["view_size"].(float64) != 3 {
					t.Errorf("view_size = %v, want 3", resp["view_size"])
				}
				if resp["generation"].(float64) != 1 {
					t.Errorf("generation = %v, want 1", resp["generation"])
				}
				if n := len(resp["side_effects"].([]any)); n != 0 {
					t.Errorf("%d side-effects, want 0", n)
				}
			},
		},
		{
			name: "delete batched", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "access", "tuples": [["john","f1"],["mary","f1"]], "objective": "source"}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				if alg := resp["algorithm"].(string); !strings.Contains(alg, "batched") {
					t.Errorf("algorithm %q not marked batched", alg)
				}
			},
		},
		{
			name: "delete tuple not in view", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "access", "tuple": ["ghost", "f9"]}`,
			wantStatus: http.StatusNotFound,
		},
		{
			name: "delete unknown view", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "nope", "tuple": ["john", "f2"]}`,
			wantStatus: http.StatusNotFound,
		},
		{
			name: "delete bad JSON", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `not json`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "delete wrong arity", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "access", "tuple": ["john"]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "delete bad objective", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "access", "tuple": ["john", "f2"], "objective": "fastest"}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "delete missing tuple", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "access"}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "delete both tuple and tuples", prepare: true,
			method: http.MethodPost, url: "/delete",
			body:       `{"view": "access", "tuple": ["john","f1"], "tuples": [["mary","f1"]]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "insert ok", prepare: true,
			method: http.MethodPost, url: "/insert",
			body:       `{"rel": "UserGroup", "tuple": ["sue", "staff"]}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				if n := len(resp["inserted"].([]any)); n != 1 {
					t.Errorf("%d inserted, want 1", n)
				}
				views := resp["views"].([]any)
				if len(views) != 1 {
					t.Fatalf("%d views in insert response, want 1", len(views))
				}
				v := views[0].(map[string]any)
				// (sue,staff) joins GroupFile(staff,f1): the view grows to 5.
				if v["view_size"].(float64) != 5 || v["generation"].(float64) != 1 {
					t.Errorf("view update %v, want size 5 gen 1", v)
				}
			},
		},
		{
			name: "insert batched duplicates", prepare: true,
			method: http.MethodPost, url: "/insert",
			body:       `{"rel": "UserGroup", "tuples": [["john","staff"],["sue","staff"]]}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				if resp["duplicates"].(float64) != 1 || len(resp["inserted"].([]any)) != 1 {
					t.Errorf("mixed insert response %v", resp)
				}
			},
		},
		{
			name: "insert unknown relation", prepare: true,
			method: http.MethodPost, url: "/insert",
			body:       `{"rel": "Nope", "tuple": ["a", "b"]}`,
			wantStatus: http.StatusNotFound,
		},
		{
			name: "insert wrong arity", prepare: true,
			method: http.MethodPost, url: "/insert",
			body:       `{"rel": "UserGroup", "tuple": ["sue"]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "insert missing tuple", prepare: true,
			method: http.MethodPost, url: "/insert",
			body:       `{"rel": "UserGroup"}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "insert both tuple and tuples", prepare: true,
			method: http.MethodPost, url: "/insert",
			body:       `{"rel": "UserGroup", "tuple": ["a","b"], "tuples": [["c","d"]]}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "insert wrong method", prepare: true,
			method: http.MethodGet, url: "/insert",
			wantStatus: http.StatusMethodNotAllowed,
		},
		{
			name: "annotate ok", prepare: true,
			method: http.MethodPost, url: "/annotate",
			body:       `{"view": "access", "tuple": ["john", "f1"], "attr": "file"}`,
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				src := resp["source"].(map[string]any)
				if src["rel"].(string) == "" {
					t.Error("placement missing source relation")
				}
			},
		},
		{
			name: "annotate unknown attribute", prepare: true,
			method: http.MethodPost, url: "/annotate",
			body:       `{"view": "access", "tuple": ["john", "f1"], "attr": "nope"}`,
			wantStatus: http.StatusNotFound,
		},
		{
			name: "annotate unknown view", prepare: true,
			method: http.MethodPost, url: "/annotate",
			body:       `{"view": "nope", "tuple": ["john", "f1"], "attr": "file"}`,
			wantStatus: http.StatusNotFound,
		},
		{
			name: "annotate bad JSON", prepare: true,
			method: http.MethodPost, url: "/annotate",
			body:       `[1, 2, 3]`,
			wantStatus: http.StatusBadRequest,
		},
		{
			name: "stats ok", prepare: true,
			method: http.MethodGet, url: "/stats",
			wantStatus: http.StatusOK,
			check: func(t *testing.T, resp map[string]any) {
				views := resp["views"].([]any)
				if len(views) != 1 {
					t.Fatalf("%d views in stats, want 1", len(views))
				}
				v := views[0].(map[string]any)
				if v["name"].(string) != "access" || v["view_size"].(float64) != 4 {
					t.Errorf("unexpected view stats %v", v)
				}
			},
		},
		{
			name: "stats wrong method", prepare: true,
			method: http.MethodPost, url: "/stats", body: `{}`,
			wantStatus: http.StatusMethodNotAllowed,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newTestServer(t, tc.prepare)
			status, resp := do(t, h, tc.method, tc.url, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (response %v)", status, tc.wantStatus, resp)
			}
			if status != http.StatusOK {
				if _, ok := resp["error"]; !ok {
					t.Errorf("error response without error field: %v", resp)
				}
			}
			if tc.check != nil {
				tc.check(t, resp)
			}
		})
	}
}

// An oversized request body answers 413 with a distinct message, not a
// generic 400.
func TestOversizedBody(t *testing.T) {
	h := newTestServer(t, true)
	big := `{"view": "access", "tuple": ["john", "` + strings.Repeat("x", maxBodyBytes+1) + `"]}`
	for _, url := range []string{"/prepare", "/delete", "/insert", "/annotate"} {
		code, resp := do(t, h, http.MethodPost, url, big)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", url, code)
		}
		if msg, _ := resp["error"].(string); !strings.Contains(msg, "request body too large") {
			t.Errorf("%s: error %q does not name the oversized body", url, msg)
		}
	}
}

// newAsyncTestServer builds a server over an engine whose write queue
// holds queue writes.
func newAsyncTestServer(t *testing.T, queue int) (*server, *engine.Engine) {
	t.Helper()
	db, err := relation.ReadDatabaseString(testDB)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(db, engine.Options{MaxQueue: queue})
	if err := e.PrepareText("access", testQuery); err != nil {
		t.Fatal(err)
	}
	return newServer(e), e
}

// stall parks the engine's committer until release is called, so writes
// sent meanwhile stay queued. It submits a plug: a delete of a tuple not in
// the view, which commits nothing and moves no counter, and whose callback
// blocks.
func stall(t *testing.T, e *engine.Engine) (release func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	plug := engine.Write{View: "access", Targets: []relation.Tuple{relation.StringTuple("plug", "plug")}}
	if err := e.Submit(plug, func(error) { close(entered); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-entered
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// asyncStatsOf reads the /stats "async" block.
func asyncStatsOf(t *testing.T, h http.Handler) map[string]any {
	t.Helper()
	_, resp := do(t, h, http.MethodGet, "/stats", "")
	return resp["async"].(map[string]any)
}

// An async delete is validated, accepted with 202 while it waits in the
// write queue, committed once the committer reaches it, and visible in the
// view and the stats afterwards.
func TestAsyncDelete(t *testing.T) {
	s, e := newAsyncTestServer(t, 4)
	release := stall(t, e)
	code, resp := do(t, s, http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"], "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async delete: status %d (%v), want 202", code, resp)
	}
	if resp["queued"] != true || resp["queue_depth"].(float64) != 1 || resp["queue_cap"].(float64) != 4 {
		t.Fatalf("unexpected accepted response: %v", resp)
	}
	// Not committed yet: the view still serves the tuple.
	if _, resp := do(t, s, http.MethodGet, "/query?view=access", ""); len(resp["tuples"].([]any)) != 4 {
		t.Fatal("async delete committed while the committer was parked")
	}
	release()
	s.engine.Close()
	code, resp = do(t, s, http.MethodGet, "/query?view=access", "")
	if code != http.StatusOK {
		t.Fatalf("query after drain: %d", code)
	}
	for _, raw := range resp["tuples"].([]any) {
		vals := raw.([]any)
		if vals[0].(string) == "john" && vals[1].(string) == "f2" {
			t.Fatal("async-deleted tuple still served after drain")
		}
	}
	_, resp = do(t, s, http.MethodGet, "/stats", "")
	async := resp["async"].(map[string]any)
	if async["enabled"] != true || async["accepted"].(float64) != 1 || async["completed"].(float64) != 1 || async["failed"].(float64) != 0 {
		t.Fatalf("async stats %v", async)
	}
	if resp["deletes"].(float64) != 1 {
		t.Fatalf("engine delete counter %v after async commit, want 1", resp["deletes"])
	}
}

// Async requests are validated before they are queued: bad ones are
// rejected synchronously and never occupy queue slots.
func TestAsyncDeleteValidatesBeforeEnqueue(t *testing.T) {
	s, e := newAsyncTestServer(t, 4)
	stall(t, e)
	cases := []struct {
		body string
		want int
	}{
		{`{"view": "nope", "tuple": ["john", "f2"], "async": true}`, http.StatusNotFound},
		{`{"view": "access", "tuple": ["john"], "async": true}`, http.StatusBadRequest},
		{`{"view": "access", "tuple": ["john", "f2"], "objective": "fastest", "async": true}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, resp := do(t, s, http.MethodPost, "/delete", tc.body); code != tc.want {
			t.Errorf("%s: status %d (%v), want %d", tc.body, code, resp, tc.want)
		}
	}
	if n, _ := e.Queue(); n != 0 {
		t.Fatalf("%d invalid jobs reached the queue", n)
	}
}

// A full write queue pushes back instead of buffering without bound: 429
// for an async write, 503 for a synchronous one. A group (tuples) async
// delete takes one slot like a single.
func TestAsyncDeleteBackpressure(t *testing.T) {
	s, e := newAsyncTestServer(t, 2)
	release := stall(t, e)
	ok := []string{
		`{"view": "access", "tuple": ["john", "f2"], "async": true}`,
		`{"view": "access", "tuples": [["john","f1"],["mary","f1"]], "objective": "source", "async": true}`,
	}
	for _, body := range ok {
		if code, resp := do(t, s, http.MethodPost, "/delete", body); code != http.StatusAccepted {
			t.Fatalf("fill: status %d (%v), want 202", code, resp)
		}
	}
	code, resp := do(t, s, http.MethodPost, "/delete", `{"view": "access", "tuple": ["mary", "f2"], "async": true}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("async overflow: status %d (%v), want 429", code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "queue full") {
		t.Fatalf("429 error %q does not name the full queue", msg)
	}
	code, resp = do(t, s, http.MethodPost, "/insert", `{"rel": "UserGroup", "tuple": ["sue", "staff"]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("sync overflow: status %d (%v), want 503", code, resp)
	}
	async := asyncStatsOf(t, s)
	if async["rejected"].(float64) != 1 || async["accepted"].(float64) != 2 || async["queue_depth"].(float64) != 2 || async["queue_cap"].(float64) != 2 {
		t.Fatalf("async stats after backpressure: %v", async)
	}
	// Draining frees the queue and commits both jobs (the group one may
	// legitimately fail if an earlier delete removed its targets — here it
	// cannot, the targets are disjoint view tuples).
	release()
	s.engine.Close()
	async = asyncStatsOf(t, s)
	if async["completed"].(float64) != 2 || async["queue_depth"].(float64) != 0 {
		t.Fatalf("async stats after drain: %v", async)
	}
}

// The engine's committer really does commit an async write end to end,
// without Close.
func TestAsyncDeleteBackgroundCommit(t *testing.T) {
	s, e := newAsyncTestServer(t, 8)
	if code, _ := do(t, s, http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"], "async": true}`); code != http.StatusAccepted {
		t.Fatalf("async delete not accepted: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		view, err := e.Query("access")
		if err != nil {
			t.Fatal(err)
		}
		if !view.Contains(relation.StringTuple("john", "f2")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("async delete never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A /delete followed by /insert of exactly the reported deletions is an
// undo: the view serves its original four tuples again.
func TestInsertRestoreUndo(t *testing.T) {
	h := newTestServer(t, true)
	code, resp := do(t, h, http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"], "objective": "view"}`)
	if code != http.StatusOK {
		t.Fatalf("delete: %d %v", code, resp)
	}
	deletions := resp["deletions"].([]any)
	if len(deletions) == 0 {
		t.Fatal("nothing to restore")
	}
	for _, raw := range deletions {
		d := raw.(map[string]any)
		vals, _ := json.Marshal(d["tuple"])
		body := `{"rel": "` + d["rel"].(string) + `", "tuple": ` + string(vals) + `}`
		if code, resp := do(t, h, http.MethodPost, "/insert", body); code != http.StatusOK {
			t.Fatalf("restore insert: %d %v", code, resp)
		}
	}
	code, resp = do(t, h, http.MethodGet, "/query?view=access", "")
	if code != http.StatusOK || len(resp["tuples"].([]any)) != 4 {
		t.Fatalf("view not restored: %d %v", code, resp)
	}
	_, resp = do(t, h, http.MethodGet, "/stats", "")
	if resp["inserts"].(float64) != 1 || resp["inserted_source_tuples"].(float64) != 1 {
		t.Errorf("insert counters %v", resp)
	}
}

// An async insert is accepted with 202, committed by the drain, and
// visible in the view and the stats afterwards.
func TestAsyncInsert(t *testing.T) {
	s, e := newAsyncTestServer(t, 4)
	release := stall(t, e)
	code, resp := do(t, s, http.MethodPost, "/insert", `{"rel": "UserGroup", "tuple": ["sue", "staff"], "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("async insert: status %d (%v), want 202", code, resp)
	}
	if resp["op"] != "insert" || resp["rel"] != "UserGroup" || resp["queued"] != true {
		t.Fatalf("unexpected accepted response: %v", resp)
	}
	if _, resp := do(t, s, http.MethodGet, "/query?view=access", ""); len(resp["tuples"].([]any)) != 4 {
		t.Fatal("async insert committed while the committer was parked")
	}
	release()
	s.engine.Close()
	if _, resp := do(t, s, http.MethodGet, "/query?view=access", ""); len(resp["tuples"].([]any)) != 5 {
		t.Fatalf("view after drain: %v", resp["tuples"])
	}
	_, resp = do(t, s, http.MethodGet, "/stats", "")
	async := resp["async"].(map[string]any)
	if async["completed"].(float64) != 1 || async["failed"].(float64) != 0 {
		t.Fatalf("async stats %v", async)
	}
	if resp["inserts"].(float64) != 1 {
		t.Fatalf("engine insert counter %v, want 1", resp["inserts"])
	}
}

// A failed async commit is not just a counter: it lands in the last_errors
// ring under /stats "async".
func TestAsyncLastErrors(t *testing.T) {
	s, _ := newAsyncTestServer(t, 4)
	// A ghost tuple passes enqueue-time validation (arity is right) and
	// fails at commit time with not-in-view.
	code, _ := do(t, s, http.MethodPost, "/delete", `{"view": "access", "tuple": ["ghost", "f9"], "async": true}`)
	if code != http.StatusAccepted {
		t.Fatalf("ghost delete not accepted: %d", code)
	}
	s.engine.Close()
	async := asyncStatsOf(t, s)
	if async["failed"].(float64) != 1 {
		t.Fatalf("async stats %v, want failed=1", async)
	}
	errs := async["last_errors"].([]any)
	if len(errs) != 1 {
		t.Fatalf("last_errors %v, want one entry", errs)
	}
	e0 := errs[0].(map[string]any)
	if e0["op"] != "delete" || e0["view"] != "access" || !strings.Contains(e0["error"].(string), "not in view") {
		t.Fatalf("last_errors entry %v", e0)
	}
	// The ring is bounded: flood it and check the cap and ordering (newest
	// kept).
	for i := 0; i < maxRecentErrors+5; i++ {
		s.asyncDone(asyncErrorJSON{Op: "delete", View: "access"})(fmt.Errorf("failure %d", i))
	}
	got := s.lastAsyncErrors()
	if len(got) != maxRecentErrors {
		t.Fatalf("ring holds %d errors, want cap %d", len(got), maxRecentErrors)
	}
	if last := got[len(got)-1].Error; last != fmt.Sprintf("failure %d", maxRecentErrors+4) {
		t.Fatalf("newest ring entry %q", last)
	}
}

// A panic while committing an async job fails that job into last_errors;
// the server keeps answering, and later writes still commit.
func TestAsyncPanicLandsInLastErrors(t *testing.T) {
	s, e := newAsyncTestServer(t, 8)
	if err := e.PrepareText("files", "project(file; GroupFile)"); err != nil {
		t.Fatal(err)
	}
	engine.CommitHook = func(view string) {
		if view == "files" {
			panic("injected solver bug")
		}
	}
	defer func() { engine.CommitHook = nil }()
	if code, resp := do(t, s, http.MethodPost, "/delete", `{"view": "files", "tuple": ["f2"], "async": true}`); code != http.StatusAccepted {
		t.Fatalf("async delete: status %d (%v), want 202", code, resp)
	}
	if code, resp := do(t, s, http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"]}`); code != http.StatusOK {
		t.Fatalf("sync delete after a panicked job: status %d (%v), want 200", code, resp)
	}
	// The job committed before the sync delete, but whichever goroutine
	// committed it may still be running its callback.
	async := asyncStatsOf(t, s)
	for deadline := time.Now().Add(5 * time.Second); async["failed"].(float64) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		async = asyncStatsOf(t, s)
	}
	errs := async["last_errors"].([]any)
	if async["failed"].(float64) != 1 || len(errs) != 1 {
		t.Fatalf("async stats %v, want the panicked job recorded", async)
	}
	if e0 := errs[0].(map[string]any); e0["view"] != "files" || !strings.Contains(e0["error"].(string), "panicked") {
		t.Fatalf("last_errors entry %v", e0)
	}
	if code, _ := do(t, s, http.MethodGet, "/query?view=files", ""); code != http.StatusOK {
		t.Fatalf("query after a panicked job: %d", code)
	}
}

// Close commits every accepted async job before returning — the graceful
// shutdown path — and later writes, async or not, are refused with 503.
func TestCloseDrainsAsyncQueue(t *testing.T) {
	s, e := newAsyncTestServer(t, 8)
	bodies := []string{
		`{"view": "access", "tuple": ["john", "f2"], "async": true}`,
		`{"view": "access", "tuple": ["mary", "f2"], "async": true}`,
		`{"rel": "UserGroup", "tuple": ["sue", "staff"], "async": true}`,
	}
	urls := []string{"/delete", "/delete", "/insert"}
	for i, body := range bodies {
		if code, resp := do(t, s, http.MethodPost, urls[i], body); code != http.StatusAccepted {
			t.Fatalf("enqueue %d: status %d (%v)", i, code, resp)
		}
	}
	s.engine.Close() // must block until all three jobs committed
	if got := s.asyncCompleted.Load() + s.asyncFailed.Load(); got != 3 {
		t.Fatalf("after Close: %d jobs settled, want 3 (a 202 is a promise)", got)
	}
	if n, _ := e.Queue(); n != 0 {
		t.Fatal("Close returned with jobs still queued")
	}
	// The committed state is really there.
	view, err := e.Query("access")
	if err != nil {
		t.Fatal(err)
	}
	if view.Contains(relation.StringTuple("john", "f2")) || view.Contains(relation.StringTuple("mary", "f2")) {
		t.Fatal("queued deletes lost on Close")
	}
	// A draining server refuses new writes instead of dropping them.
	for _, body := range []string{
		`{"view": "access", "tuple": ["mary", "f1"], "async": true}`,
		`{"view": "access", "tuple": ["mary", "f1"]}`,
	} {
		if code, resp := do(t, s, http.MethodPost, "/delete", body); code != http.StatusServiceUnavailable {
			t.Fatalf("%s after Close: status %d (%v), want 503", body, code, resp)
		}
	}
	s.engine.Close() // idempotent
}

// TestServerSession drives a realistic session across endpoints against one
// engine: prepare, query, delete, re-query, annotate, stats.
func TestServerSession(t *testing.T) {
	h := newTestServer(t, false)
	if code, _ := do(t, h, http.MethodPost, "/prepare", `{"name": "access", "query": "`+testQuery+`"}`); code != 200 {
		t.Fatalf("prepare: %d", code)
	}
	if code, resp := do(t, h, http.MethodGet, "/query?view=access", ""); code != 200 || len(resp["tuples"].([]any)) != 4 {
		t.Fatalf("query: %d %v", code, resp)
	}
	code, resp := do(t, h, http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"], "objective": "source"}`)
	if code != 200 {
		t.Fatalf("delete: %d %v", code, resp)
	}
	code, resp = do(t, h, http.MethodGet, "/query?view=access", "")
	if code != 200 {
		t.Fatalf("re-query: %d", code)
	}
	for _, raw := range resp["tuples"].([]any) {
		vals := raw.([]any)
		if vals[0].(string) == "john" && vals[1].(string) == "f2" {
			t.Fatal("deleted tuple still served")
		}
	}
	if code, _ := do(t, h, http.MethodPost, "/annotate", `{"view": "access", "tuple": ["mary", "f1"], "attr": "file"}`); code != 200 {
		t.Fatalf("annotate after delete: %d", code)
	}
	code, resp = do(t, h, http.MethodGet, "/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if resp["deletes"].(float64) != 1 || resp["annotates"].(float64) != 1 {
		t.Errorf("stats counters %v", resp)
	}
}

// TestQueryPagination covers the ?limit=&offset= paging of GET /query:
// page slicing over the sorted view, the total/limit/offset echo fields,
// the server-side cap, and parameter validation.
func TestQueryPagination(t *testing.T) {
	h := newTestServer(t, true)

	// The access view has 4 tuples; collect the full sorted order first.
	code, resp := do(t, h, http.MethodGet, "/query?view=access", "")
	if code != 200 {
		t.Fatalf("query: %d %v", code, resp)
	}
	if got := resp["total"].(float64); got != 4 {
		t.Fatalf("total = %v, want 4", got)
	}
	if got := resp["limit"].(float64); got != 1000 {
		t.Fatalf("default limit = %v, want 1000", got)
	}
	if got := resp["offset"].(float64); got != 0 {
		t.Fatalf("default offset = %v, want 0", got)
	}
	full := resp["tuples"].([]any)
	if len(full) != 4 {
		t.Fatalf("%d tuples, want 4", len(full))
	}

	// Two pages of two must concatenate to the full sorted list.
	var paged []any
	for _, off := range []string{"0", "2"} {
		code, resp := do(t, h, http.MethodGet, "/query?view=access&limit=2&offset="+off, "")
		if code != 200 {
			t.Fatalf("page offset %s: %d %v", off, code, resp)
		}
		page := resp["tuples"].([]any)
		if len(page) != 2 {
			t.Fatalf("page offset %s: %d tuples, want 2", off, len(page))
		}
		if resp["total"].(float64) != 4 || resp["limit"].(float64) != 2 {
			t.Fatalf("page offset %s: total/limit %v/%v", off, resp["total"], resp["limit"])
		}
		paged = append(paged, page...)
	}
	for i := range full {
		a := full[i].([]any)
		b := paged[i].([]any)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("page row %d = %v, want %v", i, b, a)
		}
	}

	// Offset past the end: empty page, clamped offset, total intact.
	code, resp = do(t, h, http.MethodGet, "/query?view=access&offset=99", "")
	if code != 200 || len(resp["tuples"].([]any)) != 0 {
		t.Fatalf("offset past end: %d %v", code, resp)
	}
	if resp["total"].(float64) != 4 || resp["offset"].(float64) != 4 {
		t.Fatalf("offset past end: total/offset %v/%v", resp["total"], resp["offset"])
	}

	// An oversized limit clamps to the server-side cap.
	code, resp = do(t, h, http.MethodGet, "/query?view=access&limit=50000", "")
	if code != 200 || resp["limit"].(float64) != 10000 {
		t.Fatalf("limit clamp: %d limit=%v", code, resp["limit"])
	}

	// limit=0 is a metadata-only request: no rows, but the total (and the
	// zero limit) are echoed back.
	code, resp = do(t, h, http.MethodGet, "/query?view=access&limit=0", "")
	if code != 200 || len(resp["tuples"].([]any)) != 0 {
		t.Fatalf("limit 0: %d %v", code, resp)
	}
	if resp["limit"].(float64) != 0 || resp["total"].(float64) != 4 {
		t.Fatalf("limit 0: limit/total %v/%v", resp["limit"], resp["total"])
	}

	// Malformed paging parameters are the client's fault.
	for _, bad := range []string{"limit=-1", "limit=abc", "offset=-2", "offset=x"} {
		if code, _ := do(t, h, http.MethodGet, "/query?view=access&"+bad, ""); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
}

// TestStatsStore asserts /stats surfaces the versioned source store:
// structure-sharing counters move with commits, and the live version
// count is present.
func TestStatsStore(t *testing.T) {
	h := newTestServer(t, true)
	if code, resp := do(t, h, http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"], "objective": "source"}`); code != 200 {
		t.Fatalf("delete: %d %v", code, resp)
	}
	code, resp := do(t, h, http.MethodGet, "/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if lv, ok := resp["live_source_versions"].(float64); !ok || lv < 1 {
		t.Fatalf("live_source_versions = %v", resp["live_source_versions"])
	}
	store, ok := resp["store"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing store section: %v", resp)
	}
	if dv := store["derived_versions"].(float64); dv < 1 {
		t.Errorf("store.derived_versions = %v, want ≥ 1", dv)
	}
	if sh := store["shared_relations"].(float64); sh < 1 {
		t.Errorf("store.shared_relations = %v, want ≥ 1 (untouched relation shared by pointer)", sh)
	}
	if rw := store["rewritten_relations"].(float64); rw < 1 {
		t.Errorf("store.rewritten_relations = %v, want ≥ 1", rw)
	}
	for _, key := range []string{"overlay_relations", "max_overlay_depth", "compactions", "squashes"} {
		if _, ok := store[key]; !ok {
			t.Errorf("store section missing %q: %v", key, store)
		}
	}
}

// TestQueryGenerationAndTreeStats asserts the serving-path additions of
// the node-overlay round: /query pages carry the snapshot generation they
// were cut from (so a paginating client can detect a commit landing
// between pages), and /stats surfaces the per-view provenance-tree store
// section with its sharing and O(Δ)-work counters.
func TestQueryGenerationAndTreeStats(t *testing.T) {
	h := newTestServer(t, true)

	code, resp := do(t, h, http.MethodGet, "/query?view=access&limit=1", "")
	if code != 200 {
		t.Fatalf("query: %d %v", code, resp)
	}
	if gen, ok := resp["generation"].(float64); !ok || gen != 0 {
		t.Fatalf("generation = %v, want 0", resp["generation"])
	}
	if code, resp := do(t, h, http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"], "objective": "source"}`); code != 200 {
		t.Fatalf("delete: %d %v", code, resp)
	}
	code, resp = do(t, h, http.MethodGet, "/query?view=access&limit=1", "")
	if code != 200 || resp["generation"].(float64) != 1 {
		t.Fatalf("post-commit generation = %v, want 1", resp["generation"])
	}

	code, resp = do(t, h, http.MethodGet, "/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	views := resp["views"].([]any)
	if len(views) != 1 {
		t.Fatalf("views = %v", resp["views"])
	}
	tree, ok := views[0].(map[string]any)["tree"].(map[string]any)
	if !ok {
		t.Fatalf("view stats missing tree section: %v", views[0])
	}
	if n := tree["nodes"].(float64); n < 3 {
		t.Errorf("tree.nodes = %v, want ≥ 3 (π over ⋈ over two scans)", n)
	}
	if d := tree["derives"].(float64); d < 1 {
		t.Errorf("tree.derives = %v, want ≥ 1 after a delete commit", d)
	}
	if to := tree["touched_tuples"].(float64); to < 1 {
		t.Errorf("tree.touched_tuples = %v, want ≥ 1", to)
	}
	for _, key := range []string{"node_tuples", "shared_nodes", "rewritten_nodes", "rel_folds", "map_folds"} {
		if _, ok := tree[key]; !ok {
			t.Errorf("tree section missing %q: %v", key, tree)
		}
	}
}
