package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFlagsGolden pins propviewd's flag set: each flag's name, default and
// usage.
func TestFlagsGolden(t *testing.T) {
	var b strings.Builder
	newFlagSet(&config{}).VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&b, "-%s (default %q)\n\t%s\n", f.Name, f.DefValue, f.Usage)
	})
	checkGolden(t, "testdata/flags.golden", b.String())
}

// TestResponseKeysGolden pins the JSON key set of every response shape:
// each read and write endpoint's, sync and async, an error's, and
// /stats'. Nested keys read parent.child, and an array's elements
// parent[].child.
func TestResponseKeysGolden(t *testing.T) {
	h := newTestServer(t, false)
	var b strings.Builder
	for _, r := range []struct{ method, url, body string }{
		{http.MethodPost, "/prepare", `{"name": "access", "query": "` + testQuery + `"}`},
		{http.MethodGet, "/query?view=access", ""},
		{http.MethodPost, "/annotate", `{"view": "access", "tuple": ["john", "f1"], "attr": "file"}`},
		{http.MethodPost, "/delete", `{"view": "access", "tuple": ["john", "f2"], "objective": "view"}`},
		{http.MethodPost, "/delete", `{"view": "access", "tuples": [["john", "f1"], ["mary", "f1"]], "objective": "source"}`},
		{http.MethodPost, "/insert", `{"rel": "UserGroup", "tuple": ["sue", "admin"]}`},
		{http.MethodPost, "/insert", `{"rel": "UserGroup", "tuples": [["ann", "staff"], ["bob", "admin"]]}`},
		{http.MethodPost, "/delete", `{"view": "nope", "tuple": ["john", "f2"]}`},
		{http.MethodPost, "/delete", `{"view": "access", "tuple": ["sue", "f2"], "async": true}`},
		{http.MethodPost, "/insert", `{"rel": "UserGroup", "tuple": ["sue", "admin"], "async": true}`},
		{http.MethodGet, "/stats", ""},
	} {
		code, resp := do(t, h, r.method, r.url, r.body)
		paths := map[string]bool{}
		keyPaths("", resp, paths)
		keys := make([]string, 0, len(paths))
		for k := range paths {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s %s %s -> %d\n", r.method, r.url, r.body, code)
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%s\n", k)
		}
	}
	checkGolden(t, "testdata/responses.golden", b.String())
}

// keyPaths adds the object keys of the decoded JSON value v to out.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			out[prefix+k] = true
			keyPaths(prefix+k+".", c, out)
		}
	case []any:
		for _, c := range v {
			keyPaths(strings.TrimSuffix(prefix, ".")+"[].", c, out)
		}
	}
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
