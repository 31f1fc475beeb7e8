package driver

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/summary"
)

// TestVetxRoundTrip proves summary facts — the nested-slice gob payload
// the interprocedural analyzers depend on — survive the .vetx
// serialization boundary intact.
func TestVetxRoundTrip(t *testing.T) {
	funcFact := &summary.FuncFact{S: summary.FuncSummary{
		Acquires: []summary.Acquire{{Class: "p.T.mu", Path: []string{"p.go:3: lockIt acquires p.T.mu"}}},
		NetHeld:  []summary.HeldLock{{Class: "p.T.mu", Field: "mu", Level: "write"}},
		Releases: []summary.HeldLock{{Class: "p.gate", Level: "read"}},
		Launches: []summary.Launch{{Pos: "p.go:9", Callee: "T.run", Proof: "channel", JoinClasses: []string{"p.T.done"}}},
		ChanOps:  []summary.ChanOp{{Class: "p.T.done", Op: "close"}},
		WgOps:    []summary.WgOp{{Class: "p.T.wg", Op: "wait"}},
	}}
	orderFact := &summary.OrderFact{S: summary.OrderSummary{
		MapOrdered:    []bool{true, false},
		Nondet:        []string{"time.Now at p.go:12"},
		Deterministic: true,
	}}
	pkgFact := &summary.PkgFact{
		Edges: []summary.Edge{{From: "p.T.mu", To: "p.gate", Path: []string{"p.go:3: nested acquires p.gate"}}},
		Joins: []string{"p.T.done"},
	}

	out := NewFacts()
	out.m["p\x00T.lockIt\x00*summary.FuncFact"] = funcFact
	out.m["p\x00\x00*summary.PkgFact"] = pkgFact
	out.m["p\x00Spread\x00*summary.OrderFact"] = orderFact

	path := filepath.Join(t.TempDir(), "p.vetx")
	if err := out.writeVetx(path); err != nil {
		t.Fatalf("writeVetx: %v", err)
	}

	in := NewFacts()
	if err := in.readVetx(path, factRegistry([]*analysis.Analyzer{summary.Analyzer, summary.Order})); err != nil {
		t.Fatalf("readVetx: %v", err)
	}
	if len(in.m) != 3 {
		t.Fatalf("round-tripped %d facts, want 3", len(in.m))
	}
	got := in.m["p\x00T.lockIt\x00*summary.FuncFact"]
	if !reflect.DeepEqual(got, funcFact) {
		t.Errorf("FuncFact round trip:\n got %+v\nwant %+v", got, funcFact)
	}
	gotPkg := in.m["p\x00\x00*summary.PkgFact"]
	if !reflect.DeepEqual(gotPkg, pkgFact) {
		t.Errorf("PkgFact round trip:\n got %+v\nwant %+v", gotPkg, pkgFact)
	}
	gotOrder := in.m["p\x00Spread\x00*summary.OrderFact"]
	if !reflect.DeepEqual(gotOrder, orderFact) {
		t.Errorf("OrderFact round trip:\n got %+v\nwant %+v", gotOrder, orderFact)
	}
}

// TestVettoolFactFlow is the end-to-end half: build propviewlint, run it
// under a real `go vet -vettool` over a two-package scratch module whose
// client inverts the base package's lock order and, under
// propview:deterministic, calls base helpers that read the clock or return
// map-ordered keys. The inversion is only visible if base's concurrency
// facts reach the client's separate vet invocation through the gob .vetx
// files, and the determinism findings only if base's ordering facts do —
// exactly the boundary this test pins.
func TestVettoolFactFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "propviewlint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/propviewlint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building propviewlint: %v\n%s", err, out)
	}

	mod := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(mod, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module order\n\ngo 1.21\n")
	write("base/base.go", `package base

import (
	"sync"
	"time"
)

var (
	MuA sync.Mutex
	MuB sync.Mutex
)

func LockBoth() {
	MuA.Lock()
	MuB.Lock()
}

func UnlockBoth() {
	MuB.Unlock()
	MuA.Unlock()
}

// Stamp reads the wall clock; unmarked, so only its summary records it.
func Stamp() string { return time.Now().String() }

// Keys returns m's keys in map iteration order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`)
	write("client/client.go", `package client

import "order/base"

func Transfer() {
	base.MuB.Lock()
	base.MuA.Lock()
	base.MuA.Unlock()
	base.MuB.Unlock()
}

// Label promises determinism but stamps through base.
//
// propview:deterministic
func Label() string { return base.Stamp() }

// Names promises determinism but returns base's map-ordered keys.
//
// propview:deterministic
func Names(m map[string]int) []string { return base.Keys(m) }
`)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet should fail on the inverted lock order; output:\n%s", out)
	}
	text := string(out)
	// The lock-order cycle needs base's FuncFact/PkgFact in the client's
	// invocation; the maporder diagnostics need base's OrderFacts (Stamp's
	// Nondet root, Keys' MapOrdered result). Both cross only via .vetx files.
	for _, frag := range []string{"lock-order cycle", "order/base.MuA", "order/base.MuB", "client.go",
		"propview:deterministic function Label reaches nondeterminism: time.Now",
		"propview:deterministic function Names returns a map-ordered value (result of Keys"} {
		if !strings.Contains(text, frag) {
			t.Errorf("vet output missing %q:\n%s", frag, text)
		}
	}
}
