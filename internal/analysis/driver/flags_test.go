package driver

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// Standalone mode rejects flags it does not know, so a misspelled or
// removed flag fails the run instead of being ignored; the check runs
// before any package is loaded.
func TestRunRejectsUnknownFlagsStandalone(t *testing.T) {
	for _, flag := range []string{"-suppresion-budget=.lintbudget", "-workers=4"} {
		if code := run("propviewlint", []string{flag, "./..."}, nil); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
	}
}

// In vettool mode go vet passes its own flags ahead of the .cfg; they are
// tolerated and the unit still runs.
func TestRunToleratesVetFlagsBeforeCfg(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	if err := os.WriteFile(src, []byte("package p\n\nfunc F() int { return 1 }\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(vetConfig{
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "p",
		GoFiles:    []string{src},
		VetxOutput: filepath.Join(dir, "p.vetx"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "p.cfg")
	if err := os.WriteFile(cfgPath, cfg, 0o666); err != nil {
		t.Fatal(err)
	}
	ran := false
	probe := &analysis.Analyzer{Name: "probe", Doc: "records that it ran", Run: func(*analysis.Pass) (any, error) {
		ran = true
		return nil, nil
	}}
	if code := run("propviewlint", []string{"-unsafeptr=false", "-atomic", cfgPath}, []*analysis.Analyzer{probe}); code != 0 {
		t.Fatalf("vettool run with go vet's flags: exit %d, want 0", code)
	}
	if !ran {
		t.Fatal("the unit's analyzers did not run")
	}
}
