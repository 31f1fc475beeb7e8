package maporder_test

import (
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/maporder"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", maporder.Analyzer, "mapord")
}

func TestNondeterminismRoots(t *testing.T) {
	analysistest.Run(t, "testdata", maporder.Analyzer, "nondet")
}

const sortedKeys = `package keys

import "sort"

// Keys returns m's keys sorted.
//
// propview:deterministic
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`

// TestRemovedSort proves the analyzer re-derives the diagnostic from a
// mutation: deleting the sort from a known-good deterministic function
// leaks map iteration order into its return.
func TestRemovedSort(t *testing.T) {
	files := map[string]string{"keys/keys.go": sortedKeys}
	if got := analysistest.RunFiles(t, maporder.Analyzer, "keys", files); len(got) != 0 {
		t.Fatalf("sorted fixture should be clean, got %v", got)
	}

	unsorted := strings.Replace(sortedKeys, "\tsort.Strings(out)\n", "", 1)
	unsorted = strings.Replace(unsorted, "import \"sort\"\n", "", 1)
	if unsorted == sortedKeys {
		t.Fatal("mutation did not apply")
	}
	files["keys/keys.go"] = unsorted
	got := analysistest.RunFiles(t, maporder.Analyzer, "keys", files)
	if len(got) != 1 {
		t.Fatalf("removed sort should yield exactly one finding, got %v", got)
	}
	for _, frag := range []string{"map-ordered", "Keys"} {
		if !strings.Contains(got[0].Message, frag) {
			t.Errorf("diagnostic %q missing %q", got[0].Message, frag)
		}
	}
}
