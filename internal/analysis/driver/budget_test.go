package driver

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), ".lintbudget")
	const src = `# ceiling per analyzer
eachretain 8

lockguard 2
lockorder 0
`
	if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	got, err := ParseBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"eachretain": 8, "lockguard": 2, "lockorder": 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseBudget = %v, want %v", got, want)
	}

	for _, bad := range []string{"eachretain", "eachretain eight", "eachretain -1", "eachretain 1 2"} {
		if err := os.WriteFile(path, []byte(bad+"\n"), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseBudget(path); err == nil {
			t.Errorf("ParseBudget accepted malformed line %q", bad)
		}
	}
}

func TestCheckBudget(t *testing.T) {
	counts := map[string]int{"eachretain": 9, "lockguard": 1, "genmonotonic": 1}
	budget := map[string]int{"eachretain": 8, "lockguard": 2, "genmonotonic": 1}
	over, under := CheckBudget(counts, budget)
	if len(over) != 1 || !strings.Contains(over[0], "eachretain: 9 //lint:ignore sites, budget 8") {
		t.Errorf("over = %v, want the eachretain growth", over)
	}
	if len(under) != 1 || !strings.Contains(under[0], "lockguard") {
		t.Errorf("under = %v, want the lockguard ratchet note", under)
	}

	// An analyzer absent from the budget has ceiling zero: any new
	// suppression for it is growth.
	over, _ = CheckBudget(map[string]int{"lockorder": 1}, map[string]int{})
	if len(over) != 1 {
		t.Errorf("unbudgeted analyzer should be over on first suppression, got %v", over)
	}
}
