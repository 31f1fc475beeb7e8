package main

import (
	"flag"
	"os"
	"testing"
)

// The figure generators verify their theorem as they print; each returns
// false on a reduction violation.

func TestFigure1Verifies(t *testing.T) {
	if !figure1() {
		t.Error("Figure 1 verification failed")
	}
}

func TestFigure2Verifies(t *testing.T) {
	if !figure2() {
		t.Error("Figure 2 verification failed")
	}
}

func TestFigure3Verifies(t *testing.T) {
	if !figure3() {
		t.Error("Figure 3 verification failed")
	}
}

func TestWorkSeries(t *testing.T) {
	if !workSeries() {
		t.Error("work series verification failed")
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFiguresGolden pins the printed figures and the work series.
func TestFiguresGolden(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = tmp
	figure1()
	figure2()
	figure3()
	workSeries()
	os.Stdout = stdout
	got, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	const path = "testdata/figures.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the printed figures (rerun with -update to rewrite it):\n%s", path, got)
	}
}
