package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func TestSameSeedSameScript(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 2, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, 2, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.encode(), b.encode()) {
			t.Errorf("%s: seed 7 gave two different scripts", name)
		}
		c, err := generate(name, 8, 2, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.encode(), c.encode()) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", name)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", p)
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a: the union covers 10..60
		{Name: "a.1", Parent: 1, Start: 15, End: 20},
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent: only 90..100 counts
		{Name: "other", Parent: -1, Start: 0, End: 7},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	return names
}

func sameNames(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload at tiny size, untraced and traced, with
// the oracle on.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: traced, out: t.TempDir(), sizes: tinySizes, setups: 2}
			res, rep, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", name, traced, res.Correct, res.Failed, res.Attempted, rep.Wrong)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := metricNames(res); !sameNames(got, want) {
				t.Errorf("%s trace=%v reports %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
			if !traced {
				continue
			}
			// The replayed layers plus the residual make up the traced
			// engine latency of every write.
			eng, sum := rep.Diagnostics["write.engine_ms"].Value, rep.Diagnostics["write.layers_plus_residual_ms"].Value
			if eng <= 0 || math.Abs(eng-sum) > 1e-9*eng {
				t.Errorf("%s: writes took %v ms in the engine, layers plus residual %v ms", name, eng, sum)
			}
		}
	}
}
