// Command benchjson converts `go test -bench` text output into
// machine-readable JSON, so CI can record the perf trajectory per PR:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem ./... | benchjson > BENCH_PR.json
//
// Every benchmark result line becomes one record carrying the benchmark
// name, the package it ran in, the iteration count, and every reported
// metric (ns/op, B/op, allocs/op, and custom b.ReportMetric units alike)
// keyed by unit — run with -benchmem (as CI does) so the allocation
// metrics appear in every record, not just the ones calling
// b.ReportAllocs; commit-path improvements in particular are allocation
// improvements, so BENCH_PR.json must carry allocs/op for the
// BenchmarkCommit_* comparison (source-store O(|Δ|) commits) and the
// BenchmarkApplyInsertion_TreeSize* comparison (node-overlay O(|Δ|)
// view maintenance, the same ~2×-across-100× criterion one layer up)
// to mean anything. Lines that are not
// benchmark results (PASS, ok, test logs) are skipped; goos/goarch/pkg/cpu
// headers are captured as context.
//
// With -analysis <file>, the per-analyzer stats JSON that propviewlint
// -stats wrote (wall-clock, diagnostics, suppression counts) is embedded
// in the report as an `analysis` record, so static-analysis cost and
// suppression drift ride the same per-PR artifact as the perf numbers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/analysis/driver"
)

// Result is one benchmark's parsed output line.
type Result struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// MaintRecord is the distilled per-view maintenance cost of one
// BenchmarkApplyDeletion* / BenchmarkApplyInsertion* result: the operation
// kind, the worker count the run used (parsed from the -N GOMAXPROCS
// suffix go test appends to the name; 1 when absent), and the two metrics
// the maintenance perf criterion is judged on. CI diffs the `maintenance`
// records across PRs to follow maintenance cost without re-deriving it
// from the raw benchmark lines.
type MaintRecord struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Op          string  `json:"op"`
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the full parsed run.
type Report struct {
	Goos        string        `json:"goos,omitempty"`
	Goarch      string        `json:"goarch,omitempty"`
	CPU         string        `json:"cpu,omitempty"`
	Benchmarks  []Result      `json:"benchmarks"`
	Maintenance []MaintRecord `json:"maintenance,omitempty"`
	Analysis    *driver.Stats `json:"analysis,omitempty"`
}

// maintenance distills the view-maintenance benchmarks out of a parsed
// run. Only ApplyDeletion/ApplyInsertion benchmarks qualify; everything
// else (commit path, query path) stays raw-only.
func maintenance(benchmarks []Result) []MaintRecord {
	var recs []MaintRecord
	for _, b := range benchmarks {
		var op string
		switch {
		case strings.HasPrefix(b.Name, "BenchmarkApplyDeletion"):
			op = "deletion"
		case strings.HasPrefix(b.Name, "BenchmarkApplyInsertion"):
			op = "insertion"
		default:
			continue
		}
		workers := 1
		if i := strings.LastIndex(b.Name, "-"); i >= 0 {
			if n, err := strconv.Atoi(b.Name[i+1:]); err == nil && n > 0 {
				workers = n
			}
		}
		recs = append(recs, MaintRecord{
			Name:        b.Name,
			Package:     b.Package,
			Op:          op,
			Workers:     workers,
			NsPerOp:     b.Metrics["ns/op"],
			AllocsPerOp: b.Metrics["allocs/op"],
		})
	}
	return recs
}

func main() {
	analysisPath := flag.String("analysis", "", "propviewlint -stats JSON to embed as the report's analysis record")
	flag.Parse()
	rep, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	rep.Maintenance = maintenance(rep.Benchmarks)
	if *analysisPath != "" {
		data, err := os.ReadFile(*analysisPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		rep.Analysis = &driver.Stats{}
		if err := json.Unmarshal(data, rep.Analysis); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *analysisPath, err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBench scans go test -bench output. A result line looks like
//
//	BenchmarkName-8   \t 2 \t 123 ns/op \t 4.5 custom/unit \t 6 B/op
//
// i.e. the benchmark name, the iteration count, then (value, unit) pairs.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then an even number of (value, unit) fields.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{
			Name:       fields[0],
			Package:    pkg,
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			res.Metrics[fields[i+1]] = v
		}
		if !ok {
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
