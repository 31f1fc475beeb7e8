package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// StandaloneOptions carries the whole-module extras of standalone mode;
// both are opt-in and inert when empty.
type StandaloneOptions struct {
	// BudgetPath names a suppression-budget file; when set, per-analyzer
	// //lint:ignore counts over the analyzed module are compared against it
	// and growth beyond the checked-in ceiling fails the run.
	BudgetPath string
	// StatsPath names a JSON file to write per-analyzer wall-clock,
	// diagnostic and suppression counts to (the BENCH_PR.json `analysis`
	// record; see cmd/benchjson -analysis).
	StatsPath string
	// JSON switches the finding printer to one JSON object per line
	// (analyzer, file, line, col, message, suppressed). Suppressed findings
	// are included — flagged, not dropped — so CI can render the full
	// picture; the exit code still considers active findings only.
	JSON bool
}

// jsonFinding is the -json wire form: one object per output line.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func printJSON(w io.Writer, findings []Finding) {
	enc := json.NewEncoder(w)
	for _, f := range findings {
		// Encode never fails on this shape; ignore the error to keep the
		// printer total.
		enc.Encode(jsonFinding{
			Analyzer:   f.Analyzer,
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Col:        f.Pos.Column,
			Message:    f.Message,
			Suppressed: f.Suppressed,
		})
	}
}

// AnalyzerStat is one analyzer's row in the stats record.
type AnalyzerStat struct {
	Name         string  `json:"name"`
	WallMS       float64 `json:"wall_ms"`
	Diagnostics  int     `json:"diagnostics"`
	Suppressions int     `json:"suppressions"`
}

// Stats is the `analysis` record emitted by -stats: what the run cost and
// what it found, tracked in CI alongside the perf benchmarks.
type Stats struct {
	Packages  int            `json:"packages"`
	WallMS    float64        `json:"wall_ms"`
	Findings  int            `json:"findings"`
	Analyzers []AnalyzerStat `json:"analyzers"`
}

// Standalone runs the analyzers over the module containing the working
// directory, type-checking from source. Patterns default to ./... .
// Returns the process exit code (0 clean, 1 error or budget violation,
// 2 findings).
func Standalone(patterns []string, analyzers []*analysis.Analyzer, opt StandaloneOptions) int {
	wd, err := os.Getwd()
	if err != nil {
		return errExit(err)
	}
	modDir, modPath, goVersion, err := findModule(wd)
	if err != nil {
		return errExit(err)
	}
	loader := &load.Loader{ModulePath: modPath, ModuleDir: modDir, GoVersion: goVersion}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return errExit(err)
	}
	durations := NewDurations()
	start := time.Now()
	findings, npkgs, err := RunStats(analyzers, loader.Fset, pkgs, durations)
	wall := time.Since(start)
	if err != nil {
		return errExit(err)
	}
	var active []Finding
	for _, f := range findings {
		if !f.Suppressed {
			active = append(active, f)
		}
	}
	if opt.JSON {
		printJSON(os.Stdout, findings)
	} else {
		for _, f := range active {
			fmt.Println(f)
		}
	}

	code := 0
	if len(active) > 0 {
		code = 2
	}

	counts := CountSuppressions(loader.Fset, pkgs)
	if opt.BudgetPath != "" {
		budget, err := ParseBudget(opt.BudgetPath)
		if err != nil {
			return errExit(err)
		}
		over, under := CheckBudget(counts, budget)
		for _, msg := range under {
			fmt.Fprintf(os.Stderr, "note: %s\n", msg)
		}
		if len(over) > 0 {
			for _, msg := range over {
				fmt.Fprintf(os.Stderr, "suppression budget exceeded: %s\n", msg)
			}
			fmt.Fprintf(os.Stderr, "either remove the new //lint:ignore sites or raise %s with a justification\n", opt.BudgetPath)
			if code == 0 {
				code = 1
			}
		}
	}

	if opt.StatsPath != "" {
		if err := writeStats(opt.StatsPath, analyzers, durations, active, counts, npkgs, wall); err != nil {
			return errExit(err)
		}
	}
	return code
}

func writeStats(path string, analyzers []*analysis.Analyzer, durations *Durations,
	findings []Finding, suppressions map[string]int, npkgs int, wall time.Duration) error {
	perAnalyzer := make(map[string]int)
	for _, f := range findings {
		perAnalyzer[f.Analyzer]++
	}
	stats := Stats{
		Packages: npkgs,
		WallMS:   float64(wall.Microseconds()) / 1000,
		Findings: len(findings),
	}
	for _, a := range Expand(analyzers) {
		stats.Analyzers = append(stats.Analyzers, AnalyzerStat{
			Name:         a.Name,
			WallMS:       float64(durations.Get(a.Name).Microseconds()) / 1000,
			Diagnostics:  perAnalyzer[a.Name],
			Suppressions: suppressions[a.Name],
		})
	}
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// ParseBudget reads a suppression-budget file: one `analyzer count` pair
// per line, # comments and blank lines ignored. An analyzer absent from
// the file has budget zero.
func ParseBudget(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	budget := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var n int
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want `analyzer count`, got %q", path, i+1, line)
		}
		if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n < 0 {
			return nil, fmt.Errorf("%s:%d: bad count %q", path, i+1, fields[1])
		}
		budget[fields[0]] = n
	}
	return budget, nil
}

// CheckBudget compares per-analyzer suppression counts against the budget.
// over lists analyzers past their ceiling (a failure); under lists
// analyzers whose actual count dropped below it (an invitation to ratchet
// the budget down, not a failure).
func CheckBudget(counts, budget map[string]int) (over, under []string) {
	names := make([]string, 0, len(counts)+len(budget))
	seen := make(map[string]bool)
	for n := range counts {
		names = append(names, n)
		seen[n] = true
	}
	for n := range budget {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		switch c, b := counts[n], budget[n]; {
		case c > b:
			over = append(over, fmt.Sprintf("%s: %d //lint:ignore sites, budget %d", n, c, b))
		case c < b:
			under = append(under, fmt.Sprintf("%s: %d //lint:ignore sites, budget %d — the budget can be lowered", n, c, b))
		}
	}
	return over, under
}

// findModule locates the enclosing go.mod and reads its module path and
// language version.
func findModule(dir string) (modDir, modPath, goVersion string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					modPath = strings.TrimSpace(rest)
				} else if rest, ok := strings.CutPrefix(line, "go "); ok {
					goVersion = "go" + strings.TrimSpace(rest)
				}
			}
			if modPath == "" {
				return "", "", "", fmt.Errorf("driver: %s/go.mod has no module line", d)
			}
			return d, modPath, goVersion, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", "", fmt.Errorf("driver: no go.mod at or above %s", dir)
		}
		d = parent
	}
}
