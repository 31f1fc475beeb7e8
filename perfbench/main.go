// Command perfbench is the repository's benchmark: it drives the
// prepared-view engine (engine.Engine, propview.Engine) in process with a
// fixed, seed-generated script per workload, checks every output against
// an independent oracle, and prints every metric by name and unit. The
// last line of standard output is one JSON result object.
//
// Usage:
//
//	bash perfbench/run.sh --workload curation --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same script
// untraced and then traced, replaying each request through the layers,
// and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for span files
	sizes    sizes
	setups   int // set-ups per untraced run; setup_s is their median
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report carries everything a run measured, for the diagnostic line
// printed before the result.
type report struct {
	Env         runEnv                    `json:"env"`
	Latency     map[string]latencySummary `json:"latency,omitempty"`
	Attempts    map[string]int            `json:"attempts"`
	Failures    map[string]int            `json:"failures"`
	Diagnostics map[string]metric         `json:"diagnostics,omitempty"`
	SelfTime    map[string]spanSummary    `json:"self_time,omitempty"`
	Wrong       []string                  `json:"wrong,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: fullSizes, setups: 5}
	trace := 0
	fs.StringVar(&cfg.workload, "workload", "", "workload: curation, hub-write or many-views")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "approximate measured seconds; fixes the script length")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "spans"), "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.workload == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg.trace = trace == 1

	env := newRunEnv(cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	steal0, stealOK := stealTicks()
	res, rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if steal1, ok := stealTicks(); ok && stealOK {
		env.StealTicks = steal1 - steal0
	}
	rep.Env = env
	printReport(stdout, res, rep)
	for n, m := range res.Metrics {
		res.Metrics[n] = metric{finite(m.Value), m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func execute(cfg config) (result, report, error) {
	if cfg.trace {
		return executeTraced(cfg)
	}
	return executeUntraced(cfg)
}

// newReport fills the request counts and latency summaries of a run.
func newReport(m clientResult) report {
	rep := report{Latency: map[string]latencySummary{}, Attempts: map[string]int{}, Failures: map[string]int{}}
	for k := opKind(0); k < numKinds; k++ {
		rep.Attempts[k.String()] = m.attempts[k]
		rep.Failures[k.String()] = m.failures[k]
		if len(m.lat[k]) > 0 {
			rep.Latency[k.String()] = summarize(m.lat[k])
		}
	}
	return rep
}

func totals(m clientResult) (attempted, failed int) {
	for k := opKind(0); k < numKinds; k++ {
		attempted += m.attempts[k]
		failed += m.failures[k]
	}
	return attempted, failed
}

// executeUntraced measures the end-to-end metrics: cfg.setups set-ups
// (setup_s is their median), a forced collection, then the whole script.
func executeUntraced(cfg config) (result, report, error) {
	w, err := generate(cfg.workload, cfg.seed, float64(cfg.seconds), cfg.sizes)
	if err != nil {
		return result{}, report{}, err
	}
	var e *engine.Engine
	setupTimes := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		e = nil
		runtime.GC()
		var s float64
		if e, s, err = setup(w); err != nil {
			return result{}, report{}, err
		}
		setupTimes = append(setupTimes, s)
	}
	heapSetup := heapMB()

	cpu0 := cpuSeconds()
	rs, wall := runScripts(e, w, nil)
	cpu1 := cpuSeconds()
	heapEnd := heapMB()
	m := merged(rs)
	m.wrong = append(m.wrong, checkFinal(e, w, m.placements)...)

	rep := newReport(m)
	attempted, failed := totals(m)
	metrics := map[string]metric{
		"setup_s":       {median(setupTimes), "s"},
		"ops_s":         {float64(attempted) / wall, "1/s"},
		"cpu_ms_per_op": {(cpu1 - cpu0) * 1000 / float64(attempted), "ms"},
		"heap_setup_mb": {heapSetup, "MiB"},
		"heap_end_mb":   {heapEnd, "MiB"},
	}
	for _, k := range []opKind{opDelete, opRestore, opQuery, opStats} {
		metrics[k.String()+"_p50_ms"] = metric{median(m.lat[k]), "ms"}
	}
	rep.Diagnostics = map[string]metric{"script_s": {wall, "s"}}
	for i, s := range setupTimes {
		rep.Diagnostics[fmt.Sprintf("setup_%d_s", i+1)] = metric{s, "s"}
	}
	for k := opKind(0); k < numKinds; k++ {
		if len(m.lat[k]) == 0 {
			continue
		}
		rep.Diagnostics[k.String()+"_p50_ms"] = metric{median(m.lat[k]), "ms"}
		rep.Diagnostics[k.String()+"_p99_ms"] = metric{percentile(sortedCopy(m.lat[k]), 99), "ms"}
	}
	rep.Wrong = m.wrong
	return result{Correct: len(m.wrong) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, rep, nil
}

// traceShare is the part of --seconds each of the traced run's two passes
// is scripted for; the traced pass takes two to three times its untraced
// twin, so a traced run lasts about as long as an untraced one.
const traceShare = 0.35

// executeTraced runs the script untraced (for trace.overhead, allocation
// and store counters), copies the engine's state into one shadow per
// client, then runs the same script again with every request replayed
// through the layers.
func executeTraced(cfg config) (result, report, error) {
	w, err := generate(cfg.workload, cfg.seed, traceShare*float64(cfg.seconds), cfg.sizes)
	if err != nil {
		return result{}, report{}, err
	}
	e, _, err := setup(w)
	if err != nil {
		return result{}, report{}, err
	}
	runtime.GC()

	st0 := e.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, _ := runScripts(e, w, nil)
	runtime.ReadMemStats(&ms1)
	st1 := e.Stats()
	untraced := merged(plain)

	epoch := time.Now()
	shadows := make([]*shadow, len(w.scripts))
	for c := range shadows {
		if shadows[c], err = newShadow(e, w, c, &tracer{epoch: epoch, client: c}); err != nil {
			return result{}, report{}, err
		}
	}
	runtime.GC()
	rs, _ := runScripts(e, w, shadows)
	traced := merged(rs)
	for _, s := range shadows {
		if err := s.probeUnreached(); err != nil {
			traced.wrong = append(traced.wrong, err.Error())
		}
	}
	all := merged([]clientResult{untraced, traced})
	all.wrong = append(all.wrong, checkFinal(e, w, all.placements)...)

	var spans []span
	var counts layerCounts
	for _, s := range shadows {
		base := len(spans)
		for _, sp := range s.tr.spans {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			spans = append(spans, sp)
		}
		c := s.counts
		counts.deletes += c.deletes
		counts.targets += c.targets
		counts.deleted += c.deleted
		counts.exact += c.exact
		counts.annotates += c.annotates
		counts.rebuilds += c.rebuilds
		counts.sideEffects += c.sideEffects
		counts.whereTouched += c.whereTouched
	}
	if err := saveSpans(cfg, spans); err != nil {
		return result{}, report{}, err
	}
	agg := aggregate(spans)
	untracedAll, tracedAll := allLatencies(untraced), allLatencies(traced)
	ops := float64(len(untracedAll))
	commits := float64(st1.CommitBatches - st0.CommitBatches)
	metrics := layerMetrics(agg, counts)
	metrics["relation.folds"] = metric{ratio(float64(st1.Store.Compactions-st0.Store.Compactions), commits), "count"}
	metrics["relation.squashes"] = metric{ratio(float64(st1.Store.Squashes-st0.Store.Squashes), commits), "count"}
	metrics["engine.coalesce_factor"] = metric{ratio(float64(st1.Deletes+st1.Inserts-st0.Deletes-st0.Inserts), commits), "ratio"}
	metrics["engine.alloc_kb_per_op"] = metric{ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, ops), "KiB"}
	metrics["engine.gc_cycles_per_kop"] = metric{ratio(float64(ms1.NumGC-ms0.NumGC)*1000, ops), "count"}
	metrics["trace.overhead"] = metric{ratio(median(tracedAll), median(untracedAll)), "ratio"}
	witnesses, nodes := 0, 0
	for _, v := range e.Stats().Views {
		witnesses += v.WitnessCount
		nodes += v.Tree.Nodes
	}
	metrics["provenance.witnesses"] = metric{float64(witnesses), "count"}
	metrics["provenance.tree_nodes"] = metric{float64(nodes), "count"}

	rep := newReport(traced)
	rep.Diagnostics = decomposition(agg)
	rep.SelfTime = agg.byName
	rep.Wrong = all.wrong
	attempted, failed := totals(all)
	return result{Correct: len(all.wrong) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, rep, nil
}

func allLatencies(m clientResult) []float64 {
	var xs []float64
	for k := opKind(0); k < numKinds; k++ {
		xs = append(xs, m.lat[k]...)
	}
	return xs
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func saveSpans(cfg config, spans []span) (err error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return writeSpans(f, spans)
}

// printReport prints every metric by name and unit, the latency sample
// counts, and one JSON line with the full report.
func printReport(w io.Writer, res result, rep report) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	kinds := make([]string, 0, len(rep.Latency))
	for k := range rep.Latency {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := rep.Latency[k]
		tail := fmt.Sprintf("%d samples beyond p99", l.P99Tail)
		switch {
		case l.P99Tail < minTail && l.TopP > 0:
			tail = fmt.Sprintf("p99 is a diagnostic; highest supported p%g=%.4f ms", l.TopP, l.TopValue)
		case l.P99Tail < minTail:
			tail = "p99 is a diagnostic; too few samples for any tail"
		}
		fmt.Fprintf(w, "%-9s n=%-6d p50=%.4f ms p99=%.4f ms (%s); attempts=%d failures=%d\n",
			k, l.N, l.P50, l.P99, tail, rep.Attempts[k], rep.Failures[k])
	}
	for _, msg := range rep.Wrong {
		fmt.Fprintln(w, "WRONG:", msg)
	}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		line = []byte(fmt.Sprintf(`{"report_error": %q}`, err.Error()))
	}
	fmt.Fprintln(w, string(line))
}

// finite replaces NaN (no samples) by 0 so the result stays valid JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
