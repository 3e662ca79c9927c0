// Command acesobench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index) and runs the
// repository's benchmarks and CI gates.
//
// Usage:
//
//	acesobench [flags] [targets...]
//
// Every target is one row of the table in targets(); -h prints it. With
// no target, "all" runs the paper's evaluation. The benchmark targets
// run by name: a full run writes its BENCH_*.json into the working
// directory, and "smoke" runs the CI subset in check mode, comparing
// against the committed files and writing only into a temporary
// directory. A target returns its failed gates as an error; any error
// makes the exit status non-zero, and an unknown target name is one.
// -cpuprofile and -memprofile cover everything the invocation ran and
// are finalized even when a target fails (DESIGN.md §5g).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"aceso/internal/chaos"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/diffcheck"
	"aceso/internal/elastic"
	"aceso/internal/exps"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	art "aceso/internal/runtime"
	"aceso/internal/tensor"
)

// target is one row of the harness: a name on the command line, one
// line of -h documentation, and whether "all" (the paper's evaluation)
// or "smoke" (the CI gate) runs it.
type target struct {
	name    string
	doc     string
	inAll   bool
	inSmoke bool
	run     func(*env) error
}

// env is what a target reads: the shared flags, the output mode and
// the directory its files go to.
type env struct {
	set      exps.Settings
	csvDir   string
	chaosDur time.Duration // 0: the chaos target's smoke/full default
	smoke    bool          // check mode: guard committed files, write only under dir
	dir      string
	w        io.Writer
	e2e      *exps.E2E // computed once for fig7, fig8, tables, fig15 and fig16
}

// path places an output file in the env's directory.
func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// csv writes one experiment's rows into the -csv directory, if set.
func (e *env) csv(name string, write func(io.Writer) error) error {
	if e.csvDir == "" {
		return nil
	}
	return writeFile(filepath.Join(e.csvDir, name), write)
}

// pick returns a target parameter's smoke or full value.
func pick[T any](e *env, smoke, full T) T {
	if e.smoke {
		return smoke
	}
	return full
}

// Fixed parameters of the benchmark targets.
const (
	searchReps       = 3
	guardNsTol       = 0.5 // smoke: allowed fractional ns/op regression (wall time is machine-noisy; this catches order-of-magnitude slips, not jitter)
	guardAllocTol    = 0.1 // smoke: allowed fractional allocs/op regression (allocation counts are near-deterministic)
	scaleIters       = 2
	diffTrials       = diffcheck.DefaultTrials  // 5000 tuples per mode
	churnTrials      = chaos.DefaultChurnTrials // 12
	spotTrials       = chaos.DefaultSpotTrials  // 12
	heteroDiffTrials = 512
	serveRequests    = 1200
	serveClients     = 32
)

// targets is the harness: every target in the order it runs.
func targets() []target {
	curves := func(title string) func(io.Writer, map[string][]exps.Curve) {
		return func(w io.Writer, groups map[string][]exps.Curve) { exps.RenderCurves(w, title, groups) }
	}
	return []target{
		{name: "fig1", inAll: true, doc: "Figure 1: configuration-space size vs layers and mechanisms",
			run: figure(func(exps.Settings) ([]exps.Fig1Row, error) { return exps.Fig1(nil), nil },
				exps.RenderFig1, "fig1.csv", exps.WriteFig1CSV)},
		{name: "fig7", inAll: true, doc: "Exp#1 / Figure 7: normalized throughput vs Megatron-LM and Alpa",
			run: e2eView((*exps.E2E).RenderFig7)},
		{name: "fig8", inAll: true, doc: "Exp#2 / Figure 8: search cost vs Alpa",
			run: e2eView((*exps.E2E).RenderFig8)},
		{name: "tables", inAll: true, doc: "Tables 3-5: TFLOPS per GPU",
			run: e2eView((*exps.E2E).RenderTables)},
		{name: "fig15", inAll: true, doc: "Exp#8 / Figure 15: predicted vs simulated iteration time",
			run: e2eView((*exps.E2E).RenderFig15)},
		{name: "fig16", inAll: true, doc: "Exp#9 / Figure 16: predicted vs simulated peak memory",
			run: e2eView((*exps.E2E).RenderFig16)},
		{name: "fig9", inAll: true, doc: "Exp#3 / Figure 9: scalability to 1K layers",
			run: figure(func(s exps.Settings) ([]exps.Fig9Row, error) { return exps.Fig9(s, nil) },
				exps.RenderFig9, "fig9.csv", exps.WriteFig9CSV)},
		{name: "fig10", inAll: true, doc: "Exp#4 / Figure 10: explored configs and found plans, DP vs Aceso",
			run: figure(exps.Fig10, exps.RenderFig10, "fig10.csv", exps.WriteFig10CSV)},
		{name: "fig11", inAll: true, doc: "Exp#5 / Figure 11: tried bottlenecks and hops per improving iteration",
			run: figure(exps.Fig11, exps.RenderFig11, "fig11.csv", exps.WriteFig11CSV)},
		{name: "fig12", inAll: true, doc: "Exp#5 / Figure 12: convergence with vs without Heuristic-2",
			run: figure(exps.Fig12, curves("Figure 12 (Exp#5): convergence with vs without Heuristic-2"),
				"fig12.csv", exps.WriteCurvesCSV)},
		{name: "fig13", inAll: true, doc: "Exp#6 / Figure 13: convergence under different MaxHops",
			run: figure(exps.Fig13, curves("Figure 13 (Exp#6): convergence under different MaxHops"),
				"fig13.csv", exps.WriteCurvesCSV)},
		{name: "fig14", inAll: true, doc: "Exp#7 / Figure 14: robustness to the initial configuration",
			run: figure(exps.Fig14, curves("Figure 14 (Exp#7): robustness to the initial configuration"),
				"fig14.csv", exps.WriteCurvesCSV)},
		{name: "ablations", inAll: true, doc: "ablations of the search design knobs and the 1F1B-vs-GPipe memory ratio",
			run: func(e *env) error {
				rows, memRatio, err := exps.Ablations(e.set)
				if err != nil {
					return err
				}
				exps.RenderAblations(e.w, rows, memRatio)
				return nil
			}},
		{name: "cases", inAll: true, doc: "§5.4 case studies: uneven GPT stages, mixed WRN last stage",
			run: figure(exps.Cases, exps.RenderCases, "", nil)},
		{name: "search", inSmoke: true, run: runSearch,
			doc: "search throughput, GPT-3 2.6B on 16 V100s → BENCH_search.json; smoke: explored exact, ns/op +50%, allocs/op +10%"},
		{name: "scale", run: runScaleBench,
			doc: "search on 1024-4096 devices → BENCH_scale.json; fails if an explored count drifts"},
		{name: "trace", inSmoke: true, run: runTrace,
			doc: "traced search (smoke 2 / full 4 iterations) → BENCH_trace.jsonl + .json; fails on any auditor violation"},
		{name: "diff", inSmoke: true, run: runDiff,
			doc: "model-vs-simulator check, 5000 tuples per mode (smoke: effects-off only) → BENCH_diff.json; fails on any violation"},
		{name: "hetero", inSmoke: true, run: runHeteroBench,
			doc: "mixed A100+V100 planning vs class-blind → BENCH_hetero.json; smoke: explored and plan exact"},
		{name: "churn", inSmoke: true, run: runChurnBench,
			doc: "22-event churn schedule through Supervise + 12 chaos trials → BENCH_churn.json; 1e-9 trajectory gate"},
		{name: "spot", run: runSpotBench,
			doc: "risk-aware vs risk-blind spot replay + 12 chaos trials → BENCH_spot.json; ≥1.2x achieved speedup"},
		{name: "serve", run: runServeBench,
			doc: "planserver load test, 1200 requests × 32 clients → BENCH_serve.json; error, cache and drain gates"},
		{name: "chaos", inSmoke: true, run: runChaos,
			doc: "fault-injection trials for 10s (smoke) / 30s; fails on a panic, invalid plan or non-finite score"},
		{name: "smoke", run: runSmoke,
			doc: "the CI gate: every smoke target above in check mode, writing only into a temp dir"},
	}
}

// figure adapts one paper experiment to a target: compute it, render
// it, and with -csv also write its rows to csvName.
func figure[T any](compute func(exps.Settings) (T, error), render func(io.Writer, T),
	csvName string, csv func(io.Writer, T) error) func(*env) error {
	return func(e *env) error {
		v, err := compute(e.set)
		if err != nil {
			return err
		}
		render(e.w, v)
		if csv == nil {
			return nil
		}
		return e.csv(csvName, func(w io.Writer) error { return csv(w, v) })
	}
}

// e2eView renders one view of the end-to-end comparison; the first
// such target to run computes it for the rest.
func e2eView(render func(*exps.E2E, io.Writer)) func(*env) error {
	return func(e *env) error {
		if e.e2e == nil {
			fmt.Fprintf(e.w, "running end-to-end comparison (budget %v/search, %d sizes)...\n", e.set.Budget, e.set.Sizes)
			r, err := exps.RunE2E(e.set, nil)
			if err != nil {
				return err
			}
			if err := e.csv("e2e.csv", r.WriteCSV); err != nil {
				return err
			}
			e.e2e = r
		}
		render(e.e2e, e.w)
		return nil
	}
}

// selectTargets returns the rows args name, in table order. "all" (the
// default) names every inAll row. An unknown name is an error listing
// the valid ones.
func selectTargets(rows []target, args []string) ([]target, error) {
	if len(args) == 0 {
		args = []string{"all"}
	}
	names := []string{"all"}
	for _, t := range rows {
		names = append(names, t.name)
	}
	want := map[string]bool{}
	for _, a := range args {
		if !slices.Contains(names, a) {
			return nil, fmt.Errorf("unknown target %q (valid: %s)", a, strings.Join(names, " "))
		}
		want[a] = true
	}
	var out []target
	for _, t := range rows {
		if want[t.name] || (want["all"] && t.inAll) {
			out = append(out, t)
		}
	}
	return out, nil
}

// runTargets runs rows in order, reporting each failure as it happens,
// and returns the names of the rows that failed.
func runTargets(e *env, rows []target) (failed []string) {
	for _, t := range rows {
		if err := t.run(e); err != nil {
			fmt.Fprintf(os.Stderr, "acesobench: %s: %v\n", t.name, err)
			failed = append(failed, t.name)
		}
		fmt.Fprintln(e.w)
	}
	return failed
}

// runSmoke runs every inSmoke target in check mode. Outputs go to a
// temporary directory that is removed on success and kept, with any
// diff repro files, on failure.
func runSmoke(e *env) error {
	dir, err := os.MkdirTemp("", "acesobench-smoke-*")
	if err != nil {
		return err
	}
	var rows []target
	for _, t := range targets() {
		if t.inSmoke {
			rows = append(rows, t)
		}
	}
	se := *e
	se.smoke, se.dir = true, dir
	if failed := runTargets(&se, rows); len(failed) > 0 {
		return fmt.Errorf("gates failed: %s (outputs kept in %s)", strings.Join(failed, ", "), dir)
	}
	fmt.Fprintf(e.w, "smoke: ok — %d targets passed\n", len(rows))
	return os.RemoveAll(dir)
}

// gates collects a target's failed checks; err joins them, so a target
// reports every gate it failed, not only the first.
type gates []error

func (g *gates) check(ok bool, format string, args ...any) {
	if !ok {
		*g = append(*g, fmt.Errorf(format, args...))
	}
}

func (g gates) err() error { return errors.Join(g...) }

// writeFile creates path, fills it with write, and reports the Close
// error as well.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v as two-space-indented JSON plus a newline.
func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// startProfiles starts the -cpuprofile and returns the function that
// finalizes both profiles.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "acesobench: -cpuprofile: %v\n", err)
			}
		}
		if memPath != "" {
			runtime.GC() // materialize the final live set
			if err := writeFile(memPath, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(os.Stderr, "acesobench: -memprofile: %v\n", err)
			}
		}
	}, nil
}

func main() { os.Exit(run()) }

func run() int {
	rows := targets()
	budget := flag.Duration("budget", 2*time.Second, "per-search time budget (the paper used 200s)")
	sizes := flag.Int("sizes", 5, "how many of the 5 model sizes to run (1-5)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	csvDir := flag.String("csv", "", "also write machine-readable CSVs into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile covering the selected targets to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	chaosDur := flag.Duration("chaos-duration", 0, "wall budget of the chaos target (0: 10s under smoke, 30s otherwise)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: acesobench [flags] [targets...]\n\ntargets (default all):\n")
		fmt.Fprintf(out, "  %-10s   every target marked *\n", "all")
		for _, t := range rows {
			mark := " "
			if t.inAll {
				mark = "*"
			}
			fmt.Fprintf(out, "  %-10s %s %s\n", t.name, mark, t.doc)
		}
		fmt.Fprintf(out, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	sel, err := selectTargets(rows, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "acesobench:", err)
		return 2
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "acesobench:", err)
			return 1
		}
	}
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acesobench: -cpuprofile:", err)
		return 1
	}
	defer stop()

	e := &env{
		set:      exps.Settings{Budget: *budget, Sizes: *sizes, Seed: *seed},
		csvDir:   *csvDir,
		chaosDur: *chaosDur,
		dir:      ".",
		w:        os.Stdout,
	}
	if failed := runTargets(e, sel); len(failed) > 0 {
		return 1
	}
	return 0
}

// searchMeasurement is one timed run of the fixed-iteration search.
type searchMeasurement struct {
	NsPerOp     int64 `json:"ns_per_op"`
	Explored    int   `json:"explored"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// searchBenchFile is the BENCH_search.json schema. Baseline is written
// once (first run on a machine) and preserved afterwards; Current is
// overwritten on every run.
type searchBenchFile struct {
	Benchmark string             `json:"benchmark"`
	Setting   string             `json:"setting"`
	Baseline  *searchMeasurement `json:"baseline,omitempty"`
	Current   searchMeasurement  `json:"current"`
	Speedup   float64            `json:"speedup,omitempty"`
}

const searchFile = "BENCH_search.json"

// measureSearch mirrors BenchmarkSearchThroughput: an
// iteration-bounded (never deadline-bounded) search of GPT-3 2.6B on
// 16 V100s, so ns/op tracks the machinery's cost per fixed amount of
// exploration.
func measureSearch(reps int) (searchMeasurement, error) {
	var m searchMeasurement
	g, err := model.GPT3("2.6B")
	if err != nil {
		return m, err
	}
	cl := hardware.DGX1V100(2) // 16 V100s
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		res, err := core.Search(g, cl, core.Options{
			TimeBudget:    time.Hour,
			MaxIterations: 4,
			Seed:          1,
		})
		if err != nil {
			return m, err
		}
		m.Explored = res.Explored
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	m.NsPerOp = elapsed.Nanoseconds() / int64(reps)
	m.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / int64(reps)
	m.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / int64(reps)
	return m, nil
}

// runSearch measures search throughput. A full run rewrites the
// "current" block of BENCH_search.json, keeping its recorded baseline;
// smoke checks the committed file instead: explored must match exactly
// (the search is bit-identical by contract) and ns/op and allocs/op
// must stay within the guard tolerances.
func runSearch(e *env) error {
	fmt.Fprintf(e.w, "measuring search throughput (%d reps, fixed-iteration GPT-3 2.6B / 16 GPUs)...\n", searchReps)
	cur, err := measureSearch(searchReps)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.w, "search throughput: %d ns/op, %d explored, %d B/op, %d allocs/op\n",
		cur.NsPerOp, cur.Explored, cur.BytesPerOp, cur.AllocsPerOp)
	var rec searchBenchFile
	prevErr := readJSON(searchFile, &rec)
	if e.smoke {
		if prevErr != nil {
			return fmt.Errorf("no committed benchmark to guard against: %w", prevErr)
		}
		ref := rec.Current
		var g gates
		g.check(cur.Explored == ref.Explored, "explored %d, recorded %d — the search is no longer bit-identical",
			cur.Explored, ref.Explored)
		g.check(float64(cur.AllocsPerOp) <= float64(ref.AllocsPerOp)*(1+guardAllocTol),
			"allocs/op %d exceeds recorded %d by more than %.0f%%", cur.AllocsPerOp, ref.AllocsPerOp, guardAllocTol*100)
		g.check(float64(cur.NsPerOp) <= float64(ref.NsPerOp)*(1+guardNsTol),
			"ns/op %d exceeds recorded %d by more than %.0f%%", cur.NsPerOp, ref.NsPerOp, guardNsTol*100)
		if len(g) == 0 {
			fmt.Fprintf(e.w, "guard: ok — explored matches, within %.0f%% ns/op and %.0f%% allocs/op of %s\n",
				guardNsTol*100, guardAllocTol*100, searchFile)
		}
		return g.err()
	}
	out := searchBenchFile{
		Benchmark: "BenchmarkSearchThroughput",
		Setting:   "GPT-3 2.6B on 16xV100 (DGX1V100(2)), MaxIterations=4, Seed=1, fixed-iteration",
		Baseline:  rec.Baseline,
		Current:   cur,
	}
	if prevErr != nil || out.Baseline == nil {
		b := cur
		out.Baseline = &b
	}
	if cur.NsPerOp > 0 {
		out.Speedup = float64(out.Baseline.NsPerOp) / float64(cur.NsPerOp)
	}
	if err := writeJSON(e.path(searchFile), out); err != nil {
		return err
	}
	fmt.Fprintf(e.w, "baseline: %d ns/op (speedup %.2fx) — recorded in %s\n",
		out.Baseline.NsPerOp, out.Speedup, e.path(searchFile))
	return nil
}

// scaleRow is one cluster/graph point of the scale benchmark.
type scaleRow struct {
	Devices     int     `json:"devices"`
	Ops         int     `json:"ops"`
	StageCounts []int   `json:"stage_counts"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	Explored    int     `json:"explored"`
	BestScore   float64 `json:"best_iter_time_seconds"`
	AllocMB     float64 `json:"alloc_mb"`
}

// scaleBenchFile is the BENCH_scale.json schema. Explored counts are
// the determinism fingerprint: wall times vary with the machine, but a
// fixed-iteration search must visit exactly the same configurations on
// every run, at any cluster size.
type scaleBenchFile struct {
	Setting       string     `json:"setting"`
	MaxIterations int        `json:"max_iterations"`
	Seed          int64      `json:"seed"`
	Rows          []scaleRow `json:"rows"`
}

// scalePoints are the synthetic thousand-device settings of the scale
// target: DGX-1-like nodes (8 V100s each) and uniform graphs sized so
// the largest point is a 4096-device, 10240-operator search.
var scalePoints = []struct{ nodes, ops int }{
	{128, 2560},
	{256, 5120},
	{512, 10240},
}

// scaleStageCounts pins the pipeline depths searched per point. The
// automatic set (§4.3) tops out at 32 stages anyway; pinning it keeps
// the fingerprint independent of future auto-set changes.
var scaleStageCounts = []int{8, 16, 32}

// runScaleBench runs the fixed-iteration search on each scale point,
// rewrites BENCH_scale.json, and fails if any row's explored count
// drifted from the count previously recorded for the same setting.
func runScaleBench(e *env) error {
	path, seed := e.path("BENCH_scale.json"), e.set.Seed
	fmt.Fprintf(e.w, "running scale benchmark (%d points up to 4096 devices / 10240 ops, %d iterations, seed %d)...\n",
		len(scalePoints), scaleIters, seed)
	var prev scaleBenchFile
	havePrev := readJSON(path, &prev) == nil && prev.MaxIterations == scaleIters && prev.Seed == seed
	out := scaleBenchFile{
		Setting: fmt.Sprintf("uniform synthetic graphs on DGX1V100 clusters, StageCounts=%v, MaxIterations=%d, Seed=%d, fixed-iteration",
			scaleStageCounts, scaleIters, seed),
		MaxIterations: scaleIters,
		Seed:          seed,
	}
	var g gates
	for _, pt := range scalePoints {
		gr := model.Uniform(pt.ops, 1e9, 1e6, 1e5, 1024)
		cl := hardware.DGX1V100(pt.nodes)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := core.Search(gr, cl, core.Options{
			TimeBudget:    time.Hour, // iteration-bounded, like the search bench
			MaxIterations: scaleIters,
			Seed:          seed,
			StageCounts:   scaleStageCounts,
		})
		if err != nil {
			return fmt.Errorf("%d devices / %d ops: %w", cl.TotalDevices(), pt.ops, err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		row := scaleRow{
			Devices:     cl.TotalDevices(),
			Ops:         pt.ops,
			StageCounts: scaleStageCounts,
			ElapsedMs:   float64(elapsed.Nanoseconds()) / 1e6,
			Explored:    res.Explored,
			BestScore:   res.Best.Score,
			AllocMB:     float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		}
		out.Rows = append(out.Rows, row)
		fmt.Fprintf(e.w, "scale: %4d devices, %5d ops: %8.0fms, %d explored, best %.4fs, %.0f MB allocated\n",
			row.Devices, row.Ops, row.ElapsedMs, row.Explored, row.BestScore, row.AllocMB)
		if havePrev {
			for _, p := range prev.Rows {
				if p.Devices == row.Devices && p.Ops == row.Ops {
					g.check(p.Explored == row.Explored, "drift at %d devices / %d ops: explored %d, recorded %d",
						row.Devices, row.Ops, row.Explored, p.Explored)
					break
				}
			}
		}
	}
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Fprintf(e.w, "scale: report → %s\n", path)
	return g.err()
}

// tracePoint is one convergence-curve sample in BENCH_trace.json.
type tracePoint struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Score          float64 `json:"score"`
}

// traceSummary is the BENCH_trace.json schema: everything the trace
// run produced except the per-iteration JSONL stream itself. The
// convergence samples carry wall-clock times, so this file — unlike
// the JSONL trace — is not byte-identical across runs.
type traceSummary struct {
	Setting     string        `json:"setting"`
	Iterations  int           `json:"iterations"`
	Explored    int           `json:"explored"`
	BestScore   float64       `json:"best_iter_time_seconds"`
	Audited     int64         `json:"estimates_audited"`
	Violations  []string      `json:"breakdown_violations,omitempty"`
	Convergence []tracePoint  `json:"convergence"`
	Metrics     *obs.Registry `json:"metrics"`
}

// runTrace executes the fixed-iteration observability run: the same
// GPT-3 2.6B / 16-V100 setting as the search benchmark, with the JSONL
// tracer, the metrics registry and the breakdown auditor all attached.
// It writes the deterministic JSONL iteration trace plus a summary and
// fails on any resource-accounting violation.
func runTrace(e *env) error {
	iters, seed := pick(e, 2, 4), e.set.Seed
	fmt.Fprintf(e.w, "running traced search (%d iterations/stage-count, seed %d)...\n", iters, seed)
	g, err := model.GPT3("2.6B")
	if err != nil {
		return err
	}
	cl := hardware.DGX1V100(2) // 16 V100s
	jsonl := obs.NewJSONLTracer()
	auditor := obs.NewAuditor()
	reg := obs.NewRegistry()
	res, err := core.Search(g, cl, core.Options{
		TimeBudget:    time.Hour, // iteration-bounded, like the bench
		MaxIterations: iters,
		Seed:          seed,
		CollectTrace:  true,
		Tracer:        obs.MultiTracer(jsonl, auditor),
		Metrics:       reg,
	})
	if err != nil {
		return err
	}
	traceFile, summaryFile := e.path("BENCH_trace.jsonl"), e.path("BENCH_trace.json")
	if err := writeFile(traceFile, func(w io.Writer) error {
		_, err := jsonl.WriteTo(w)
		return err
	}); err != nil {
		return err
	}
	sum := traceSummary{
		Setting:    fmt.Sprintf("GPT-3 2.6B on 16xV100 (DGX1V100(2)), MaxIterations=%d, Seed=%d", iters, seed),
		Iterations: res.Iterations,
		Explored:   res.Explored,
		BestScore:  res.Best.Score,
		Audited:    auditor.Checked(),
		Violations: auditor.Violations(),
		Metrics:    reg,
	}
	for _, p := range res.Trace.Convergence() {
		sum.Convergence = append(sum.Convergence, tracePoint{
			ElapsedSeconds: p.Elapsed.Seconds(),
			Score:          p.Score,
		})
	}
	if err := writeJSON(summaryFile, sum); err != nil {
		return err
	}
	fmt.Fprintf(e.w, "trace: %d iterations, %d explored, best %.4fs, %d estimates audited\n",
		res.Iterations, res.Explored, res.Best.Score, auditor.Checked())
	fmt.Fprintf(e.w, "trace: events → %s, summary → %s\n", traceFile, summaryFile)
	return auditor.Err()
}

// diffBenchFile is the BENCH_diff.json schema: one report per checked
// mode, the metrics snapshot, and pointers to any repro files written
// alongside.
type diffBenchFile struct {
	Setting    string              `json:"setting"`
	Reports    []*diffcheck.Report `json:"reports"`
	ReproFiles []string            `json:"repro_files,omitempty"`
	Metrics    *obs.Registry       `json:"metrics"`
}

// runDiff executes the differential validation: an effects-off pass
// (hard invariants) and, outside smoke, an effects-on pass (calibration
// band). It writes BENCH_diff.json plus one shrunken repro JSON per
// violation, and fails on any violation.
func runDiff(e *env) error {
	modes := pick(e, []bool{false}, []bool{false, true})
	seed := e.set.Seed
	fmt.Fprintf(e.w, "running differential validation (%d trials/mode, seed %d, effects-on pass: %v)...\n",
		diffTrials, seed, len(modes) > 1)
	reg := obs.NewRegistry()
	out := diffBenchFile{
		Setting: fmt.Sprintf("randomized model-vs-simulator tuples, %d trials/mode, seed %d", diffTrials, seed),
		Metrics: reg,
	}
	for _, on := range modes {
		rep := diffcheck.Run(diffcheck.Options{
			Trials:    diffTrials,
			Seed:      seed,
			EffectsOn: on,
			Metrics:   reg,
			Log: func(format string, args ...any) {
				fmt.Fprintf(e.w, format+"\n", args...)
			},
		})
		fmt.Fprint(e.w, rep.Summary())
		out.Reports = append(out.Reports, rep)
		for _, v := range rep.Violations {
			name := e.path(fmt.Sprintf("BENCH_diff_repro_%03d.json", len(out.ReproFiles)))
			if err := writeJSON(name, v); err != nil {
				return err
			}
			out.ReproFiles = append(out.ReproFiles, name)
			fmt.Fprintf(e.w, "diff: wrote shrunken repro → %s\n", name)
		}
	}
	path := e.path("BENCH_diff.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Fprintf(e.w, "diff: report → %s\n", path)
	if n := len(out.ReproFiles); n > 0 {
		return fmt.Errorf("%d invariant violations (repro files written)", n)
	}
	return nil
}

// heteroBenchFile is the BENCH_hetero.json schema: the heterogeneous
// planning case study (mixed A100+V100 fleet vs the best class-blind
// plan re-priced on the same fleet, with homogeneous baselines for
// context) plus the hetero slice of the differential smoke. The
// search is fully deterministic — iteration-bounded, fixed seed — so
// explored counts, plan shapes and iteration times are all exact
// fingerprints a smoke run can compare against.
type heteroBenchFile struct {
	Setting        string  `json:"setting"`
	Seed           int64   `json:"seed"`
	HeteroIterTime float64 `json:"hetero_iter_time_s"`
	HeteroExplored int     `json:"hetero_explored"`
	HeteroPlan     string  `json:"hetero_plan"`
	BlindIterTime  float64 `json:"blind_iter_time_s"` // best blind plan re-priced on the mixed fleet
	BlindExplored  int     `json:"blind_explored"`
	BlindFeasible  int     `json:"blind_feasible_plans"`
	Speedup        float64 `json:"speedup"` // blind / hetero iteration time
	AllA100Time    float64 `json:"all_a100_iter_time_s"`
	AllV100Time    float64 `json:"all_v100_iter_time_s"`
	DiffTrials     int     `json:"diff_trials"`
	DiffViolations int     `json:"diff_violations"`
}

const heteroFile = "BENCH_hetero.json"

// planFingerprint renders a configuration's shape as a stable string —
// stage boundaries and device counts — so plan drift (as opposed to
// mere cost drift) is directly visible in the guard diff.
func planFingerprint(cfg *config.Config) string {
	if cfg == nil {
		return "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mb%d", cfg.MicroBatch)
	for _, st := range cfg.Stages {
		fmt.Fprintf(&b, ";%d-%d/%dd", st.Start, st.End, st.Devices)
	}
	return b.String()
}

// runHeteroBench runs the heterogeneous planning case study: a
// fixed-iteration search of GPT-3 1.3B on one A100 node + one V100
// node, against (a) a class-blind search over the same scalar envelope
// whose candidates are re-priced under the true mixed model — the
// penalty a homogeneous planner pays on a real mixed fleet — and
// (b) homogeneous all-A100 / all-V100 fleets for context. It then runs
// the hetero slice of the differential validation (every tuple on a
// mixed-class cluster). The hetero plan must strictly beat the blind
// one and the slice must have zero violations. A full run rewrites
// BENCH_hetero.json; smoke checks the committed file instead: explored
// counts and the plan fingerprint must match exactly.
func runHeteroBench(e *env) error {
	seed := e.set.Seed
	fmt.Fprintf(e.w, "running heterogeneous planning case study (+%d mixed-cluster diff trials, seed %d)...\n",
		heteroDiffTrials, seed)
	g, err := model.GPT3("1.3B")
	if err != nil {
		return err
	}
	mixed := hardware.A100V100(1, 1) // 8×A100-80GB + 8×V100-32GB
	opts := core.Options{
		TimeBudget:    time.Hour, // iterations are the binding limit
		MaxIterations: 4,
		StageCounts:   []int{2, 4},
		Seed:          seed,
	}
	hetero, err := core.Search(g, mixed, opts)
	if err != nil {
		return err
	}
	if !hetero.Best.Estimate.Feasible {
		return fmt.Errorf("hetero search found no feasible plan")
	}

	// Class-blind: identical envelope, class table stripped — every
	// device looks like a full-speed A100 — then every candidate is
	// re-priced under the true mixed model.
	blind := mixed
	blind.Classes = nil
	blind.NodeClass = nil
	blindRes, err := core.Search(g, blind, opts)
	if err != nil {
		return err
	}
	truth := perfmodel.New(g, mixed, seed)
	blindTime, blindFeasible := 0.0, 0
	for _, cand := range append([]core.Candidate{blindRes.Best}, blindRes.TopK...) {
		if cand.Config == nil {
			continue
		}
		est := truth.Estimate(cand.Config)
		if !est.Feasible {
			continue
		}
		blindFeasible++
		if blindTime == 0 || est.IterTime < blindTime {
			blindTime = est.IterTime
		}
	}
	if blindFeasible == 0 {
		return fmt.Errorf("no class-blind plan is feasible on the mixed fleet; the strict comparison is vacuous")
	}

	homTime := func(cl hardware.Cluster) (float64, error) {
		res, err := core.Search(g, cl, opts)
		if err != nil {
			return 0, err
		}
		if !res.Best.Estimate.Feasible {
			return 0, fmt.Errorf("no feasible plan")
		}
		return res.Best.Estimate.IterTime, nil
	}
	a100Time, err := homTime(hardware.A100V100(2, 0))
	if err != nil {
		return fmt.Errorf("all-A100 baseline: %w", err)
	}
	v100Time, err := homTime(hardware.A100V100(0, 2))
	if err != nil {
		return fmt.Errorf("all-V100 baseline: %w", err)
	}

	fmt.Fprintf(e.w, "hetero: mixed-aware %.4fs (explored %d, plan %s)\n",
		hetero.Best.Estimate.IterTime, hetero.Explored, planFingerprint(hetero.Best.Config))
	fmt.Fprintf(e.w, "hetero: class-blind %.4fs re-priced (explored %d, %d/%d plans feasible) — speedup %.3fx\n",
		blindTime, blindRes.Explored, blindFeasible, 1+len(blindRes.TopK),
		blindTime/hetero.Best.Estimate.IterTime)
	fmt.Fprintf(e.w, "hetero: homogeneous baselines: all-A100 %.4fs, all-V100 %.4fs\n", a100Time, v100Time)
	var gs gates
	gs.check(hetero.Best.Estimate.IterTime < blindTime,
		"hetero-aware plan (%.6fs) does not strictly beat the best class-blind plan (%.6fs)",
		hetero.Best.Estimate.IterTime, blindTime)

	// Hetero diff slice: every tuple on a mixed-class cluster; the
	// class-aware model and simulator must agree with zero violations.
	rep := diffcheck.Run(diffcheck.Options{
		Trials:    heteroDiffTrials,
		Seed:      seed,
		Generator: diffcheck.RandomHeteroTuple,
		Log: func(format string, args ...any) {
			fmt.Fprintf(e.w, format+"\n", args...)
		},
	})
	fmt.Fprint(e.w, rep.Summary())
	gs.check(!rep.Failed(), "%d hetero diff violations", len(rep.Violations))

	out := heteroBenchFile{
		Setting: fmt.Sprintf("GPT-3 1.3B on 8×A100-80GB + 8×V100-32GB, %d iterations, stage counts {2,4}, seed %d",
			opts.MaxIterations, seed),
		Seed:           seed,
		HeteroIterTime: hetero.Best.Estimate.IterTime,
		HeteroExplored: hetero.Explored,
		HeteroPlan:     planFingerprint(hetero.Best.Config),
		BlindIterTime:  blindTime,
		BlindExplored:  blindRes.Explored,
		BlindFeasible:  blindFeasible,
		Speedup:        blindTime / hetero.Best.Estimate.IterTime,
		AllA100Time:    a100Time,
		AllV100Time:    v100Time,
		DiffTrials:     rep.Trials,
		DiffViolations: len(rep.Violations),
	}
	if !e.smoke {
		if err := writeJSON(e.path(heteroFile), out); err != nil {
			return err
		}
		fmt.Fprintf(e.w, "hetero: report → %s\n", e.path(heteroFile))
		return gs.err()
	}
	var rec heteroBenchFile
	if err := readJSON(heteroFile, &rec); err != nil {
		return fmt.Errorf("no committed benchmark to guard against: %w", err)
	}
	gs.check(out.HeteroExplored == rec.HeteroExplored, "hetero explored %d, recorded %d — the search is no longer bit-identical",
		out.HeteroExplored, rec.HeteroExplored)
	gs.check(out.BlindExplored == rec.BlindExplored, "class-blind explored %d, recorded %d — the homogeneous search drifted",
		out.BlindExplored, rec.BlindExplored)
	gs.check(out.HeteroPlan == rec.HeteroPlan, "hetero plan %q, recorded %q — the chosen plan drifted",
		out.HeteroPlan, rec.HeteroPlan)
	if len(gs) == 0 {
		fmt.Fprintf(e.w, "guard: ok — explored counts and plan match %s\n", heteroFile)
	}
	return gs.err()
}

// elasticTol is the acceptance bound on the stitched-vs-uninterrupted
// trajectory: reshard is a pure float64 repartition, so anything above
// accumulated rounding noise means recovery corrupted state.
const elasticTol = 1e-9

// churnBenchFile is the BENCH_churn.json schema: one deterministic
// 20+-event churn schedule survived end to end, with the recovery
// policies' ledger (availability, work lost, replans avoided by
// hysteresis, recovery percentiles), plus the verdict of the
// randomized churn chaos pass.
type churnBenchFile struct {
	Setting           string         `json:"setting"`
	Iterations        int            `json:"iterations"`
	ScheduledEvents   int            `json:"scheduled_events"`
	EventsApplied     int            `json:"events_applied"`
	EventCounts       map[string]int `json:"event_counts"`
	FaultsDetected    int            `json:"faults_detected"`
	AvailabilityPct   float64        `json:"availability_pct"`
	StepsLost         int            `json:"steps_lost"`
	StepsLostPerFault float64        `json:"steps_lost_per_fault"`
	Replans           int            `json:"replans"`
	ReplansAvoided    int            `json:"replans_avoided"`
	Ladder            map[string]int `json:"ladder"`
	Retries           int            `json:"retries"`
	Pauses            int            `json:"pauses"`
	RecoveryP50Ms     float64        `json:"recovery_p50_ms"`
	RecoveryP99Ms     float64        `json:"recovery_p99_ms"`
	Checkpoints       int            `json:"checkpoints"`
	Reshards          int            `json:"reshards"`
	ReshardBytesMoved int64          `json:"reshard_bytes_moved"`
	FinalCadence      int            `json:"final_cadence"`
	FinalDevices      int            `json:"final_devices"`
	LossDeltaFinal    float64        `json:"loss_delta_final"`
	MaxParamDiff      float64        `json:"max_param_diff"`
	Transitions       []string       `json:"transitions"`
	ChaosTrials       int            `json:"chaos_trials"`
	ChaosSurvivedRuns int            `json:"chaos_survived_runs"`
	ChaosTypedErrs    int            `json:"chaos_typed_errors"`
	ChaosViolations   []string       `json:"chaos_violations,omitempty"`
	Metrics           *obs.Registry  `json:"metrics"`
}

// churnSchedule is the deterministic 22-event acceptance schedule: two
// full preempt/readd cycles plus a late third, mild derates the
// hysteresis should absorb, a harsh straggler that must force a
// replan, and fabric derates with restores.
func churnSchedule() elastic.ChurnSpec {
	return elastic.ChurnSpec{Events: []elastic.ChurnEvent{
		{Iteration: 2, Kind: elastic.SlowNode, Device: 5, Scale: 0.9},   // mild blip → deferred
		{Iteration: 3, Kind: elastic.SlowNode, Device: 5, Scale: 1},     // restored
		{Iteration: 4, Kind: elastic.LinkDerate, Scale: 0.85},           // mild fabric congestion
		{Iteration: 5, Kind: elastic.LinkDerate, Scale: 1},              // cleared
		{Iteration: 6, Kind: elastic.Preempt, Device: 6},                // in-plan loss → ladder
		{Iteration: 8, Kind: elastic.Preempt, Device: 7},                // second loss
		{Iteration: 10, Kind: elastic.Readd, Device: 6},                 // capacity returns
		{Iteration: 11, Kind: elastic.Readd, Device: 7},                 // back to full fleet
		{Iteration: 13, Kind: elastic.SlowNode, Device: 1, Scale: 0.3},  // harsh straggler → forced
		{Iteration: 15, Kind: elastic.SlowNode, Device: 1, Scale: 1},    // recovered
		{Iteration: 16, Kind: elastic.LinkDerate, Scale: 0.6},           // heavy congestion
		{Iteration: 18, Kind: elastic.LinkDerate, Scale: 1},             // cleared
		{Iteration: 19, Kind: elastic.Preempt, Device: 0},               // third loss
		{Iteration: 21, Kind: elastic.Readd, Device: 0},                 // returns
		{Iteration: 22, Kind: elastic.SlowNode, Device: 3, Scale: 0.92}, // mild
		{Iteration: 23, Kind: elastic.SlowNode, Device: 4, Scale: 0.92}, // mild
		{Iteration: 24, Kind: elastic.SlowNode, Device: 3, Scale: 1},
		{Iteration: 24, Kind: elastic.SlowNode, Device: 4, Scale: 1},
		{Iteration: 25, Kind: elastic.Preempt, Device: 2}, // late loss
		{Iteration: 26, Kind: elastic.Readd, Device: 2},
		{Iteration: 27, Kind: elastic.LinkDerate, Scale: 0.9}, // parting blip
		{Iteration: 27, Kind: elastic.LinkDerate, Scale: 1},
	}}
}

// fleet is the emulated training setup the churn and spot targets
// share.
type fleet struct {
	g    *model.Graph
	cl   hardware.Cluster
	cfg  *config.Config
	x, y *tensor.Mat
}

// emulatedFleet builds MLP(6 layers, dim 16, batch 32) as pp2×tp2×dp2
// with microbatch 8 on 8 emulated V100s, with seeded data. The cluster
// is two 4-device nodes instead of half a DGX, so link derates hit a
// fabric the plan actually crosses.
func emulatedFleet(seed int64) (fleet, error) {
	const layers, dim, batch = 6, 16, 32
	var f fleet
	g, err := model.MLP(layers, dim, batch)
	if err != nil {
		return f, err
	}
	cfg, err := config.Balanced(g, 8, 2, 8) // 2 stages × 4 devices, mbs 8
	if err != nil {
		return f, err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: 2, DP: 2}
		}
	}
	cl := hardware.DGX1V100(2)
	cl.DevicesPerNode = 4
	if err := cl.Validate(); err != nil {
		return f, err
	}
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return f, err
	}
	rng := rand.New(rand.NewSource(seed))
	x, y := tensor.New(batch, dim), tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	return fleet{g: g, cl: cl, cfg: cfg, x: x, y: y}, nil
}

// chaosViolations renders a chaos report's violations for a BENCH file.
func chaosViolations(rep *chaos.Report) []string {
	var out []string
	for _, v := range rep.Violations {
		out = append(out, fmt.Sprintf("trial %d seed %d [%s]: %s", v.Trial, v.Seed, v.Kind, v.Detail))
	}
	return out
}

// runChurnBench survives one deterministic churn schedule (22 mixed
// events over 28 iterations on the emulated fleet) and gates on: every
// iteration completed, the final trajectory matching an uninterrupted
// run within elasticTol, hysteresis having avoided at least one replan
// search, and the schedule having exercised faults and retries. It then
// runs the randomized churn chaos pass (no violations allowed) and
// writes BENCH_churn.json.
func runChurnBench(e *env) error {
	const (
		iters = 28
		lr    = 0.05
	)
	seed := e.set.Seed
	fmt.Fprintf(e.w, "running continuous-churn benchmark (+%d chaos trials, seed %d)...\n", churnTrials, seed)
	f, err := emulatedFleet(seed)
	if err != nil {
		return err
	}
	ref := art.InitParams(f.g, seed)
	ref.Opt = art.Adam
	refLosses, err := art.Parallel(f.g, f.cfg, ref, f.x, f.y, lr, iters)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "aceso-churn-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	p := art.InitParams(f.g, seed)
	p.Opt = art.Adam
	spec := churnSchedule()
	rep, err := elastic.Supervise(context.Background(), f.g, f.cl, f.cfg, p, f.x, f.y, iters, spec,
		elastic.SuperviseOptions{
			Options: elastic.Options{
				LR:              lr,
				CheckpointEvery: 2,
				Dir:             dir,
				SearchBudget:    300 * time.Millisecond,
				Seed:            seed,
				Metrics:         reg,
			},
			BackoffBase:      100 * time.Microsecond,
			BackoffCap:       2 * time.Millisecond,
			SimulateTimeouts: 1, // exercise the backoff policy once
		})
	if err != nil {
		return err
	}

	out := churnBenchFile{
		Setting: fmt.Sprintf("MLP(6 layers, dim 16, batch 32), pp2×tp2×dp2 on 8 emulated V100s (2 nodes × 4), %d-event churn schedule, checkpoint every 2, seed %d",
			len(spec.Events), seed),
		Iterations:        iters,
		ScheduledEvents:   len(spec.Events),
		EventsApplied:     rep.EventsApplied,
		EventCounts:       rep.EventCounts,
		FaultsDetected:    rep.FaultsDetected,
		AvailabilityPct:   100 * rep.Availability(),
		StepsLost:         rep.StepsLost,
		Replans:           rep.Replans,
		ReplansAvoided:    rep.ReplansAvoided,
		Ladder:            rep.Ladder,
		Retries:           rep.Retries,
		Pauses:            rep.Pauses,
		RecoveryP50Ms:     float64(rep.RecoveryPercentile(0.5).Nanoseconds()) / 1e6,
		RecoveryP99Ms:     float64(rep.RecoveryPercentile(0.99).Nanoseconds()) / 1e6,
		Checkpoints:       rep.Checkpoints,
		Reshards:          rep.Reshards,
		ReshardBytesMoved: rep.ReshardBytesMoved,
		FinalCadence:      rep.FinalCadence,
		FinalDevices:      rep.Config.TotalDevices(),
		LossDeltaFinal:    math.Abs(refLosses[iters-1] - rep.Losses[iters-1]),
		MaxParamDiff:      ref.MaxDiff(rep.Params),
		Metrics:           reg,
	}
	if rep.FaultsDetected > 0 {
		out.StepsLostPerFault = float64(rep.StepsLost) / float64(rep.FaultsDetected)
	}
	for _, tr := range rep.Transitions {
		out.Transitions = append(out.Transitions, fmt.Sprintf("step %d [%s] %s", tr.Step, tr.Kind, tr.Detail))
	}

	var gs gates
	gs.check(rep.FinalStep == iters && len(rep.Losses) == iters, "run incomplete: final step %d, %d losses, want %d",
		rep.FinalStep, len(rep.Losses), iters)
	gs.check(out.LossDeltaFinal <= elasticTol && out.MaxParamDiff <= elasticTol,
		"trajectory diverged: loss delta %g, param diff %g (tol %g)", out.LossDeltaFinal, out.MaxParamDiff, elasticTol)
	gs.check(rep.ReplansAvoided > 0, "hysteresis avoided no replans across %d events", rep.EventsApplied)
	gs.check(rep.FaultsDetected > 0 && rep.Retries > 0, "schedule exercised too little: faults=%d retries=%d",
		rep.FaultsDetected, rep.Retries)
	fmt.Fprintf(e.w, "churn: survived %d events (%d faults) in %d iterations: availability %.1f%%, %d steps lost, %d replans (%d avoided), recovery p50 %.1fms p99 %.1fms\n",
		rep.EventsApplied, rep.FaultsDetected, iters, out.AvailabilityPct, rep.StepsLost,
		rep.Replans, rep.ReplansAvoided, out.RecoveryP50Ms, out.RecoveryP99Ms)
	fmt.Fprintf(e.w, "churn: final trajectory vs uninterrupted: loss delta %.3g, param diff %.3g (gate %g)\n",
		out.LossDeltaFinal, out.MaxParamDiff, elasticTol)

	crep := chaos.RunChurn(chaos.Options{
		Trials: churnTrials,
		Seed:   seed,
		Log: func(format string, args ...any) {
			fmt.Fprintf(e.w, format+"\n", args...)
		},
	})
	fmt.Fprint(e.w, crep.Summary())
	out.ChaosTrials = crep.Trials
	out.ChaosSurvivedRuns = crep.Plans
	out.ChaosTypedErrs = crep.TypedErrs
	out.ChaosViolations = chaosViolations(crep)
	gs.check(len(crep.Violations) == 0, "%d churn chaos violations", len(crep.Violations))

	path := e.path("BENCH_churn.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Fprintf(e.w, "churn: report → %s\n", path)
	return gs.err()
}

// runChaos runs the fault-injection harness of internal/chaos for a
// wall budget and fails if any trial panics, returns an invalid plan,
// or leaks a non-finite score.
func runChaos(e *env) error {
	dur := pick(e, 10*time.Second, 30*time.Second)
	if e.chaosDur > 0 {
		dur = e.chaosDur
	}
	fmt.Fprintf(e.w, "running chaos harness (duration %v, seed %d)...\n", dur, e.set.Seed)
	rep := chaos.Run(chaos.Options{
		Duration: dur,
		Seed:     e.set.Seed,
		Log: func(format string, args ...any) {
			fmt.Fprintf(e.w, format+"\n", args...)
		},
	})
	fmt.Fprint(e.w, rep.Summary())
	if rep.Failed() {
		return fmt.Errorf("%d invariant violations", len(rep.Violations))
	}
	return nil
}
