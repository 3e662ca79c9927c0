// Command acesobench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	acesobench [-budget 2s] [-sizes 5] [-seed 1] [targets...]
//
// Targets: fig1 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
// fig16 tables cases ablations, or "all" (default).
// fig7/fig8/fig15/fig16/tables share one end-to-end run.
//
// The extra target "search" (not part of "all") measures raw search
// throughput on the fixed-iteration GPT-3 2.6B / 16-GPU setting of
// BenchmarkSearchThroughput and writes BENCH_search.json (see
// -benchfile), preserving any previously recorded baseline so the file
// carries before/after numbers across optimization work. With -guard
// the target instead *checks* the committed file: it reruns the
// measurement, leaves the file untouched, and exits non-zero if the
// explored count drifted (the search is bit-identical by contract) or
// ns/op / allocs/op regressed beyond -guard-ns-tol / -guard-alloc-tol.
//
// The extra target "scale" (not part of "all") runs the search on
// synthetic thousand-device clusters — 1024, 2048 and 4096 V100s with
// uniform graphs of 2560, 5120 and 10240 operators — under a fixed
// iteration budget (-scale-iters) and writes BENCH_scale.json (see
// -scalefile). Explored counts are the determinism fingerprint at
// scale: when the committed file already has a row for a setting, a
// differing count makes the run exit non-zero.
//
// Any target combination can be profiled with -cpuprofile and
// -memprofile, which write pprof files covering everything the
// invocation ran (the profiles are finalized even when a target fails;
// see DESIGN.md §5g for the profiling workflow).
//
// The extra target "chaos" (not part of "all") runs the fault-injection
// harness of internal/chaos for -chaos-duration (or -chaos-trials
// trials), and exits non-zero if any trial panics, returns an invalid
// plan, or leaks a non-finite score.
//
// The extra target "diff" (not part of "all") runs the differential
// model-vs-simulator validation of internal/diffcheck for -diff-trials
// randomized tuples (twice with -diff-effects-on: once per mode),
// writes BENCH_diff.json (trials, violations, signed-band percentiles,
// metrics) plus one BENCH_diff_repro_NNN.json per shrunken violation,
// and exits non-zero on any invariant violation.
//
// The extra target "hetero" (not part of "all") runs the heterogeneous
// planning case study: a fixed-iteration search of GPT-3 1.3B on a
// mixed A100+V100 fleet against the best class-blind plan re-priced on
// the same fleet (plus homogeneous all-A100/all-V100 baselines), and a
// mixed-cluster slice of the differential validation. It writes
// BENCH_hetero.json (see -heterofile) and exits non-zero if the
// hetero-aware plan does not strictly beat the class-blind one or any
// diff tuple violates an invariant; with -guard it checks the
// committed file instead — explored counts and the chosen plan's
// fingerprint must match exactly.
//
// The extra target "spot" (not part of "all") runs the spot-capacity
// case study: risk-aware planning on a mixed reserved/spot fleet
// against the hazard-blind search re-priced under the true hazard, a
// deterministic preemption trace replayed through the churn supervisor
// twice (notices honored vs ignored), and the randomized spot chaos
// pass. It writes BENCH_spot.json (see -spotfile) and exits non-zero
// unless the risk-aware replay achieves at least 1.2x the risk-blind
// replay's achieved throughput.
//
// The extra target "trace" (not part of "all") runs a fixed-iteration
// search with the full observability stack attached: it writes the
// deterministic JSONL iteration trace to -tracefile, a summary
// (metrics snapshot, convergence curve, auditor tally) next to it as
// BENCH_trace.json, and exits non-zero if the breakdown auditor finds
// any resource-accounting violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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

// runSearchBench mirrors BenchmarkSearchThroughput: an
// iteration-bounded (never deadline-bounded) search of GPT-3 2.6B on
// 16 V100s, so ns/op tracks the machinery's cost per fixed amount of
// exploration.
func runSearchBench(reps int) (searchMeasurement, error) {
	var m searchMeasurement
	if reps < 1 {
		reps = 1
	}
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

// emitSearchBench writes BENCH_search.json, keeping an existing
// baseline (and its explored count as the reference) if the file is
// already present.
func emitSearchBench(path string, cur searchMeasurement) (searchBenchFile, error) {
	out := searchBenchFile{
		Benchmark: "BenchmarkSearchThroughput",
		Setting:   "GPT-3 2.6B on 16xV100 (DGX1V100(2)), MaxIterations=4, Seed=1, fixed-iteration",
		Current:   cur,
	}
	if raw, err := os.ReadFile(path); err == nil {
		var prev searchBenchFile
		if err := json.Unmarshal(raw, &prev); err == nil && prev.Baseline != nil {
			out.Baseline = prev.Baseline
		}
	}
	if out.Baseline == nil {
		b := cur
		out.Baseline = &b
	}
	if cur.NsPerOp > 0 {
		out.Speedup = float64(out.Baseline.NsPerOp) / float64(cur.NsPerOp)
	}
	f, err := os.Create(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return out, enc.Encode(out)
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
// writes the report, and returns how many rows drifted from the
// explored counts previously recorded in path.
func runScaleBench(path string, iters int, seed int64, w io.Writer) (int, error) {
	var prev scaleBenchFile
	havePrev := false
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &prev); err == nil {
			havePrev = prev.MaxIterations == iters && prev.Seed == seed
		}
	}
	out := scaleBenchFile{
		Setting: fmt.Sprintf("uniform synthetic graphs on DGX1V100 clusters, StageCounts=%v, MaxIterations=%d, Seed=%d, fixed-iteration",
			scaleStageCounts, iters, seed),
		MaxIterations: iters,
		Seed:          seed,
	}
	drift := 0
	for _, pt := range scalePoints {
		g := model.Uniform(pt.ops, 1e9, 1e6, 1e5, 1024)
		cl := hardware.DGX1V100(pt.nodes)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := core.Search(g, cl, core.Options{
			TimeBudget:    time.Hour, // iteration-bounded, like the search bench
			MaxIterations: iters,
			Seed:          seed,
			StageCounts:   scaleStageCounts,
		})
		if err != nil {
			return drift, fmt.Errorf("%d devices / %d ops: %w", cl.TotalDevices(), pt.ops, err)
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
		fmt.Fprintf(w, "scale: %4d devices, %5d ops: %8.0fms, %d explored, best %.4fs, %.0f MB allocated\n",
			row.Devices, row.Ops, row.ElapsedMs, row.Explored, row.BestScore, row.AllocMB)
		if havePrev {
			for _, p := range prev.Rows {
				if p.Devices == row.Devices && p.Ops == row.Ops {
					if p.Explored != row.Explored {
						drift++
						fmt.Fprintf(w, "scale: DRIFT at %d devices / %d ops: explored %d, recorded %d\n",
							row.Devices, row.Ops, row.Explored, p.Explored)
					}
					break
				}
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return drift, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return drift, err
	}
	if err := f.Close(); err != nil {
		return drift, err
	}
	fmt.Fprintf(w, "scale: report → %s\n", path)
	return drift, nil
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
func runTrace(traceFile, summaryFile string, iters int, seed int64, w io.Writer) error {
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

	tf, err := os.Create(traceFile)
	if err != nil {
		return err
	}
	if _, err := jsonl.WriteTo(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
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
	sf, err := os.Create(summaryFile)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(sf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}

	fmt.Fprintf(w, "trace: %d iterations, %d explored, best %.4fs, %d estimates audited\n",
		res.Iterations, res.Explored, res.Best.Score, auditor.Checked())
	fmt.Fprintf(w, "trace: events → %s, summary → %s\n", traceFile, summaryFile)
	if err := auditor.Err(); err != nil {
		return err
	}
	return nil
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

// runDiff executes the differential validation target: an effects-off
// run (hard invariants), optionally an effects-on run (calibration
// band), BENCH_diff.json, and one repro JSON per shrunken violation.
// The returned violation count drives the process exit code.
func runDiff(outFile string, trials int, seed int64, effectsOn bool, w io.Writer) (int, error) {
	reg := obs.NewRegistry()
	modes := []bool{false}
	if effectsOn {
		modes = append(modes, true)
	}
	out := diffBenchFile{
		Setting: fmt.Sprintf("randomized model-vs-simulator tuples, %d trials/mode, seed %d", trials, seed),
		Metrics: reg,
	}
	violations := 0
	for _, on := range modes {
		rep := diffcheck.Run(diffcheck.Options{
			Trials:    trials,
			Seed:      seed,
			EffectsOn: on,
			Metrics:   reg,
			Log: func(format string, args ...any) {
				fmt.Fprintf(w, format+"\n", args...)
			},
		})
		fmt.Fprint(w, rep.Summary())
		out.Reports = append(out.Reports, rep)
		for _, v := range rep.Violations {
			name := fmt.Sprintf("%s_repro_%03d.json",
				strings.TrimSuffix(outFile, filepath.Ext(outFile)), violations)
			violations++
			raw, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				return violations, err
			}
			if err := os.WriteFile(name, append(raw, '\n'), 0o644); err != nil {
				return violations, err
			}
			out.ReproFiles = append(out.ReproFiles, name)
			fmt.Fprintf(w, "diff: wrote shrunken repro → %s\n", name)
		}
	}
	f, err := os.Create(outFile)
	if err != nil {
		return violations, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return violations, err
	}
	if err := f.Close(); err != nil {
		return violations, err
	}
	fmt.Fprintf(w, "diff: report → %s\n", outFile)
	return violations, nil
}

// heteroBenchFile is the BENCH_hetero.json schema: the heterogeneous
// planning case study (mixed A100+V100 fleet vs the best class-blind
// plan re-priced on the same fleet, with homogeneous baselines for
// context) plus the hetero slice of the differential smoke. The
// search is fully deterministic — iteration-bounded, fixed seed — so
// explored counts, plan shapes and iteration times are all exact
// fingerprints a -guard run can compare against.
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
// mixed-class cluster) with a zero-violation gate. With guard set the
// committed file is checked instead of rewritten: explored counts and
// the plan fingerprint must match exactly, and the hetero plan must
// still strictly beat the blind one.
func runHeteroBench(outFile string, guardMode bool, diffTrials int, seed int64, w io.Writer) error {
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

	fmt.Fprintf(w, "hetero: mixed-aware %.4fs (explored %d, plan %s)\n",
		hetero.Best.Estimate.IterTime, hetero.Explored, planFingerprint(hetero.Best.Config))
	fmt.Fprintf(w, "hetero: class-blind %.4fs re-priced (explored %d, %d/%d plans feasible) — speedup %.3fx\n",
		blindTime, blindRes.Explored, blindFeasible, 1+len(blindRes.TopK),
		blindTime/hetero.Best.Estimate.IterTime)
	fmt.Fprintf(w, "hetero: homogeneous baselines: all-A100 %.4fs, all-V100 %.4fs\n", a100Time, v100Time)
	if hetero.Best.Estimate.IterTime >= blindTime {
		return fmt.Errorf("hetero-aware plan (%.6fs) does not strictly beat the best class-blind plan (%.6fs)",
			hetero.Best.Estimate.IterTime, blindTime)
	}

	// Hetero diff slice: every tuple on a mixed-class cluster; the
	// class-aware model and simulator must agree with zero violations.
	rep := diffcheck.Run(diffcheck.Options{
		Trials:    diffTrials,
		Seed:      seed,
		Generator: diffcheck.RandomHeteroTuple,
		Log: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	fmt.Fprint(w, rep.Summary())
	if rep.Failed() {
		return fmt.Errorf("%d hetero diff violations", len(rep.Violations))
	}

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

	if guardMode {
		raw, err := os.ReadFile(outFile)
		if err != nil {
			return fmt.Errorf("no committed benchmark to guard against: %w", err)
		}
		var rec heteroBenchFile
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		switch {
		case out.HeteroExplored != rec.HeteroExplored:
			return fmt.Errorf("hetero explored %d, recorded %d — the search is no longer bit-identical",
				out.HeteroExplored, rec.HeteroExplored)
		case out.BlindExplored != rec.BlindExplored:
			return fmt.Errorf("class-blind explored %d, recorded %d — the homogeneous search drifted",
				out.BlindExplored, rec.BlindExplored)
		case out.HeteroPlan != rec.HeteroPlan:
			return fmt.Errorf("hetero plan %q, recorded %q — the chosen plan drifted",
				out.HeteroPlan, rec.HeteroPlan)
		}
		fmt.Fprintf(w, "guard: ok — explored counts and plan match %s\n", outFile)
		return nil
	}

	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "hetero: report → %s\n", outFile)
	return nil
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

// runChurnBench survives one deterministic churn schedule (22 mixed
// events over 28 iterations on 8 emulated V100s across 2 nodes) and
// gates on: every iteration completed, the final trajectory matching
// an uninterrupted run within elasticTol, and hysteresis having
// avoided at least one replan search. It then runs the randomized
// churn chaos pass and writes BENCH_churn.json.
func runChurnBench(outFile string, trials int, seed int64, w io.Writer) (int, error) {
	const (
		layers, dim, batch = 6, 16, 32
		iters              = 28
		lr                 = 0.05
	)
	g, err := model.MLP(layers, dim, batch)
	if err != nil {
		return 0, err
	}
	cfg, err := config.Balanced(g, 8, 2, 8) // 2 stages × 4 devices, mbs 8
	if err != nil {
		return 0, err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: 2, DP: 2}
		}
	}
	// Two 4-device nodes instead of half a DGX: link derates then hit
	// a fabric the plan actually crosses.
	cl := hardware.DGX1V100(2)
	cl.DevicesPerNode = 4
	if err := cl.Validate(); err != nil {
		return 0, err
	}
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	x, y := tensor.New(batch, dim), tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}

	ref := art.InitParams(g, seed)
	ref.Opt = art.Adam
	refLosses, err := art.Parallel(g, cfg, ref, x, y, lr, iters)
	if err != nil {
		return 0, err
	}

	dir, err := os.MkdirTemp("", "aceso-churn-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	p := art.InitParams(g, seed)
	p.Opt = art.Adam
	spec := churnSchedule()
	rep, err := elastic.Supervise(context.Background(), g, cl, cfg, p, x, y, iters, spec,
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
		return 0, err
	}

	out := churnBenchFile{
		Setting: fmt.Sprintf("MLP(%d layers, dim %d, batch %d), pp2×tp2×dp2 on 8 emulated V100s (2 nodes × 4), %d-event churn schedule, checkpoint every 2, seed %d",
			layers, dim, batch, len(spec.Events), seed),
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

	violations := 0
	if rep.FinalStep != iters || len(rep.Losses) != iters {
		violations++
		fmt.Fprintf(w, "churn: run incomplete: final step %d, %d losses, want %d\n",
			rep.FinalStep, len(rep.Losses), iters)
	}
	if out.LossDeltaFinal > elasticTol || out.MaxParamDiff > elasticTol {
		violations++
		fmt.Fprintf(w, "churn: trajectory diverged: loss delta %g, param diff %g (tol %g)\n",
			out.LossDeltaFinal, out.MaxParamDiff, elasticTol)
	}
	if rep.ReplansAvoided == 0 {
		violations++
		fmt.Fprintf(w, "churn: hysteresis avoided no replans across %d events\n", rep.EventsApplied)
	}
	if rep.FaultsDetected == 0 || rep.Retries == 0 {
		violations++
		fmt.Fprintf(w, "churn: schedule exercised too little: faults=%d retries=%d\n",
			rep.FaultsDetected, rep.Retries)
	}
	fmt.Fprintf(w, "churn: survived %d events (%d faults) in %d iterations: availability %.1f%%, %d steps lost, %d replans (%d avoided), recovery p50 %.1fms p99 %.1fms\n",
		rep.EventsApplied, rep.FaultsDetected, iters, out.AvailabilityPct, rep.StepsLost,
		rep.Replans, rep.ReplansAvoided, out.RecoveryP50Ms, out.RecoveryP99Ms)
	fmt.Fprintf(w, "churn: final trajectory vs uninterrupted: loss delta %.3g, param diff %.3g (gate %g)\n",
		out.LossDeltaFinal, out.MaxParamDiff, elasticTol)

	crep := chaos.RunChurn(chaos.Options{
		Trials: trials,
		Seed:   seed,
		Log: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	})
	fmt.Fprint(w, crep.Summary())
	out.ChaosTrials = crep.Trials
	out.ChaosSurvivedRuns = crep.Plans
	out.ChaosTypedErrs = crep.TypedErrs
	for _, v := range crep.Violations {
		out.ChaosViolations = append(out.ChaosViolations,
			fmt.Sprintf("trial %d seed %d [%s]: %s", v.Trial, v.Seed, v.Kind, v.Detail))
	}
	violations += len(crep.Violations)

	f, err := os.Create(outFile)
	if err != nil {
		return violations, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return violations, err
	}
	if err := f.Close(); err != nil {
		return violations, err
	}
	fmt.Fprintf(w, "churn: report → %s\n", outFile)
	return violations, nil
}

func main() {
	budget := flag.Duration("budget", 2*time.Second, "per-search time budget (the paper used 200s)")
	sizes := flag.Int("sizes", 5, "how many of the 5 model sizes to run (1-5)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	csvDir := flag.String("csv", "", "also write machine-readable CSVs into this directory")
	benchFile := flag.String("benchfile", "BENCH_search.json", "output path for the search throughput benchmark")
	benchReps := flag.Int("benchreps", 3, "repetitions of the search throughput benchmark")
	guard := flag.Bool("guard", false, "with the search target: check the committed -benchfile instead of rewriting it; exit non-zero on explored drift or regression beyond the tolerances")
	guardNsTol := flag.Float64("guard-ns-tol", 0.5, "-guard: allowed fractional ns/op regression (wall time is machine-noisy; this catches order-of-magnitude slips, not jitter)")
	guardAllocTol := flag.Float64("guard-alloc-tol", 0.1, "-guard: allowed fractional allocs/op regression (allocation counts are near-deterministic)")
	scaleFile := flag.String("scalefile", "BENCH_scale.json", "output path for the scale target's report")
	scaleIters := flag.Int("scale-iters", 2, "top-level iterations per stage count for the scale target")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile covering the selected targets to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	chaosDur := flag.Duration("chaos-duration", 30*time.Second, "wall budget of the chaos target")
	chaosTrials := flag.Int("chaos-trials", 0, "fixed trial count for the chaos target (0 = run until -chaos-duration)")
	traceFile := flag.String("tracefile", "BENCH_trace.jsonl", "output path for the trace target's JSONL iteration trace")
	traceIters := flag.Int("trace-iters", 4, "top-level iterations per stage count for the trace target")
	diffFile := flag.String("difffile", "BENCH_diff.json", "output path for the diff target's report")
	diffTrials := flag.Int("diff-trials", diffcheck.DefaultTrials, "randomized tuples per mode for the diff target")
	diffEffectsOn := flag.Bool("diff-effects-on", false, "also run the diff target's effects-on calibration pass")
	churnFile := flag.String("churnfile", "BENCH_churn.json", "output path for the churn target's report")
	churnTrials := flag.Int("churn-trials", chaos.DefaultChurnTrials, "randomized chaos trials for the churn target")
	spotFile := flag.String("spotfile", "BENCH_spot.json", "output path for the spot target's report")
	spotTrials := flag.Int("spot-trials", chaos.DefaultSpotTrials, "randomized chaos trials for the spot target")
	heteroFile := flag.String("heterofile", "BENCH_hetero.json", "output path for the hetero target's report")
	heteroDiffTrials := flag.Int("hetero-diff-trials", 512, "randomized mixed-cluster tuples for the hetero target's diff slice")
	serveFile := flag.String("servefile", "BENCH_serve.json", "output path for the serve target's report")
	serveReqs := flag.Int("serve-requests", 1200, "load-phase requests for the serve target")
	serveClients := flag.Int("serve-clients", 32, "concurrent client workers for the serve target")
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "acesobench:", err)
			os.Exit(1)
		}
	}

	set := exps.Settings{Budget: *budget, Sizes: *sizes, Seed: *seed}
	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	want := map[string]bool{}
	for _, t := range targets {
		want[t] = true
	}
	all := want["all"]
	sel := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	w := os.Stdout

	// Profiling covers everything the invocation runs. finishProfiles is
	// idempotent and runs even on a failing target, so a profile of the
	// run that exposed a regression is never lost.
	var cpuF *os.File
	profilesDone := false
	finishProfiles := func() {
		if profilesDone {
			return
		}
		profilesDone = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "acesobench: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "acesobench: -memprofile: %v\n", err)
			}
			f.Close()
		}
	}
	fail := func(name string, err error) {
		finishProfiles()
		fmt.Fprintf(os.Stderr, "acesobench: %s: %v\n", name, err)
		os.Exit(1)
	}
	defer finishProfiles()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("cpuprofile", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail("cpuprofile", err)
		}
		cpuF = f
	}
	toCSV := func(name string, write func(f io.Writer) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fail(name, err)
		}
		defer f.Close()
		if err := write(f); err != nil {
			fail(name, err)
		}
	}

	if sel("fig1") {
		rows := exps.Fig1(nil)
		exps.RenderFig1(w, rows)
		fmt.Fprintln(w)
		toCSV("fig1.csv", func(f io.Writer) error { return exps.WriteFig1CSV(f, rows) })
	}

	if sel("fig7", "fig8", "fig15", "fig16", "tables") {
		fmt.Fprintf(w, "running end-to-end comparison (budget %v/search, %d sizes)...\n", *budget, set.Sizes)
		e2e, err := exps.RunE2E(set, nil)
		if err != nil {
			fail("e2e", err)
		}
		if sel("fig7") {
			e2e.RenderFig7(w)
			fmt.Fprintln(w)
		}
		if sel("fig8") {
			e2e.RenderFig8(w)
			fmt.Fprintln(w)
		}
		if sel("tables") {
			e2e.RenderTables(w)
			fmt.Fprintln(w)
		}
		if sel("fig15") {
			e2e.RenderFig15(w)
			fmt.Fprintln(w)
		}
		if sel("fig16") {
			e2e.RenderFig16(w)
			fmt.Fprintln(w)
		}
		toCSV("e2e.csv", e2e.WriteCSV)
	}

	if sel("fig9") {
		rows, err := exps.Fig9(set, nil)
		if err != nil {
			fail("fig9", err)
		}
		exps.RenderFig9(w, rows)
		fmt.Fprintln(w)
		toCSV("fig9.csv", func(f io.Writer) error { return exps.WriteFig9CSV(f, rows) })
	}

	if sel("fig10") {
		rows, err := exps.Fig10(set)
		if err != nil {
			fail("fig10", err)
		}
		exps.RenderFig10(w, rows)
		fmt.Fprintln(w)
		toCSV("fig10.csv", func(f io.Writer) error { return exps.WriteFig10CSV(f, rows) })
	}

	if sel("fig11") {
		r, err := exps.Fig11(set)
		if err != nil {
			fail("fig11", err)
		}
		exps.RenderFig11(w, r)
		fmt.Fprintln(w)
		toCSV("fig11.csv", func(f io.Writer) error { return exps.WriteFig11CSV(f, r) })
	}

	if sel("fig12") {
		curves, err := exps.Fig12(set)
		if err != nil {
			fail("fig12", err)
		}
		exps.RenderCurves(w, "Figure 12 (Exp#5): convergence with vs without Heuristic-2", curves)
		fmt.Fprintln(w)
		toCSV("fig12.csv", func(f io.Writer) error { return exps.WriteCurvesCSV(f, curves) })
	}

	if sel("fig13") {
		curves, err := exps.Fig13(set)
		if err != nil {
			fail("fig13", err)
		}
		exps.RenderCurves(w, "Figure 13 (Exp#6): convergence under different MaxHops", curves)
		fmt.Fprintln(w)
		toCSV("fig13.csv", func(f io.Writer) error { return exps.WriteCurvesCSV(f, curves) })
	}

	if sel("fig14") {
		curves, err := exps.Fig14(set)
		if err != nil {
			fail("fig14", err)
		}
		exps.RenderCurves(w, "Figure 14 (Exp#7): robustness to the initial configuration", curves)
		fmt.Fprintln(w)
		toCSV("fig14.csv", func(f io.Writer) error { return exps.WriteCurvesCSV(f, curves) })
	}

	if sel("ablations") {
		rows, memRatio, err := exps.Ablations(set)
		if err != nil {
			fail("ablations", err)
		}
		exps.RenderAblations(w, rows, memRatio)
		fmt.Fprintln(w)
	}

	if want["search"] { // deliberately not part of "all"
		fmt.Fprintf(w, "measuring search throughput (%d reps, fixed-iteration GPT-3 2.6B / 16 GPUs)...\n", *benchReps)
		cur, err := runSearchBench(*benchReps)
		if err != nil {
			fail("search", err)
		}
		fmt.Fprintf(w, "search throughput: %d ns/op, %d explored, %d B/op, %d allocs/op\n",
			cur.NsPerOp, cur.Explored, cur.BytesPerOp, cur.AllocsPerOp)
		if *guard {
			raw, err := os.ReadFile(*benchFile)
			if err != nil {
				fail("guard", fmt.Errorf("no committed benchmark to guard against: %w", err))
			}
			var rec searchBenchFile
			if err := json.Unmarshal(raw, &rec); err != nil {
				fail("guard", err)
			}
			ref := rec.Current
			switch {
			case cur.Explored != ref.Explored:
				fail("guard", fmt.Errorf("explored %d, recorded %d — the search is no longer bit-identical",
					cur.Explored, ref.Explored))
			case float64(cur.AllocsPerOp) > float64(ref.AllocsPerOp)*(1+*guardAllocTol):
				fail("guard", fmt.Errorf("allocs/op %d exceeds recorded %d by more than %.0f%%",
					cur.AllocsPerOp, ref.AllocsPerOp, *guardAllocTol*100))
			case float64(cur.NsPerOp) > float64(ref.NsPerOp)*(1+*guardNsTol):
				fail("guard", fmt.Errorf("ns/op %d exceeds recorded %d by more than %.0f%%",
					cur.NsPerOp, ref.NsPerOp, *guardNsTol*100))
			}
			fmt.Fprintf(w, "guard: ok — explored matches, within %.0f%% ns/op and %.0f%% allocs/op of %s\n",
				*guardNsTol*100, *guardAllocTol*100, *benchFile)
		} else {
			rec, err := emitSearchBench(*benchFile, cur)
			if err != nil {
				fail("search", err)
			}
			fmt.Fprintf(w, "baseline: %d ns/op (speedup %.2fx) — recorded in %s\n",
				rec.Baseline.NsPerOp, rec.Speedup, *benchFile)
		}
		fmt.Fprintln(w)
	}

	if want["scale"] { // deliberately not part of "all"
		fmt.Fprintf(w, "running scale benchmark (%d points up to 4096 devices / 10240 ops, %d iterations, seed %d)...\n",
			len(scalePoints), *scaleIters, *seed)
		drift, err := runScaleBench(*scaleFile, *scaleIters, *seed, w)
		if err != nil {
			fail("scale", err)
		}
		if drift > 0 {
			fail("scale", fmt.Errorf("%d rows drifted from the recorded explored counts", drift))
		}
		fmt.Fprintln(w)
	}

	if sel("cases") {
		cases, err := exps.Cases(set)
		if err != nil {
			fail("cases", err)
		}
		exps.RenderCases(w, cases)
		fmt.Fprintln(w)
	}

	if want["trace"] { // deliberately not part of "all"
		summaryFile := strings.TrimSuffix(*traceFile, filepath.Ext(*traceFile)) + ".json"
		fmt.Fprintf(w, "running traced search (%d iterations/stage-count, seed %d)...\n",
			*traceIters, *seed)
		if err := runTrace(*traceFile, summaryFile, *traceIters, *seed, w); err != nil {
			fail("trace", err)
		}
		fmt.Fprintln(w)
	}

	if want["diff"] { // deliberately not part of "all"
		fmt.Fprintf(w, "running differential validation (%d trials/mode, seed %d, effects-on pass: %v)...\n",
			*diffTrials, *seed, *diffEffectsOn)
		violations, err := runDiff(*diffFile, *diffTrials, *seed, *diffEffectsOn, w)
		if err != nil {
			fail("diff", err)
		}
		if violations > 0 {
			fail("diff", fmt.Errorf("%d invariant violations (repro files written)", violations))
		}
		fmt.Fprintln(w)
	}

	if want["hetero"] { // deliberately not part of "all"
		fmt.Fprintf(w, "running heterogeneous planning case study (+%d mixed-cluster diff trials, seed %d)...\n",
			*heteroDiffTrials, *seed)
		if err := runHeteroBench(*heteroFile, *guard, *heteroDiffTrials, *seed, w); err != nil {
			fail("hetero", err)
		}
		fmt.Fprintln(w)
	}

	if want["churn"] { // deliberately not part of "all"
		fmt.Fprintf(w, "running continuous-churn benchmark (+%d chaos trials, seed %d)...\n",
			*churnTrials, *seed)
		violations, err := runChurnBench(*churnFile, *churnTrials, *seed, w)
		if err != nil {
			fail("churn", err)
		}
		if violations > 0 {
			fail("churn", fmt.Errorf("%d invariant violations", violations))
		}
		fmt.Fprintln(w)
	}

	if want["spot"] { // deliberately not part of "all"
		fmt.Fprintf(w, "running spot-capacity benchmark (+%d chaos trials, seed %d)...\n",
			*spotTrials, *seed)
		violations, err := runSpotBench(*spotFile, *spotTrials, *seed, w)
		if err != nil {
			fail("spot", err)
		}
		if violations > 0 {
			fail("spot", fmt.Errorf("%d gate violations", violations))
		}
		fmt.Fprintln(w)
	}

	if want["serve"] { // deliberately not part of "all"
		fmt.Fprintf(w, "running serve load benchmark (%d requests, %d clients)...\n",
			*serveReqs, *serveClients)
		violations, err := runServeBench(*serveFile, *serveReqs, *serveClients, w)
		if err != nil {
			fail("serve", err)
		}
		if violations > 0 {
			fail("serve", fmt.Errorf("%d gate violations", violations))
		}
		fmt.Fprintln(w)
	}

	if want["chaos"] { // deliberately not part of "all"
		dur := *chaosDur
		if *chaosTrials > 0 {
			dur = 0
		}
		fmt.Fprintf(w, "running chaos harness (duration %v, trials %d, seed %d)...\n",
			dur, *chaosTrials, *seed)
		rep := chaos.Run(chaos.Options{
			Trials:   *chaosTrials,
			Duration: dur,
			Seed:     *seed,
			Log: func(format string, args ...any) {
				fmt.Fprintf(w, format+"\n", args...)
			},
		})
		fmt.Fprint(w, rep.Summary())
		if rep.Failed() {
			fail("chaos", fmt.Errorf("%d invariant violations", len(rep.Violations)))
		}
	}
}
