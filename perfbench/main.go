// Command perfbench is the repository's benchmark: one process runs one
// named workload for a fixed wall time, checks the program's outputs,
// prints every metric by name and unit, and ends with one JSON line.
//
//	perfbench --workload search-gpt3-2.6b --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the JSON line carries the end-to-end metrics, measured
// with no tracing at all. With --trace 1 the run is split in two halves
// of the same seed, untraced then traced; the JSON line carries the
// per-layer metrics and the spans are written to
// .bench_build/out/spans-<workload>-<seed>.jsonl.
//
// Every workload reports the same end-to-end metric names (see
// METRICS.md for what each one means on each workload). A per-layer
// metric belongs to one workload; the others report it as 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir holds everything a run writes: spans and checkpoint
// directories. It is inside the checkout the benchmark runs from.
const outDir = ".bench_build/out"

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median, so one slow start does not decide the metric.
const setupReps = 5

// runConfig is what a workload receives from the command line.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Log     io.Writer // human-readable report lines
}

// outcome is what a workload returns: op counts for the failure ratio,
// the metrics by name, and the spans of a traced run.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string // failed checks, one line each
	Metrics   map[string]float64
	Spans     *spanLog
}

// failf records one failed check.
func (o *outcome) failf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

type workload struct {
	Name string
	Run  func(rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{Name: "search-gpt3-2.6b", Run: runSearchWorkload},
	{Name: "serve-zipf", Run: runServeWorkload},
	{Name: "churn-mlp", Run: runChurnWorkload},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics the mode reports: the end-to-end
// catalogue untraced, the per-layer catalogue traced. A metric of the
// running workload that was not measured is an error; a per-layer
// metric of another workload reads 0.
func buildResult(wl string, trace bool, o *outcome) (resultLine, error) {
	res := resultLine{
		Correct:   len(o.Problems) == 0 && o.Failed == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   map[string]metricValue{},
	}
	cat := endToEnd
	if trace {
		cat = perLayer
	}
	for _, m := range cat {
		v, ok := o.Metrics[m.Name]
		if !ok && (m.Workload == "" || m.Workload == wl) {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = notFinite
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// notFinite stands in for a metric that is not a finite number, such
// as a latency percentile that fell on a failed request (counted as
// infinitely late): JSON has no infinity, and the result line must
// still be printed with its failure counts.
const notFinite = math.MaxFloat64

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 25, "measured wall time")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root (BENCHMARK.json not found)")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rc := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Log: stdout}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.Name, rc.Seed, rc.Seconds, *trace)
	start := time.Now()
	o, err := w.Run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	for _, p := range o.Problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	if o.Spans != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.Name, rc.Seed))
		if err := o.Spans.WriteFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", o.Spans.Len(), path)
	}
	res, err := buildResult(w.Name, rc.Trace, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-34s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "fail_ratio %.6g (%d of %d ops), wall %.1fs\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}
