package exps

import (
	"fmt"
	"io"
	"sort"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/tablefmt"
)

// Fig11Result aggregates Heuristic-1/2 efficiency statistics across
// searches (Exp#5, Figure 11): how many bottlenecks were attempted and
// how many hops were needed per improving iteration.
type Fig11Result struct {
	Tries []int // Tries[k] = iterations that needed k+1 bottleneck attempts
	Hops  []int // Hops[k]  = iterations whose improvement used k+1 hops
}

// FirstTryRate returns the fraction of improving iterations that
// found the right bottleneck on the first attempt (≈90% in the paper).
func (f *Fig11Result) FirstTryRate() float64 {
	total := 0
	for _, v := range f.Tries {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(f.Tries[0]) / float64(total)
}

// MultiHopRate returns the fraction of improving iterations that
// needed more than one hop (≈68% in the paper).
func (f *Fig11Result) MultiHopRate() float64 {
	total, multi := 0, 0
	for k, v := range f.Hops {
		total += v
		if k > 0 {
			multi += v
		}
	}
	if total == 0 {
		return 0
	}
	return float64(multi) / float64(total)
}

// Fig11 runs trace-instrumented searches over a sample of the Exp#1
// workloads and aggregates the heuristic statistics.
func Fig11(set Settings) (*Fig11Result, error) {
	set = set.withDefaults()
	out := &Fig11Result{}
	cases := []struct {
		family, size string
		gpus         int
	}{
		{"gpt3", "1.3B", 4},
		{"gpt3", "2.6B", 8},
		{"wresnet", "2B", 4},
		{"t5", "770M", 4},
	}
	for _, tc := range cases {
		g, err := model.ByName(tc.family, tc.size)
		if err != nil {
			return nil, err
		}
		run, err := runAceso(g, hardware.DGX1V100(4).Restrict(tc.gpus), set, nil)
		if err != nil {
			return nil, err
		}
		merge(&out.Tries, run.Trace.TriesHistogram())
		merge(&out.Hops, run.Trace.HopsHistogram())
	}
	return out, nil
}

func merge(dst *[]int, src []int) {
	for len(*dst) < len(src) {
		*dst = append(*dst, 0)
	}
	for i, v := range src {
		(*dst)[i] += v
	}
}

// RenderFig11 prints the two distributions.
func RenderFig11(w io.Writer, r *Fig11Result) {
	fmt.Fprintf(w, "Figure 11 (Exp#5): heuristic efficiency — first-try bottleneck rate %.0f%%, multi-hop rate %.0f%%\n",
		100*r.FirstTryRate(), 100*r.MultiHopRate())
	labels := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(i + 1)
		}
		return out
	}
	toF := func(v []int) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = float64(v[i])
		}
		return out
	}
	tablefmt.Bars(w, "(a) bottlenecks tried before improvement", labels(len(r.Tries)), toF(r.Tries), "")
	tablefmt.Bars(w, "(b) hops per improving reconfiguration", labels(len(r.Hops)), toF(r.Hops), "")
}

// Curve is a convergence curve: the best estimated iteration time
// sampled on a uniform wall-time grid.
type Curve struct {
	Label  string
	Budget time.Duration
	Best   []float64 // len == samples; 0 marks "no feasible config yet"
}

// sampleCurve resamples trace convergence points onto `samples`
// uniform steps across the budget, carrying the best score forward.
func sampleCurve(points []core.ConvergencePoint, budget time.Duration, samples int) []float64 {
	out := make([]float64, samples)
	best := 0.0
	pi := 0
	for i := 0; i < samples; i++ {
		cutoff := budget * time.Duration(i+1) / time.Duration(samples)
		for pi < len(points) && points[pi].Elapsed <= cutoff {
			best = points[pi].Score
			pi++
		}
		out[i] = best
	}
	return out
}

// convergenceRun executes one trace-collected search and samples it.
func convergenceRun(family, size string, gpus int, set Settings, label string, samples int, mut func(*core.Options)) (Curve, error) {
	g, err := model.ByName(family, size)
	if err != nil {
		return Curve{}, err
	}
	run, err := runAceso(g, hardware.DGX1V100(4).Restrict(gpus), set, mut)
	if err != nil {
		return Curve{}, err
	}
	return Curve{
		Label:  label,
		Budget: set.Budget,
		Best:   sampleCurve(run.Trace.Convergence(), set.Budget, samples),
	}, nil
}

const curveSamples = 8

// Fig12 compares convergence with and without Heuristic-2 (3 random-
// order runs), Exp#5 / Figure 12, on GPT-3 and Wide-ResNet.
func Fig12(set Settings) (map[string][]Curve, error) {
	set = set.withDefaults()
	out := map[string][]Curve{}
	cases := []struct {
		key, family, size string
		gpus              int
	}{
		{"GPT-3 1.3B, 4 GPUs", "gpt3", "1.3B", 4},
		{"Wide-ResNet 2B, 4 GPUs", "wresnet", "2B", 4},
	}
	for _, tc := range cases {
		var curves []Curve
		c, err := convergenceRun(tc.family, tc.size, tc.gpus, set, "heuristic-2", curveSamples, nil)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
		for r := 0; r < 3; r++ {
			seed := set.Seed + int64(r+1)*101
			c, err := convergenceRun(tc.family, tc.size, tc.gpus, set,
				fmt.Sprintf("random-%d", r+1), curveSamples, func(o *core.Options) {
					o.DisableHeuristic2 = true
					o.Seed = seed
				})
			if err != nil {
				return nil, err
			}
			curves = append(curves, c)
		}
		out[tc.key] = curves
	}
	return out, nil
}

// Fig13 sweeps MaxHops ∈ {1, 3, 7, 11} (Exp#6 / Figure 13).
func Fig13(set Settings) (map[string][]Curve, error) {
	set = set.withDefaults()
	out := map[string][]Curve{}
	cases := []struct {
		key, family, size string
		gpus              int
		stages            []int
	}{
		{"GPT-3 2.6B (6 stages)", "gpt3", "2.6B", 8, []int{6}},
		{"GPT-3 2.6B (8 stages)", "gpt3", "2.6B", 8, []int{8}},
		{"Wide-ResNet 4B (8 stages)", "wresnet", "4B", 8, []int{8}},
		{"Wide-ResNet 4B (4 stages)", "wresnet", "4B", 8, []int{4}},
	}
	for _, tc := range cases {
		var curves []Curve
		for _, hops := range []int{1, 3, 7, 11} {
			hops := hops
			c, err := convergenceRun(tc.family, tc.size, tc.gpus, set,
				fmt.Sprintf("MaxHops=%d", hops), curveSamples, func(o *core.Options) {
					o.MaxHops = hops
					o.StageCounts = tc.stages
				})
			if err != nil {
				return nil, err
			}
			curves = append(curves, c)
		}
		out[tc.key] = curves
	}
	return out, nil
}

// Fig14 compares initial configurations (Exp#7 / Figure 14).
func Fig14(set Settings) (map[string][]Curve, error) {
	set = set.withDefaults()
	out := map[string][]Curve{}
	inits := []struct {
		label string
		fn    core.Initializer
	}{
		{"balanced", config.Balanced},
		{"imbalance-op", config.ImbalancedOps},
		{"imbalance-GPU", config.ImbalancedGPUs},
	}
	cases := []struct {
		key, family, size string
		gpus              int
	}{
		{"GPT-3 2.6B, 8 GPUs", "gpt3", "2.6B", 8},
		{"Wide-ResNet 4B, 8 GPUs", "wresnet", "4B", 8},
	}
	for _, tc := range cases {
		var curves []Curve
		for _, in := range inits {
			in := in
			c, err := convergenceRun(tc.family, tc.size, tc.gpus, set,
				in.label, curveSamples, func(o *core.Options) {
					o.Initializer = in.fn
				})
			if err != nil {
				return nil, err
			}
			curves = append(curves, c)
		}
		out[tc.key] = curves
	}
	return out, nil
}

// RenderCurves prints convergence curves as a time-gridded table.
func RenderCurves(w io.Writer, title string, groups map[string][]Curve) {
	fmt.Fprintln(w, title)
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		curves := groups[key]
		fmt.Fprintf(w, "\n[%s]  best estimated iteration time (s) over search time (- = nothing feasible yet)\n", key)
		t := &tablefmt.Table{Header: []string{"variant"}}
		if len(curves) > 0 {
			for i := range curves[0].Best {
				frac := float64(i+1) / float64(len(curves[0].Best))
				t.Header = append(t.Header, fmt.Sprintf("%.0f%%", 100*frac))
			}
		}
		for _, c := range curves {
			row := []any{c.Label}
			for _, v := range c.Best {
				if v == 0 {
					row = append(row, "-")
				} else {
					row = append(row, fmt.Sprintf("%.2f", v))
				}
			}
			t.Add(row...)
		}
		t.Render(w)
	}
}
