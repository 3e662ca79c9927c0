package exps

import (
	"fmt"
	"io"
	"math"

	"aceso/internal/baselines/alpa"
	"aceso/internal/baselines/megatron"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/tablefmt"
)

// E2ECell is one (family, size) point of the end-to-end comparison —
// the shared raw material of Figure 7, Figure 8, Tables 3–5 and
// Figures 15–16.
type E2ECell struct {
	Family string
	Size   string
	GPUs   int

	// Simulated iteration times (seconds); 0 marks "not run / failed".
	AcesoIter, MegatronIter, AlpaIter float64
	// Effective TFLOPS per GPU (Tables 3–5).
	AcesoTF, MegatronTF, AlpaTF float64
	// Search costs in seconds (Figure 8); Alpa's includes the emulated
	// compile+profile charge.
	AcesoSearch, AlpaSearch float64

	// Performance-model accuracy on Aceso's chosen config (Fig 15/16).
	PredTime, ActualTime float64
	PredMem, ActualMem   float64 // bytes
}

// Throughputs returns the per-system throughput of the cell in
// samples/second, zero for missing systems.
func (c *E2ECell) Throughputs(batch int) (aceso, megatron, alpaT float64) {
	conv := func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		return float64(batch) / t
	}
	return conv(c.AcesoIter), conv(c.MegatronIter), conv(c.AlpaIter)
}

// E2E bundles every end-to-end cell.
type E2E struct {
	Settings Settings
	Cells    []E2ECell
	batches  map[string]int // family → global batch
}

// familySizes maps families to their Table 2 size labels.
var familySizes = map[string][]string{
	"gpt3":    model.GPT3Sizes,
	"t5":      model.T5Sizes,
	"wresnet": model.WideResNetSizes,
}

// E2EFamilies is the canonical family order of Figure 7.
var E2EFamilies = []string{"gpt3", "wresnet", "t5"}

// RunE2E executes Exp#1/#2's protocol for the given families: for each
// model size on its device count, search with Aceso (executing the
// top-5 and keeping the fastest), grid-search Megatron-LM, solve the
// Alpa-like baseline (except for T5, which had no official Alpa
// implementation), and simulate every found configuration.
func RunE2E(set Settings, families []string) (*E2E, error) {
	set = set.withDefaults()
	if len(families) == 0 {
		families = E2EFamilies
	}
	out := &E2E{Settings: set, batches: map[string]int{}}
	for _, fam := range families {
		sizes, ok := familySizes[fam]
		if !ok {
			return nil, fmt.Errorf("exps: unknown model family %q (want gpt3, t5 or wresnet)", fam)
		}
		for si := 0; si < set.Sizes; si++ {
			size := sizes[si]
			gpus := GPUsForSize[si]
			cell, err := runE2ECell(fam, size, gpus, set)
			if err != nil {
				return nil, fmt.Errorf("exps: %s-%s on %d GPUs: %w", fam, size, gpus, err)
			}
			out.Cells = append(out.Cells, *cell)
			if _, ok := out.batches[fam]; !ok {
				g, _ := model.ByName(fam, size)
				out.batches[fam] = g.GlobalBatch
			}
		}
	}
	return out, nil
}

func runE2ECell(fam, size string, gpus int, set Settings) (*E2ECell, error) {
	g, err := model.ByName(fam, size)
	if err != nil {
		return nil, err
	}
	cl := hardware.DGX1V100(4).Restrict(gpus)
	cell := &E2ECell{Family: fam, Size: size, GPUs: gpus}

	// Aceso.
	run, err := runAceso(g, cl, set, nil)
	if err != nil {
		return nil, err
	}

	// §5.1: "For the 1-GPU setting, we ran all the systems under the
	// same configuration" — there is nothing to parallelize, so every
	// system executes identically.
	if gpus == 1 {
		if run.Simulated != nil {
			cell.AcesoIter = run.Simulated.IterTime
			cell.MegatronIter = cell.AcesoIter
			cell.AcesoTF = tflops(g, gpus, cell.AcesoIter)
			cell.MegatronTF = cell.AcesoTF
			if fam != "t5" {
				cell.AlpaIter = cell.AcesoIter
				cell.AlpaTF = cell.AcesoTF
			}
			cell.PredTime = run.Predicted.IterTime
			cell.ActualTime = run.Simulated.IterTime
			cell.PredMem = run.Predicted.PeakMem
			cell.ActualMem = run.Simulated.PeakMem
		}
		cell.AcesoSearch = run.SearchTime.Seconds()
		if fam != "t5" {
			if al, err := alpa.Search(g, cl, alpa.Options{Seed: set.Seed}); err == nil {
				cell.AlpaSearch = al.EmulatedSearchCost.Seconds()
			}
		}
		return cell, nil
	}
	if run.Simulated != nil {
		cell.AcesoIter = run.Simulated.IterTime
		cell.AcesoTF = tflops(g, gpus, cell.AcesoIter)
		cell.PredTime = run.Predicted.IterTime
		cell.ActualTime = run.Simulated.IterTime
		cell.PredMem = run.Predicted.PeakMem
		cell.ActualMem = run.Simulated.PeakMem
	}
	cell.AcesoSearch = run.SearchTime.Seconds()

	// Megatron-LM grid.
	if mg, err := megatron.Search(g, cl, megatron.Options{Seed: set.Seed}); err == nil {
		if sim, _, err := simulate(g, cl, mg.Best, set.Seed); err == nil && !sim.OOM {
			cell.MegatronIter = sim.IterTime
			cell.MegatronTF = tflops(g, gpus, sim.IterTime)
		}
	}

	// Alpa-like (not for T5: the paper had no official T5 support).
	if fam != "t5" {
		if al, err := alpa.Search(g, cl, alpa.Options{Seed: set.Seed}); err == nil {
			if sim, _, err := simulate(g, cl, al.Best, set.Seed); err == nil && !sim.OOM {
				cell.AlpaIter = sim.IterTime
				cell.AlpaTF = tflops(g, gpus, sim.IterTime)
			}
			cell.AlpaSearch = al.EmulatedSearchCost.Seconds()
		}
	}
	return cell, nil
}

// RenderFig7 prints normalized training throughput per family (Exp#1).
func (e *E2E) RenderFig7(w io.Writer) {
	fmt.Fprintln(w, "Figure 7 (Exp#1): normalized training throughput (higher is better; - = not run, x = failed)")
	for _, fam := range E2EFamilies {
		cells := e.family(fam)
		if len(cells) == 0 {
			continue
		}
		t := &tablefmt.Table{Header: []string{"size", "GPUs", "Megatron-LM", "Alpa", "Aceso", "Aceso speedup vs best baseline"}}
		for _, c := range cells {
			a, m, al := c.Throughputs(e.batches[fam])
			best := math.Max(a, math.Max(m, al))
			if best == 0 {
				continue
			}
			norm := func(v float64, ran bool) string {
				if !ran {
					return "-"
				}
				if v == 0 {
					return "x"
				}
				return fmt.Sprintf("%.2f", v/best)
			}
			baseline := math.Max(m, al)
			speedup := "-"
			if baseline > 0 && a > 0 {
				speedup = fmt.Sprintf("%.2fx", a/baseline)
			}
			t.Add(c.Size, c.GPUs, norm(m, true), norm(al, fam != "t5"), norm(a, true), speedup)
		}
		fmt.Fprintf(w, "\n[%s]\n", fam)
		t.Render(w)
	}
}

// RenderFig8 prints the search-cost comparison (Exp#2).
func (e *E2E) RenderFig8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8 (Exp#2): configuration search cost (seconds; Alpa includes emulated compile+profile charges)")
	for _, fam := range []string{"gpt3", "wresnet"} {
		cells := e.family(fam)
		if len(cells) == 0 {
			continue
		}
		t := &tablefmt.Table{Header: []string{"size", "GPUs", "Alpa (s)", "Aceso (s)", "Aceso/Alpa"}}
		for _, c := range cells {
			if c.AlpaSearch <= 0 {
				continue
			}
			t.Add(c.Size, c.GPUs, c.AlpaSearch, c.AcesoSearch,
				fmt.Sprintf("%.1f%%", 100*c.AcesoSearch/c.AlpaSearch))
		}
		fmt.Fprintf(w, "\n[%s]\n", fam)
		t.Render(w)
	}
}

// RenderTables prints Tables 3–5: effective TFLOPS per GPU.
func (e *E2E) RenderTables(w io.Writer) {
	titles := map[string]string{
		"gpt3":    "Table 3: GPT-3 TFLOPS per GPU",
		"wresnet": "Table 4: Wide-Resnet TFLOPS per GPU",
		"t5":      "Table 5: T5 TFLOPS per GPU",
	}
	for _, fam := range E2EFamilies {
		cells := e.family(fam)
		if len(cells) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", titles[fam])
		t := &tablefmt.Table{Header: []string{"system"}}
		for _, c := range cells {
			t.Header = append(t.Header, c.Size)
		}
		systems := []struct {
			name string
			get  func(*E2ECell) float64
		}{
			{"Megatron-LM", func(c *E2ECell) float64 { return c.MegatronTF }},
			{"Alpa", func(c *E2ECell) float64 { return c.AlpaTF }},
			{"Aceso", func(c *E2ECell) float64 { return c.AcesoTF }},
		}
		for _, sys := range systems {
			if fam == "t5" && sys.name == "Alpa" {
				continue
			}
			row := []any{sys.name}
			for i := range cells {
				row = append(row, sys.get(&cells[i]))
			}
			t.Add(row...)
		}
		t.Render(w)
	}
}

// RenderFig15 prints predicted-vs-actual iteration time (Exp#8).
func (e *E2E) RenderFig15(w io.Writer) {
	fmt.Fprintln(w, "Figure 15 (Exp#8): predicted vs actual (simulated) iteration time")
	for _, fam := range []string{"gpt3", "wresnet"} {
		cells := e.family(fam)
		if len(cells) == 0 {
			continue
		}
		t := &tablefmt.Table{Header: []string{"size", "GPUs", "predicted (s)", "actual (s)", "error"}}
		var sumErr float64
		n := 0
		for _, c := range cells {
			if c.ActualTime <= 0 {
				continue
			}
			err := math.Abs(c.PredTime-c.ActualTime) / c.ActualTime
			sumErr += err
			n++
			t.Add(c.Size, c.GPUs, fmt.Sprintf("%.3f", c.PredTime),
				fmt.Sprintf("%.3f", c.ActualTime), fmt.Sprintf("%.2f%%", 100*err))
		}
		fmt.Fprintf(w, "\n[%s]  avg error %.2f%%\n", fam, 100*sumErr/math.Max(1, float64(n)))
		t.Render(w)
	}
}

// RenderFig16 prints predicted-vs-actual memory (Exp#9).
func (e *E2E) RenderFig16(w io.Writer) {
	fmt.Fprintln(w, "Figure 16 (Exp#9): predicted vs actual (simulated) peak memory")
	const gib = 1 << 30
	for _, fam := range []string{"gpt3", "wresnet"} {
		cells := e.family(fam)
		if len(cells) == 0 {
			continue
		}
		t := &tablefmt.Table{Header: []string{"size", "GPUs", "predicted (GiB)", "actual (GiB)", "error"}}
		var sumErr float64
		n := 0
		for _, c := range cells {
			if c.ActualMem <= 0 {
				continue
			}
			err := math.Abs(c.PredMem-c.ActualMem) / c.ActualMem
			sumErr += err
			n++
			t.Add(c.Size, c.GPUs, fmt.Sprintf("%.2f", c.PredMem/gib),
				fmt.Sprintf("%.2f", c.ActualMem/gib), fmt.Sprintf("%.2f%%", 100*err))
		}
		fmt.Fprintf(w, "\n[%s]  avg error %.2f%%\n", fam, 100*sumErr/math.Max(1, float64(n)))
		t.Render(w)
	}
}

func (e *E2E) family(fam string) []E2ECell {
	var out []E2ECell
	for _, c := range e.Cells {
		if c.Family == fam {
			out = append(out, c)
		}
	}
	return out
}
