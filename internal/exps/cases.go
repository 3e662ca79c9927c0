package exps

import (
	"fmt"
	"io"
	"sort"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// CaseStudy is the §5.4 qualitative analysis of one found config.
type CaseStudy struct {
	Title  string
	Config *config.Config
	Notes  []string
}

// Cases reproduces the two §5.4 case studies: GPT-3 1.3B on 4 GPUs
// (uneven pipeline stages with partial recomputation) and Wide-ResNet
// 6.8B on 16 GPUs (mixed per-op dp×tp inside a stage).
func Cases(set Settings) ([]CaseStudy, error) {
	set = set.withDefaults()
	var out []CaseStudy

	{
		g, err := model.GPT3("1.3B")
		if err != nil {
			return nil, err
		}
		run, err := runAceso(g, hardware.DGX1V100(1).Restrict(4), set, nil)
		if err != nil {
			return nil, err
		}
		cs := CaseStudy{Title: "GPT-3 1.3B on 4 GPUs (§5.4: uneven pipeline stages)", Config: run.Best}
		cs.Notes = describeStages(run.Best)
		out = append(out, cs)
	}
	{
		g, err := model.WideResNet("6.8B")
		if err != nil {
			return nil, err
		}
		run, err := runAceso(g, hardware.DGX1V100(2), set, nil)
		if err != nil {
			return nil, err
		}
		cs := CaseStudy{Title: "Wide-ResNet 6.8B on 16 GPUs (§5.4: per-op dp×tp mixes)", Config: run.Best}
		cs.Notes = describeStages(run.Best)
		out = append(out, cs)
	}
	return out, nil
}

// describeStages summarizes stage shapes, recompute counts and
// distinct tp×dp mixes.
func describeStages(c *config.Config) []string {
	var notes []string
	notes = append(notes, fmt.Sprintf("pipeline stages: %d, microbatch %d", c.NumStages(), c.MicroBatch))
	evenOps := true
	n0 := c.Stages[0].NumOps()
	for i := range c.Stages {
		st := &c.Stages[i]
		if st.NumOps() != n0 {
			evenOps = false
		}
		mixes := map[[2]int]int{}
		for j := range st.Ops {
			mixes[[2]int{st.Ops[j].TP, st.Ops[j].DP}]++
		}
		keys := make([][2]int, 0, len(mixes))
		for k := range mixes {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a][0] != keys[b][0] {
				return keys[a][0] < keys[b][0]
			}
			return keys[a][1] < keys[b][1]
		})
		mixDesc := ""
		for _, k := range keys {
			mixDesc += fmt.Sprintf(" tp%d×dp%d(%d ops)", k[0], k[1], mixes[k])
		}
		notes = append(notes, fmt.Sprintf(
			"stage %d: %d ops on %d GPUs, %d recomputed,%s",
			i, st.NumOps(), st.Devices, c.RecomputedOps(i), mixDesc))
	}
	if !evenOps {
		notes = append(notes, "stages are UNEVEN op partitions (outside Megatron-LM/Alpa's space)")
	}
	return notes
}

// RenderCases prints the case studies.
func RenderCases(w io.Writer, cases []CaseStudy) {
	fmt.Fprintln(w, "§5.4 case studies: configurations found by Aceso")
	for _, cs := range cases {
		fmt.Fprintf(w, "\n%s\n", cs.Title)
		for _, n := range cs.Notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
	}
}
