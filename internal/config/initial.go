package config

import (
	"fmt"

	"aceso/internal/model"
)

// DeviceSplit partitions total devices across stages so every stage
// receives a power of two and the counts sum exactly to total. The
// split is as even as possible; when total/stages is not a power of
// two, later stages receive the larger shares (matching the paper's
// found configurations such as 4,4,8 GPUs for 3 stages on 16).
func DeviceSplit(total, stages int) ([]int, error) {
	if stages <= 0 || total < stages {
		return nil, fmt.Errorf("config: cannot split %d devices into %d stages", total, stages)
	}
	base := 1
	for base*2 <= total/stages {
		base *= 2
	}
	out := make([]int, stages)
	sum := 0
	for i := range out {
		out[i] = base
		sum += base
	}
	for sum < total {
		// Double the smallest stage whose doubling still fits,
		// preferring the right-most on ties so extra capacity lands on
		// later (activation-lighter) stages.
		pick := -1
		for i := stages - 1; i >= 0; i-- {
			if sum+out[i] <= total && (pick < 0 || out[i] < out[pick]) {
				pick = i
			}
		}
		if pick >= 0 {
			sum += out[pick]
			out[pick] *= 2
		} else {
			return nil, fmt.Errorf("config: no power-of-two split of %d devices into %d stages", total, stages)
		}
	}
	return out, nil
}

// OpSplit partitions the model's operators into `stages` contiguous
// ranges with near-equal forward FLOPs: OpSplitWeighted with uniform
// weights. Every range is non-empty.
func OpSplit(g *model.Graph, stages int) ([][2]int, error) {
	if stages <= 0 {
		return nil, fmt.Errorf("config: cannot split %d ops into %d stages", len(g.Ops), stages)
	}
	ones := make([]float64, stages)
	for s := range ones {
		ones[s] = 1
	}
	return OpSplitWeighted(g, ones)
}

// Balanced builds the paper's default initial configuration: FLOPs-
// balanced contiguous operator ranges, an (as even as possible)
// power-of-two device split, full tensor parallelism inside each
// stage (memory-safest start), default sharding dims, no
// recomputation, and the given (minimum) microbatch size.
func Balanced(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	devs, err := DeviceSplit(totalDevices, stages)
	if err != nil {
		return nil, err
	}
	ranges, err := OpSplit(g, stages)
	if err != nil {
		return nil, err
	}
	c := &Config{MicroBatch: microBatch, Stages: make([]Stage, stages)}
	for s := 0; s < stages; s++ {
		st := Stage{Start: ranges[s][0], End: ranges[s][1], Devices: devs[s]}
		st.Ops = make([]OpSetting, st.NumOps())
		for j := range st.Ops {
			st.Ops[j] = OpSetting{TP: devs[s], DP: 1, Dim: 0}
		}
		c.Stages[s] = st
	}
	if err := c.Validate(g, totalDevices); err != nil {
		return nil, err
	}
	return c, nil
}

// ImbalancedOps builds the "imbalance-op" initial configuration of
// Exp#7: the first stage takes half of all operators and the rest are
// spread evenly.
func ImbalancedOps(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	c, err := Balanced(g, totalDevices, stages, microBatch)
	if err != nil {
		return nil, err
	}
	if stages == 1 {
		return c, nil
	}
	n := len(g.Ops)
	bounds := make([]int, stages+1)
	bounds[0] = 0
	bounds[1] = n / 2
	rest := n - n/2
	for s := 1; s < stages; s++ {
		bounds[s+1] = bounds[s] + rest/(stages-1)
	}
	bounds[stages] = n
	// Guarantee non-empty stages.
	for s := 1; s <= stages; s++ {
		if bounds[s] <= bounds[s-1] {
			bounds[s] = bounds[s-1] + 1
		}
	}
	if bounds[stages] > n {
		return nil, fmt.Errorf("config: model too small for %d imbalanced stages", stages)
	}
	bounds[stages] = n
	for s := 0; s < stages; s++ {
		st := &c.Stages[s]
		st.Start, st.End = bounds[s], bounds[s+1]
		st.Ops = make([]OpSetting, st.NumOps())
		for j := range st.Ops {
			st.Ops[j] = OpSetting{TP: st.Devices, DP: 1, Dim: 0}
		}
	}
	return c, c.Validate(g, totalDevices)
}

// ImbalancedGPUs builds the "imbalance-GPU" initial configuration of
// Exp#7: the first stage hoards devices (half of the total when that
// is a power of two) and the remainder is split across the rest.
func ImbalancedGPUs(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	c, err := Balanced(g, totalDevices, stages, microBatch)
	if err != nil {
		return nil, err
	}
	if stages == 1 {
		return c, nil
	}
	first := totalDevices / 2
	for !IsPow2(first) && first > 1 {
		first--
	}
	restSplit, err := DeviceSplit(totalDevices-first, stages-1)
	if err != nil {
		return nil, err
	}
	devs := append([]int{first}, restSplit...)
	for s := 0; s < stages; s++ {
		st := &c.Stages[s]
		st.Devices = devs[s]
		for j := range st.Ops {
			st.Ops[j] = OpSetting{TP: devs[s], DP: 1, Dim: 0}
		}
	}
	return c, c.Validate(g, totalDevices)
}
