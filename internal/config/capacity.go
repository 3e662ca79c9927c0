package config

import (
	"fmt"

	"aceso/internal/model"
)

// OpSplitWeighted partitions the model's operators into len(weights)
// contiguous ranges whose forward FLOPs are proportional to the
// weights: stage s targets the fraction weights[s]/Σweights. OpSplit
// is the uniform-weight case. Every range is non-empty; non-positive
// weights are treated as a minimal share.
func OpSplitWeighted(g *model.Graph, weights []float64) ([][2]int, error) {
	n := len(g.Ops)
	stages := len(weights)
	if stages <= 0 || n < stages {
		return nil, fmt.Errorf("config: cannot split %d ops into %d stages", n, stages)
	}
	w := make([]float64, stages)
	for s, v := range weights {
		if v <= 0 {
			v = 1e-9
		}
		w[s] = v
	}
	prefix := make([]float64, n+1)
	for i := range g.Ops {
		prefix[i+1] = prefix[i] + g.Ops[i].FwdFLOPs
	}
	// Suffix weight sums: restWeight[s] = Σ_{k ≥ s} w[k], so the target
	// for stage s is its share of the *remaining* FLOPs, rebalancing as
	// it goes. With unit weights w[s] and restWeight[s] = stages-s are
	// exact in float64, so the target is bit-identical to an even
	// 1/(stages-s) share.
	restWeight := make([]float64, stages+1)
	for s := stages - 1; s >= 0; s-- {
		restWeight[s] = restWeight[s+1] + w[s]
	}
	out := make([][2]int, 0, stages)
	start := 0
	for s := 0; s < stages; s++ {
		if s == stages-1 {
			out = append(out, [2]int{start, n})
			break
		}
		target := prefix[start] + (prefix[n]-prefix[start])*w[s]/restWeight[s]
		end := start + 1
		// Advance while adding the next op keeps us closer to target,
		// but leave at least one op per remaining stage.
		maxEnd := n - (stages - s - 1)
		for end < maxEnd {
			if prefix[end]-target < target-prefix[end] { // end is left of target
				end++
				continue
			}
			// Crossing the target: keep whichever boundary is closer.
			if prefix[end]-target > target-prefix[end-1] && end-1 > start {
				end--
			}
			break
		}
		if end > maxEnd {
			end = maxEnd
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out, nil
}

// CapacityBalanced returns an initializer for heterogeneous clusters:
// the device split is Balanced's, but operators are assigned to stages
// in proportion to the *compute capacity* of the devices each stage
// lands on — devScale[d] is device d's throughput relative to the best
// class (hardware.DeviceFLOPSScale), so fast classes attract
// compute-heavy stages from the very first candidate. Devices beyond
// len(devScale) count as full-speed. With uniform scales a stage's
// weight is its device count, so the result equals Balanced only when
// DeviceSplit is even: GPT-3 2.6B on 16 devices in 3 stages splits as
// 4,4,8, and the 8-device stage takes half the FLOPs instead of a
// third.
func CapacityBalanced(devScale []float64) func(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	return RiskBalanced(devScale, nil)
}

// RiskBalanced is the spot-capacity initializer: CapacityBalanced's
// capacity-proportional operator shares with two hazard biases.
// Stage-boundary bias: a device's weight is its capacity discounted by
// its preemption hazard (hazard[d], any unit — only relative magnitude
// matters), so hazardous stages attract fewer operators and are
// cheaper to re-execute. Placement bias: a stage landing on any
// hazardous device starts dp-replicated (TP devs/2 × DP 2) when device
// count and microbatch divisibility permit, so the work a preemption
// can touch is held by a surviving replica from the very first
// candidate. With nil or all-zero hazards both biases vanish and the
// result is exactly CapacityBalanced's.
func RiskBalanced(devScale, hazard []float64) func(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
	return func(g *model.Graph, totalDevices, stages, microBatch int) (*Config, error) {
		devs, err := DeviceSplit(totalDevices, stages)
		if err != nil {
			return nil, err
		}
		weights := make([]float64, stages)
		hazardous := make([]bool, stages)
		first := 0
		for s := 0; s < stages; s++ {
			var cap float64
			for d := first; d < first+devs[s]; d++ {
				w := 1.0
				if d < len(devScale) && devScale[d] > 0 {
					w = devScale[d]
				}
				if d < len(hazard) && hazard[d] > 0 {
					// Cap the discount at 1.25x: the bias should nudge stage
					// boundaries, not starve hazardous stages of work the
					// search then has to claw back from a distorted start.
					h := hazard[d]
					if h > 1 {
						h = 1
					}
					w /= 1 + h/4
					hazardous[s] = true
				}
				cap += w
			}
			weights[s] = cap
			first += devs[s]
		}
		ranges, err := OpSplitWeighted(g, weights)
		if err != nil {
			return nil, err
		}
		c := &Config{MicroBatch: microBatch, Stages: make([]Stage, stages)}
		for s := 0; s < stages; s++ {
			st := Stage{Start: ranges[s][0], End: ranges[s][1], Devices: devs[s]}
			st.Ops = make([]OpSetting, st.NumOps())
			tp, dp := devs[s], 1
			if hazardous[s] && devs[s]%2 == 0 && microBatch%2 == 0 {
				tp, dp = devs[s]/2, 2
			}
			for j := range st.Ops {
				st.Ops[j] = OpSetting{TP: tp, DP: dp, Dim: 0}
			}
			c.Stages[s] = st
		}
		if err := c.Validate(g, totalDevices); err != nil {
			return nil, err
		}
		return c, nil
	}
}
