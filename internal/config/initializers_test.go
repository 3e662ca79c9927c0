package config

import (
	"math/rand"
	"reflect"
	"testing"

	"aceso/internal/model"
)

// randomGraph is a uniform operator chain with random forward FLOPs,
// some of them zero, so split boundaries land at arbitrary places.
func randomGraph(rng *rand.Rand) *model.Graph {
	g := model.Uniform(1+rng.Intn(64), 1e9, 1e6, 1e5, 64)
	for i := range g.Ops {
		if rng.Intn(8) > 0 {
			g.Ops[i].FwdFLOPs = rng.ExpFloat64() * 1e9
		} else {
			g.Ops[i].FwdFLOPs = 0
		}
	}
	return g
}

// evenSplitReference is OpSplit's loop as it stood before it became
// OpSplitWeighted with unit weights: the oracle that the merge kept
// every boundary bit for bit.
func evenSplitReference(g *model.Graph, stages int) [][2]int {
	n := len(g.Ops)
	prefix := make([]float64, n+1)
	for i := range g.Ops {
		prefix[i+1] = prefix[i] + g.Ops[i].FwdFLOPs
	}
	out := make([][2]int, 0, stages)
	start := 0
	for s := 0; s < stages; s++ {
		if s == stages-1 {
			out = append(out, [2]int{start, n})
			break
		}
		target := prefix[start] + (prefix[n]-prefix[start])/float64(stages-s)
		end := start + 1
		maxEnd := n - (stages - s - 1)
		for end < maxEnd {
			if prefix[end]-target < target-prefix[end] {
				end++
				continue
			}
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
	return out
}

func TestOpSplitIsUnitWeightedSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		g := randomGraph(rng)
		stages := 1 + rng.Intn(len(g.Ops))
		ones := make([]float64, stages)
		for s := range ones {
			ones[s] = 1
		}
		got, err := OpSplit(g, stages)
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := OpSplitWeighted(g, ones)
		if err != nil {
			t.Fatal(err)
		}
		if want := evenSplitReference(g, stages); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(weighted, want) {
			t.Fatalf("trial %d, %d ops / %d stages: OpSplit %v, OpSplitWeighted(ones) %v, reference %v",
				trial, len(g.Ops), stages, got, weighted, want)
		}
	}
}

func TestCapacityBalancedUniformMatchesBalancedOnEvenSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for trial := 0; trial < 2000; trial++ {
		g := randomGraph(rng)
		devices := 1 + rng.Intn(32)
		stages := 1 + rng.Intn(min(devices, len(g.Ops)))
		devs, err := DeviceSplit(devices, stages)
		if err != nil {
			continue
		}
		even := true
		for _, d := range devs {
			even = even && d == devs[0]
		}
		if !even {
			continue
		}
		want, err := Balanced(g, devices, stages, 1)
		if err != nil {
			t.Fatal(err)
		}
		ones := make([]float64, devices)
		for d := range ones {
			ones[d] = 1
		}
		for _, scales := range [][]float64{ones, nil} {
			got, err := CapacityBalanced(scales)(g, devices, stages, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, split %v: CapacityBalanced(%v) %v, Balanced %v", trial, devs, scales, got, want)
			}
		}
		checked++
	}
	if checked < 200 {
		t.Fatalf("only %d even splits drawn", checked)
	}

	// An uneven split weights stages by device count, so it moves the
	// boundaries: 4,4,8 devices give the last stage half the FLOPs.
	g, err := model.GPT3("2.6B")
	if err != nil {
		t.Fatal(err)
	}
	bal := mustBalanced(t, g, 16, 3, 1)
	capb, err := CapacityBalanced(nil)(g, 16, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranges := func(c *Config) (out [][2]int) {
		for _, st := range c.Stages {
			out = append(out, [2]int{st.Start, st.End})
		}
		return out
	}
	if got, want := ranges(bal), [][2]int{{0, 91}, {91, 180}, {180, 260}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Balanced ranges %v, want %v", got, want)
	}
	if got, want := ranges(capb), [][2]int{{0, 68}, {68, 136}, {136, 260}}; !reflect.DeepEqual(got, want) {
		t.Errorf("CapacityBalanced(uniform) ranges %v, want %v", got, want)
	}
}

func TestRiskBalancedWithoutHazardIsCapacityBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		g := randomGraph(rng)
		devices := 1 + rng.Intn(32)
		stages := 1 + rng.Intn(min(devices, len(g.Ops)))
		scales := make([]float64, rng.Intn(devices+1))
		for d := range scales {
			scales[d] = rng.Float64()
		}
		want, wantErr := CapacityBalanced(scales)(g, devices, stages, 2)
		for _, hazard := range [][]float64{nil, make([]float64, devices)} {
			got, err := RiskBalanced(scales, hazard)(g, devices, stages, 2)
			if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, hazard %v: RiskBalanced %v (%v), CapacityBalanced %v (%v)",
					trial, hazard, got, err, want, wantErr)
			}
		}
	}
}
