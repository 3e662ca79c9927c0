package aceso

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPublicAPIRoundTrip exercises the facade the way a downstream
// user would: build a model, search, inspect, estimate, simulate.
func TestPublicAPIRoundTrip(t *testing.T) {
	g, err := GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cl := DGX1V100(1).Restrict(4)
	res, err := Search(g, cl, Options{TimeBudget: 500 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Best.Config
	if !res.Best.Estimate.Feasible {
		t.Fatal("infeasible best config")
	}
	if !strings.Contains(cfg.String(), "mbs=") {
		t.Errorf("Config.String() = %q", cfg.String())
	}

	est := EstimateConfig(g, cl, cfg, 1)
	if est.IterTime <= 0 {
		t.Fatalf("estimate: %+v", est)
	}
	sim, err := Simulate(g, cl, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sim.OOM {
		t.Error("search result OOMs in the simulator")
	}
	// The estimate and the simulation must agree within a small factor.
	ratio := est.IterTime / sim.IterTime
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("prediction %.3f vs simulation %.3f: ratio %.2f out of range",
			est.IterTime, sim.IterTime, ratio)
	}
}

func TestPublicModelBuilders(t *testing.T) {
	if _, err := T5("3B"); err != nil {
		t.Error(err)
	}
	if _, err := WideResNet("2B"); err != nil {
		t.Error(err)
	}
	if _, err := DeepTransformer(16); err != nil {
		t.Error(err)
	}
	if _, err := GPT3("nope"); err == nil {
		t.Error("bad size accepted")
	}
}

func TestPublicInitializers(t *testing.T) {
	g, err := GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	for _, init := range []Initializer{Balanced, ImbalancedOps, ImbalancedGPUs} {
		cfg, err := init(g, 8, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(g, 8); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrecisionConstants(t *testing.T) {
	g, _ := GPT3("350M")
	if g.Precision != FP16 {
		t.Error("GPT-3 should be FP16")
	}
	w, _ := WideResNet("0.5B")
	if w.Precision != FP32 {
		t.Error("Wide-ResNet should be FP32")
	}
}

func TestNewPerfModelSharing(t *testing.T) {
	g, _ := GPT3("350M")
	cl := DGX1V100(1).Restrict(4)
	pm := NewPerfModel(g, cl, 7)
	cfg, err := Balanced(g, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := pm.Estimate(cfg).IterTime
	b := pm.Estimate(cfg).IterTime
	if a != b {
		t.Error("shared performance model not deterministic")
	}
	// The same model can back a search (shared profiling database).
	res, err := Search(g, cl, Options{
		TimeBudget: 300 * time.Millisecond, Seed: 7, Model: pm,
		StageCounts: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score <= 0 {
		t.Error("search with shared model failed")
	}
}

// TestSearchExploredPinnedAcrossGOMAXPROCS pins the search-throughput
// setting (BenchmarkSearchThroughput, BENCH_search.json) to its
// committed explored count at one worker and at the default: the
// search is bit-identical whatever the parallelism.
func TestSearchExploredPinnedAcrossGOMAXPROCS(t *testing.T) {
	const want = 24701
	g, err := GPT3("2.6B")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := Search(g, DGX1V100(2), Options{
			TimeBudget:    time.Hour, // never expires; MaxIterations bounds the run
			MaxIterations: 4,
			Seed:          1,
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if res.Explored != want {
			t.Errorf("GOMAXPROCS=%d: explored %d, want %d", procs, res.Explored, want)
		}
	}
}

func TestPublicElasticAPI(t *testing.T) {
	g, err := GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Balanced(g, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := ProjectConfig(g, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := proj.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	init := WarmStart(cfg)
	warm, err := init(g, 4, proj.NumStages(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalDevices() != 4 {
		t.Errorf("warm start devices = %d", warm.TotalDevices())
	}
}

func TestPublicLlama(t *testing.T) {
	g, err := Llama("8B")
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalParams() < 6e9 {
		t.Errorf("Llama 8B params = %.3g", g.TotalParams())
	}
}

// TestPublicFaultToleranceAPI exercises SearchContext, Degrade and
// Replan through the facade: plan on a healthy cluster, wound it,
// replan around the straggler.
func TestPublicFaultToleranceAPI(t *testing.T) {
	g, err := GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cl := DGX1V100(1).Restrict(4)
	opts := Options{TimeBudget: 30 * time.Second, MaxIterations: 3, Seed: 1}
	base, err := SearchContext(context.Background(), g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	faults := FaultSpec{Devices: []DeviceFault{{Device: 1, FLOPSScale: 0.5, MemScale: 1}}}
	deg, err := Degrade(cl, faults)
	if err != nil {
		t.Fatal(err)
	}
	if deg.TotalDevices() != 4 {
		t.Fatalf("derated (not dead) device changed the count: %d", deg.TotalDevices())
	}
	res, err := Replan(context.Background(), g, cl, faults, base.Best.Config, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Config == nil || !res.Best.Estimate.Feasible {
		t.Fatalf("replan produced no feasible plan: %+v", res.Best)
	}
	// Cancellation through the facade keeps the partial-result contract.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := SearchContext(ctx, g, cl, Options{TimeBudget: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Partial || part.Best.Config == nil {
		t.Errorf("pre-canceled facade search: Partial=%v Best=%v", part.Partial, part.Best.Config)
	}
}
