package aceso

import (
	"context"
	"runtime"
	"slices"
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

// TestSearchPanelPinned pins every seed of the perfbench search panel
// (GPT-3 2.6B on DGX1V100(2), MaxIterations=4) to its explored count
// and to the Hash of its best plan and of each top-K entry. Score ties
// are broken by Hash order, so a change to that order — or to which
// configs count as duplicates — moves these values even where the
// explored count of one seed would not.
func TestSearchPanelPinned(t *testing.T) {
	panel := []struct {
		seed     int64
		explored int
		best     uint64
		topK     []uint64
	}{
		{1, 24701, 0xea0aef36cba68034, []uint64{0xea0aef36cba68034, 0x2c7307379474f2f7, 0xa6dd85746a761ab3, 0x534a44cd423a638f, 0x9be96f827f64a21f}},
		{6, 25912, 0x40b0aadf984bc635, []uint64{0x40b0aadf984bc635, 0xbb51a6f7f364e0c, 0x864e0edff3ce4d81, 0x338781a19c88a369, 0x7c27b3abeeae5a2a}},
		{8, 25840, 0x1a322156c74a002b, []uint64{0x1a322156c74a002b, 0xedaba143de127c4, 0xbf451415d7ecfc8e, 0xa6dd85746a761ab3, 0x7c27b3abeeae5a2a}},
		{9, 26303, 0xa6dd85746a761ab3, []uint64{0xa6dd85746a761ab3, 0x534a44cd423a638f, 0x9be96f827f64a21f, 0xe8ce011dd1559cc3, 0xdb31d23ffa5c06ca}},
		{10, 26146, 0xeafb895282236682, []uint64{0xeafb895282236682, 0xa6dd85746a761ab3, 0x534a44cd423a638f, 0x9be96f827f64a21f, 0xe8ce011dd1559cc3}},
		{19, 25559, 0xa821580380969a59, []uint64{0xa821580380969a59, 0xa6dd85746a761ab3, 0x534a44cd423a638f, 0x9be96f827f64a21f, 0xe8ce011dd1559cc3}},
		{21, 25383, 0xa6dd85746a761ab3, []uint64{0xa6dd85746a761ab3, 0x534a44cd423a638f, 0x9be96f827f64a21f, 0xe8ce011dd1559cc3, 0x65fa738bcfc355b8}},
		{25, 26101, 0x5d3b8719d71f1215, []uint64{0x5d3b8719d71f1215, 0x9b39edd1159d456c, 0xeff0a8d18a17d001, 0xbc8ef7def2eb85ea, 0xa6dd85746a761ab3}},
		{26, 26202, 0x2ee7f6e90806bed7, []uint64{0x2ee7f6e90806bed7, 0xa6dd85746a761ab3, 0x534a44cd423a638f, 0x9be96f827f64a21f, 0xe8ce011dd1559cc3}},
	}
	g, err := GPT3("2.6B")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panel {
		res, err := Search(g, DGX1V100(2), Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: p.seed})
		if err != nil {
			t.Fatalf("seed %d: %v", p.seed, err)
		}
		if res.Explored != p.explored {
			t.Errorf("seed %d: explored %d, want %d", p.seed, res.Explored, p.explored)
		}
		if h := res.Best.Config.Hash(); h != p.best {
			t.Errorf("seed %d: best hash %#x, want %#x", p.seed, h, p.best)
		}
		got := make([]uint64, len(res.TopK))
		for i, c := range res.TopK {
			got[i] = c.Config.Hash()
		}
		if !slices.Equal(got, p.topK) {
			t.Errorf("seed %d: top-K hashes %#x, want %#x", p.seed, got, p.topK)
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
