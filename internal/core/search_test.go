package core

import (
	"sort"
	"testing"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
)

// quickOpts returns search options small enough for unit tests but
// large enough to exercise the full machinery.
func quickOpts() Options {
	return Options{
		TimeBudget:  800 * time.Millisecond,
		StageCounts: []int{1, 2, 4},
		Seed:        1,
	}
}

func TestSearchImprovesOverInitial(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := Search(g, cl, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Estimate.Feasible {
		t.Fatal("best config infeasible")
	}
	// Compare against each searched depth's initial configuration.
	pm := perfmodel.New(g, cl, 1)
	bestInit := 0.0
	for _, p := range []int{1, 2, 4} {
		init, err := config.Balanced(g, 4, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		est := pm.Estimate(init)
		if est.Feasible && (bestInit == 0 || est.IterTime < bestInit) {
			bestInit = est.IterTime
		}
	}
	if bestInit > 0 && res.Best.Score > bestInit {
		t.Errorf("search result %.3f is worse than the best initial config %.3f",
			res.Best.Score, bestInit)
	}
	if res.Explored < 10 {
		t.Errorf("Explored = %d, suspiciously few", res.Explored)
	}
	if res.Iterations < 1 {
		t.Errorf("Iterations = %d", res.Iterations)
	}
}

func TestSearchFindsFeasibleUnderMemoryPressure(t *testing.T) {
	// GPT-3 2.6B on 8 GPUs does not fit without recomputation or deep
	// pipelining; the search must reach feasibility ("safety first").
	g, _ := model.GPT3("2.6B")
	cl := hardware.DGX1V100(1)
	opts := quickOpts()
	opts.TimeBudget = 2 * time.Second
	opts.StageCounts = []int{2, 4, 8}
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Estimate.Feasible {
		t.Fatalf("no feasible config found (score %v)", res.Best.Score)
	}
	if res.Best.Estimate.PeakMem > cl.MemoryBytes {
		t.Error("best config exceeds device memory")
	}
}

func TestSearchTopKRankedAndDistinct(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := Search(g, cl, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) < 2 {
		t.Fatalf("TopK has %d entries", len(res.TopK))
	}
	seen := map[uint64]bool{}
	for i, c := range res.TopK {
		h := c.Config.Hash()
		if seen[h] {
			t.Error("TopK contains duplicates")
		}
		seen[h] = true
		if i > 0 && res.TopK[i-1].Score > c.Score {
			t.Error("TopK not sorted")
		}
	}
	if res.Best.Config.Hash() != res.TopK[0].Config.Hash() {
		t.Error("Best != TopK[0]")
	}
}

func TestSearchBestConfigValid(t *testing.T) {
	g, _ := model.T5("770M")
	cl := hardware.DGX1V100(1).Restrict(4)
	res, err := Search(g, cl, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Config.Validate(g, 4); err != nil {
		t.Fatalf("best config invalid: %v", err)
	}
	// And executable by the simulator.
	if _, err := pipesim.Simulate(newSearcher(t, g, 4).pm, res.Best.Config, 1); err != nil {
		t.Fatalf("best config not simulatable: %v", err)
	}
}

func TestSearchWithoutHeuristic2StillWorks(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	opts := quickOpts()
	opts.DisableHeuristic2 = true
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Estimate.Feasible {
		t.Error("random-order search found no feasible config")
	}
}

func TestSearchRespectsMaxIterations(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	opts := quickOpts()
	opts.TimeBudget = 30 * time.Second // budget not the binding limit
	opts.MaxIterations = 2
	opts.StageCounts = []int{2}
	start := time.Now()
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Errorf("Iterations = %d, want ≤ 2", res.Iterations)
	}
	if time.Since(start) > 20*time.Second {
		t.Error("MaxIterations did not bound the search")
	}
}

func TestSearchDeterministicAcrossCachingLayers(t *testing.T) {
	// The caching layers (config hash memos, perfmodel stage cache) are
	// pure accelerations: a seeded, iteration-bounded search must return
	// the exact same result with them disabled.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1)
	run := func(disable bool) *Result {
		pm := perfmodel.New(g, cl, 3)
		pm.DisableStageCache = disable
		opts := Options{
			TimeBudget:    time.Hour, // iterations are the binding limit
			MaxIterations: 3,
			StageCounts:   []int{1, 2, 4},
			Seed:          3,
			Model:         pm,
		}
		res, err := Search(g, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached, full := run(false), run(true)
	if got, want := cached.Best.Config.Canonical(), full.Best.Config.Canonical(); got != want {
		t.Errorf("Best.Config differs with stage cache:\ncached: %s\nfull:   %s", got, want)
	}
	if cached.Best.Score != full.Best.Score {
		t.Errorf("Best.Score differs: %v vs %v", cached.Best.Score, full.Best.Score)
	}
	if cached.Explored != full.Explored {
		t.Errorf("Explored differs: %d vs %d", cached.Explored, full.Explored)
	}
	if len(cached.TopK) != len(full.TopK) {
		t.Fatalf("TopK length differs: %d vs %d", len(cached.TopK), len(full.TopK))
	}
	for i := range cached.TopK {
		if cached.TopK[i].Config.Hash() != full.TopK[i].Config.Hash() {
			t.Errorf("TopK[%d] differs with stage cache", i)
		}
	}
}

func TestSearchTraceCollection(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	opts := quickOpts()
	opts.CollectTrace = true
	res, err := Search(g, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("trace not collected")
	}
	if len(tr.Iterations()) == 0 {
		t.Error("no iteration records")
	}
	conv := tr.Convergence()
	if len(conv) == 0 {
		t.Fatal("no convergence points")
	}
	for i := 1; i < len(conv); i++ {
		if conv[i].Score >= conv[i-1].Score {
			t.Error("convergence curve must be strictly decreasing")
		}
		if conv[i].Elapsed < conv[i-1].Elapsed {
			t.Error("convergence timestamps must be monotone")
		}
	}
	hist := tr.TriesHistogram()
	total := 0
	for _, v := range hist {
		total += v
	}
	improving := 0
	for _, it := range tr.Iterations() {
		if it.Improved {
			improving++
		}
	}
	if total != improving {
		t.Errorf("TriesHistogram sums to %d, want %d improving iterations", total, improving)
	}
}

func TestSearchInitializers(t *testing.T) {
	// Exp#7: imbalanced initial configurations must still converge to
	// a feasible result in the same ballpark as the balanced start.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	scores := map[string]float64{}
	for name, init := range map[string]Initializer{
		"balanced":      config.Balanced,
		"imbalance-op":  config.ImbalancedOps,
		"imbalance-gpu": config.ImbalancedGPUs,
	} {
		opts := quickOpts()
		opts.TimeBudget = 1500 * time.Millisecond
		opts.Initializer = init
		res, err := Search(g, cl, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Best.Estimate.Feasible {
			t.Fatalf("%s: infeasible result", name)
		}
		scores[name] = res.Best.Score
	}
	base := scores["balanced"]
	for name, sc := range scores {
		if sc > base*1.5 {
			t.Errorf("%s converged to %.3f, >1.5× balanced %.3f", name, sc, base)
		}
	}
}

func TestSearchErrorPaths(t *testing.T) {
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	// Invalid cluster.
	bad := cl
	bad.MemoryBytes = 0
	if _, err := Search(g, bad, quickOpts()); err == nil {
		t.Error("invalid cluster accepted")
	}
	// Unsatisfiable stage counts.
	opts := quickOpts()
	opts.StageCounts = []int{64}
	if _, err := Search(g, cl, opts); err == nil {
		t.Error("stage count beyond devices accepted")
	}
	// Invalid graph.
	bg := model.Uniform(4, 1e9, 1e6, 1e5, 64)
	bg.GlobalBatch = 0
	if _, err := Search(bg, cl, quickOpts()); err == nil {
		t.Error("invalid graph accepted")
	}
}

func TestDefaultStageCounts(t *testing.T) {
	got := defaultStageCounts(32, 1000)
	if got[0] != 1 {
		t.Error("stage counts must include 1")
	}
	max := 0
	for _, p := range got {
		if p > max {
			max = p
		}
	}
	if max != 32 {
		t.Errorf("max stage count = %d, want 32", max)
	}
	// Bounded by ops.
	got = defaultStageCounts(32, 3)
	for _, p := range got {
		if p > 3 {
			t.Errorf("stage count %d exceeds op count 3", p)
		}
	}
}

func TestInsertTopK(t *testing.T) {
	g := model.Uniform(8, 1e9, 1e6, 1e5, 64)
	mk := func(mbs int, score float64) Candidate {
		c, _ := config.Balanced(g, 4, 2, mbs)
		return Candidate{Config: c, Score: score, key: c.Key()}
	}
	var list []Candidate
	list = insertTopK(list, mk(1, 3), 2)
	list = insertTopK(list, mk(2, 1), 2)
	list = insertTopK(list, mk(4, 2), 2)
	if len(list) != 2 || list[0].Score != 1 || list[1].Score != 2 {
		t.Errorf("insertTopK = %+v", list)
	}
	// Duplicate key ignored.
	list = insertTopK(list, mk(2, 0.5), 2)
	if list[0].Score != 1 {
		t.Error("duplicate config replaced existing entry")
	}
}

func TestFineTuneFindsDimOrTilingImprovements(t *testing.T) {
	// Start from a deliberately bad tiling (everything tp) on a model
	// where small ops shard poorly; fine-tuning should find a better
	// mixed tiling or dim assignment.
	g, _ := model.WideResNet("0.5B")
	s := newSearcher(t, g, 8)
	cfg := mustBalanced(t, g, 8, 1, 8) // tp=8 everywhere
	before := s.score(cfg, s.estimate(cfg))
	ft := s.fineTune(cfg)
	if ft == nil {
		t.Fatal("fine-tune found nothing on an all-tp Wide-ResNet")
	}
	after := s.score(ft, s.estimate(ft))
	if after >= before {
		t.Errorf("fine-tune did not improve: %.3f → %.3f", before, after)
	}
	if err := ft.Validate(g, 8); err != nil {
		t.Fatalf("fine-tuned config invalid: %v", err)
	}
}

func TestPoolPruneKeepsBest(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 1<<20)
	s := newSearcher(t, g, 4)
	base, err := config.Balanced(g, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the pool well past 2×cap with distinct configs: encode a
	// counter into the recompute bit pattern (16 ops in stage 0 give
	// 65536 distinct hashes).
	for n := 1; n <= 2*poolCap+10; n++ {
		c := base.Clone()
		for j := 0; j < len(c.Stages[0].Ops); j++ {
			c.Stages[0].Ops[j].Recompute = (n>>j)&1 == 1
		}
		s.pool[c.Key()] = Candidate{Config: c, Score: float64(n)}
	}
	if len(s.pool) != 2*poolCap+10 {
		t.Fatalf("setup produced %d distinct configs", len(s.pool))
	}
	s.prunePool()
	if len(s.pool) != poolCap/2 {
		t.Fatalf("pool size after prune = %d, want %d", len(s.pool), poolCap/2)
	}
	// The best-scoring entry must survive.
	found := false
	for _, c := range s.pool {
		if c.Score == 1 {
			found = true
		}
	}
	if !found {
		t.Error("prune dropped the best entry")
	}
}

// distinctConfigs returns n distinct configs of one shape: a counter
// encoded into stage 0's recompute bits (16 ops give 65536 patterns).
func distinctConfigs(t *testing.T, n int) []*config.Config {
	t.Helper()
	g := model.Uniform(32, 1e9, 1e6, 1e5, 1<<20)
	base, err := config.Balanced(g, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*config.Config, n)
	for i := range out {
		c := base.Clone()
		for j := range c.Stages[0].Ops {
			c.Stages[0].Ops[j].Recompute = (i>>j)&1 == 1
		}
		out[i] = c
	}
	return out
}

func TestPrunePoolKeepsBestHalf(t *testing.T) {
	// Regression (PR 4): prunePool documented "drop the worst-scoring
	// half" but truncated only to poolCap, so a pool at its trigger size
	// re-pruned after nearly every subsequent insert. It must prune to
	// poolCap/2 (deterministic, Hash-tiebroken).
	s := &searcher{pool: make(map[uint64]Candidate)}
	cfgs := distinctConfigs(t, poolCap+1)
	all := make([]Candidate, len(cfgs))
	for i, c := range cfgs {
		// Two-valued scores exercise the Hash tiebreak across the cut.
		all[i] = Candidate{Config: c, Score: float64(i % 2), key: c.Key()}
		s.pool[all[i].key] = all[i]
	}
	s.prunePool()
	if len(s.pool) != poolCap/2 {
		t.Fatalf("pool size after prune = %d, want poolCap/2 = %d", len(s.pool), poolCap/2)
	}
	// Survivors must be exactly the best (score, Hash)-ordered entries:
	// all score-0 candidates sort before score-1, and within score 0 the
	// lowest hashes win.
	sort.Slice(all, func(a, b int) bool { return all[a].less(&all[b]) })
	for _, c := range all[:poolCap/2] {
		if _, ok := s.pool[c.key]; !ok {
			t.Errorf("hash %x (score %v) was pruned ahead of a worse (score, Hash) entry", c.Config.Hash(), c.Score)
		}
	}
	for k, c := range s.pool {
		if c.Score != 0 {
			t.Fatalf("key %x with score %v survived ahead of score-0 entries", k, c.Score)
		}
	}
	// Pruning an at-or-under-target pool is a no-op.
	before := len(s.pool)
	s.prunePool()
	if len(s.pool) != before {
		t.Errorf("prune of small pool changed size %d → %d", before, len(s.pool))
	}
}

// TestEqualScoresOrderByHash pins the tie-break of all three
// comparators — less, poolEntries.Less and popBestUnexplored — to
// Config.Hash() (FNV of the canonical form), not to the identity key:
// the two orders differ, and only Hash order reproduces the
// exploration sequence.
func TestEqualScoresOrderByHash(t *testing.T) {
	cfgs := distinctConfigs(t, 64)
	byHash := func(a, b *config.Config) bool { return a.Hash() < b.Hash() }
	byKey := func(a, b *config.Config) bool { return a.Key() < b.Key() }
	// A pair whose Hash order and Key order disagree, so a comparator
	// tie-breaking on the wrong one fails.
	var lo, hi *config.Config
	for _, a := range cfgs[1:] {
		if byHash(cfgs[0], a) != byKey(cfgs[0], a) {
			lo, hi = cfgs[0], a
			break
		}
	}
	if lo == nil {
		t.Fatal("no config pair whose Hash and Key orders disagree")
	}
	if byHash(hi, lo) {
		lo, hi = hi, lo
	}

	cl, ch := Candidate{Config: lo, Score: 1, key: lo.Key()}, Candidate{Config: hi, Score: 1, key: hi.Key()}
	if !cl.less(&ch) || ch.less(&cl) {
		t.Error("less: equal scores not ordered by Hash")
	}
	pe := poolEntries{{hi.Key(), 1, hi}, {lo.Key(), 1, lo}}
	if !pe.Less(1, 0) || pe.Less(0, 1) {
		t.Error("poolEntries.Less: equal scores not ordered by Hash")
	}
	s := &searcher{pool: map[uint64]Candidate{ch.key: ch, cl.key: cl}}
	if got := s.popBestUnexplored(); got != lo {
		t.Error("popBestUnexplored: equal scores not ordered by Hash")
	}
	if got := s.popBestUnexplored(); got != hi {
		t.Error("popBestUnexplored: second pop is not the remaining entry")
	}
}

func TestSearchDeterministicWithPruning(t *testing.T) {
	// Pool restarts and explored counts must be identical across runs of
	// the same seed — pruning is part of the deterministic state.
	g, _ := model.GPT3("350M")
	cl := hardware.DGX1V100(1).Restrict(4)
	run := func() (Result, *obs.Registry) {
		reg := obs.NewRegistry()
		opts := Options{
			TimeBudget:    time.Hour, // MaxIterations terminates first
			StageCounts:   []int{2, 4},
			MaxIterations: 12,
			Seed:          7,
			Metrics:       reg,
		}
		res, err := Search(g, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		return *res, reg
	}
	a, ra := run()
	b, rb := run()
	if a.Explored != b.Explored || a.Iterations != b.Iterations {
		t.Errorf("explored/iterations differ across identical runs: %d/%d vs %d/%d",
			a.Explored, a.Iterations, b.Explored, b.Iterations)
	}
	for _, name := range []string{obs.PoolRestartsTotal, obs.PoolPrunesTotal, obs.CandidatesEstimatedTotal} {
		if va, vb := ra.Counter(name).Value(), rb.Counter(name).Value(); va != vb {
			t.Errorf("%s differs across identical runs: %d vs %d", name, va, vb)
		}
	}
}
