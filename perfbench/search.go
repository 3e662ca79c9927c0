package main

// search-gpt3-2.6b: closed loop, one caller, repeated core.Search of
// GPT-3 2.6B on 16 V100s with MaxIterations=4. Each search builds its
// own perfmodel and profiler database, as the CLI and the server do.
//
// The profiler seed alone moves what this search explores from 3119 to
// 149229 configs (seeds 1..48), so one seed per run would make the
// timings measure the seed, not the code. Every run therefore searches
// the same panel of profiler seeds, in whole cycles, in an order drawn
// from --seed. The panel holds the pinned seed 1 (explored=24701, so a
// speedup can never come from searching less) and the eight other
// seeds of 1..48 that explore 25.3k-26.3k configs: with every search
// of similar size, the pooled median and tail do not jump between
// problems when the machine's speed drifts during a run.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aceso/internal/collective"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	"aceso/internal/profiler"
)

// searchPanel is the set of profiler seeds every run searches.
var searchPanel = []int64{1, 6, 8, 9, 10, 19, 21, 25, 26}

const (
	pinnedSeed     = 1
	pinnedExplored = 24701
	// pinnedIterS is the estimated iteration time, in seconds, of the
	// plan the pinned search chooses. A faster search must not choose a
	// worse plan.
	pinnedIterS = 40.703257
	// replayEvery samples one estimated config in this many for the
	// traced run's layer replay.
	replayEvery = 16
	maxReplay   = 4096
	coldReplay  = 32
)

// searchCycles is how many panel cycles fit in seconds on the reference
// machine (2 cores, one cycle ≈ 3.5 s). The work is fixed, not the
// time, so every commit measures the same searches and the tail
// percentile always has the same sample count.
func searchCycles(seconds float64) int { return max(int(math.Ceil(seconds/3.5)), 1) }

func searchOptions(seed int64) core.Options {
	return core.Options{TimeBudget: time.Hour, MaxIterations: 4, Seed: seed}
}

// panelOrder is the order one cycle searches the panel in.
func panelOrder(seed int64) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(len(searchPanel))
	out := make([]int64, len(perm))
	for i, p := range perm {
		out[i] = searchPanel[p]
	}
	return out
}

// searchRef is the first result seen for one panel seed; every later
// search of that seed must repeat it.
type searchRef struct {
	explored int
	hash     uint64
	iterS    float64
}

type searchCheck struct {
	g    *model.Graph
	cl   hardware.Cluster
	refs map[int64]searchRef
}

// check verifies one search result and reports whether it passed.
func (sc *searchCheck) check(o *outcome, seed int64, res *core.Result, err error) bool {
	if err != nil {
		o.failf("search seed %d: %v", seed, err)
		return false
	}
	best := res.Best
	if best.Config == nil || best.Estimate == nil {
		o.failf("search seed %d: no best plan", seed)
		return false
	}
	if seed == pinnedSeed && res.Explored != pinnedExplored {
		o.failf("search seed %d explored %d configs, pinned at %d", seed, res.Explored, pinnedExplored)
		return false
	}
	ref := searchRef{explored: res.Explored, hash: best.Config.Hash(), iterS: best.Estimate.IterTime}
	if seed == pinnedSeed && ref.iterS > pinnedIterS*(1+1e-6) {
		o.failf("search seed %d chose a plan estimated at %.9g s per iteration, pinned at %g", seed, ref.iterS, pinnedIterS)
		return false
	}
	if prev, ok := sc.refs[seed]; !ok {
		sc.refs[seed] = ref
	} else if prev.explored != ref.explored || prev.hash != ref.hash {
		o.failf("search seed %d not repeatable: explored %d hash %x, first %d %x",
			seed, ref.explored, ref.hash, prev.explored, prev.hash)
		return false
	}
	if err := best.Config.Validate(sc.g, sc.cl.TotalDevices()); err != nil {
		o.failf("search seed %d: best plan invalid: %v", seed, err)
		return false
	}
	if v := obs.AuditEstimate(best.Config, best.Estimate); len(v) > 0 {
		o.failf("search seed %d: best estimate fails audit: %v", seed, v)
		return false
	}
	return true
}

// searchRun is one measured phase.
type searchRun struct {
	wallMS  []float64
	rates   []float64 // explored configs per second, per search
	allocMB float64
}

// measureSearch searches the panel cycles times. tr, when non-nil,
// traces every search.
func measureSearch(sc *searchCheck, order []int64, cycles int, tr *searchTracer, o *outcome) searchRun {
	var r searchRun
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for c := 0; c < cycles; c++ {
		for _, seed := range order {
			opts := searchOptions(seed)
			op := o.Attempted
			root := tr.spans().begin("search.op", 0, op)
			t := time.Now()
			var pm *perfmodel.Model
			var reg *obs.Registry
			if tr != nil {
				// Built here only so the tracer can read its stage
				// cache; core.Search builds the same model when
				// Options.Model is nil.
				sid := tr.log.begin("perfmodel.New", root, op)
				pm = perfmodel.New(sc.g, sc.cl, seed)
				tr.log.end(sid)
				reg = obs.NewRegistry()
				opts.Model, opts.Tracer, opts.Metrics = pm, tr, reg
				tr.startSearch()
			}
			sid := tr.spans().begin("core.Search", root, op)
			res, err := core.Search(sc.g, sc.cl, opts)
			d := time.Since(t)
			tr.spans().end(sid)
			tr.spans().end(root)
			o.Attempted++
			if !sc.check(o, seed, res, err) {
				o.Failed++
				continue
			}
			r.wallMS = append(r.wallMS, float64(d.Nanoseconds())/1e6)
			r.rates = append(r.rates, float64(res.Explored)/d.Seconds())
			if tr != nil {
				tr.endSearch(pm, reg)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if n := len(r.wallMS); n > 0 {
		r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(n)
	}
	return r
}

func runSearchWorkload(rc runConfig) (*outcome, error) {
	o := &outcome{Metrics: map[string]float64{}}
	sc := &searchCheck{refs: map[int64]searchRef{}}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		g, err := model.GPT3("2.6B")
		if err != nil {
			return nil, err
		}
		sc.g, sc.cl = g, hardware.DGX1V100(2)
		// The warm-up search pages in the code and grows the heap
		// before the first timed op; it is also the pinned check.
		res, err := core.Search(sc.g, sc.cl, searchOptions(pinnedSeed))
		setups = append(setups, time.Since(t).Seconds())
		o.Attempted++
		if !sc.check(o, pinnedSeed, res, err) {
			o.Failed++
		}
	}
	o.Metrics["setup_s"] = median(setups)
	order := panelOrder(rc.Seed)
	fmt.Fprintf(rc.Log, "panel order %v, setup %.3fs (median of %d)\n", order, o.Metrics["setup_s"], setupReps)

	cycles := searchCycles(rc.Seconds)
	if rc.Trace {
		cycles = max(cycles/2, 1)
	}
	plain := measureSearch(sc, order, cycles, nil, o)
	if len(plain.wallMS) == 0 {
		return o, nil
	}
	t, ok := tailOf(plain.wallMS)
	o.Metrics["latency_p50_ms"] = median(plain.wallMS)
	o.Metrics["latency_tail_ms"] = t.Value
	o.Metrics["throughput_per_s"] = median(plain.rates)
	o.Metrics["alloc_mb_per_op"] = plain.allocMB
	fmt.Fprintf(rc.Log, "search_p50_s %.4f s over %d searches\n", o.Metrics["latency_p50_ms"]/1e3, t.N)
	fmt.Fprintf(rc.Log, "search_tail_s %.4f s (%s, enough=%v)\n", t.Value/1e3, t, ok)
	fmt.Fprintf(rc.Log, "configs_per_s %.0f 1/s, median of %d searches\n", o.Metrics["throughput_per_s"], len(plain.rates))
	fmt.Fprintf(rc.Log, "best_iter_s %.9g s at pinned seed %d (explored %d)\n",
		sc.refs[pinnedSeed].iterS, pinnedSeed, sc.refs[pinnedSeed].explored)
	fmt.Fprintf(rc.Log, "alloc_mb_per_op %.2f MB\n", plain.allocMB)
	if !rc.Trace {
		return o, nil
	}

	tr := newSearchTracer()
	traced := measureSearch(sc, order, cycles, tr, o)
	o.Spans = tr.log
	o.Metrics["trace.overhead_ratio"] = ratio(median(traced.wallMS), median(plain.wallMS))
	tr.fill(o.Metrics)
	replaySearchLayers(sc, tr, rc.Seed, o.Metrics)
	return o, nil
}

// searchTracer receives the traced searches' events: iteration
// timestamps per worker, the per-iteration counters, and a sample of
// estimated configs for the layer replay.
type searchTracer struct {
	log *spanLog

	estimates atomic.Int64

	mu        sync.Mutex
	start     time.Time
	last      map[int]time.Time // per worker (stage count)
	iterMS    []float64
	searches  int
	iters     int
	improved  int
	hops      int
	backtr    int
	restarts  int
	dedup     int
	est       int
	scHits    int64
	scMisses  int64
	scEntries []float64
	samples   []*config.Config
}

func newSearchTracer() *searchTracer {
	return &searchTracer{log: newSpanLog(), last: map[int]time.Time{}}
}

// spans is nil-safe so the untraced path needs no branches.
func (t *searchTracer) spans() *spanLog {
	if t == nil {
		return nil
	}
	return t.log
}

func (t *searchTracer) startSearch() {
	t.mu.Lock()
	t.start = time.Now()
	clear(t.last)
	t.mu.Unlock()
}

func (t *searchTracer) endSearch(pm *perfmodel.Model, reg *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.searches++
	t.scHits += reg.Counter(obs.StageCacheHitsTotal).Value()
	t.scMisses += reg.Counter(obs.StageCacheMissesTotal).Value()
	t.scEntries = append(t.scEntries, float64(pm.StageCacheEntries()))
}

// OnIteration implements obs.Tracer.
func (t *searchTracer) OnIteration(ev obs.IterationEvent) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, ok := t.last[ev.StageCount]
	if !ok {
		prev = t.start
	}
	t.last[ev.StageCount] = now
	t.iterMS = append(t.iterMS, float64(now.Sub(prev).Nanoseconds())/1e6)
	t.iters++
	if ev.Improved {
		t.improved++
		t.hops += ev.Hops
	}
	t.backtr += ev.Backtracks
	if ev.PoolRestart {
		t.restarts++
	}
	t.dedup += ev.DedupHits
	t.est += ev.Estimated
}

// OnEstimate implements obs.Tracer. The search's arenas reuse configs,
// so a sampled one is cloned here, inside the callback.
func (t *searchTracer) OnEstimate(cfg *config.Config, _ *perfmodel.Estimate) {
	if cfg == nil || t.estimates.Add(1)%replayEvery != 0 {
		return
	}
	c := cfg.Clone()
	t.mu.Lock()
	if len(t.samples) < maxReplay {
		t.samples = append(t.samples, c)
	}
	t.mu.Unlock()
}

func (t *searchTracer) fill(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(max(t.searches, 1))
	m["core.search_ms"] = mean(t.log.durations("core.Search")) / 1e6
	m["core.iterations"] = float64(t.iters) / n
	m["core.explored"] = float64(t.est) / n
	m["core.iter_ms_p50"] = median(t.iterMS)
	m["core.hops_mean"] = ratio(float64(t.hops), float64(t.improved))
	m["core.backtracks"] = float64(t.backtr) / n
	m["core.pool_restarts"] = float64(t.restarts) / n
	m["core.dedup_ratio"] = ratio(float64(t.dedup), float64(t.dedup+t.est))
	m["core.improve_ratio"] = ratio(float64(t.improved), float64(t.iters))
	m["perfmodel.stage_cache_hit_ratio"] = ratio(float64(t.scHits), float64(t.scHits+t.scMisses))
	m["perfmodel.stage_cache_entries"] = mean(t.scEntries)
}

// replaySearchLayers times the layers under the search by replaying
// the sampled configs in the search's own neighbour form — clone, one
// MutOp, Hash, Validate, Estimate on a warmed model — and by timing
// the profiler and collective calls a stage estimate makes.
func replaySearchLayers(sc *searchCheck, tr *searchTracer, seed int64, m map[string]float64) {
	log := tr.log
	g, cl := sc.g, sc.cl
	devices := cl.TotalDevices()
	samples := tr.samples
	op := 1 << 20 // replay op IDs sit above the searches'

	warm := perfmodel.New(g, cl, pinnedSeed)
	for _, c := range samples {
		warm.Estimate(c)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range samples {
		op++
		root := log.begin("replay.neighbor", 0, op)
		t0 := time.Now()
		n := c.Clone()
		t1 := time.Now()
		st := rng.Intn(len(n.Stages))
		j := n.Stages[st].Start + rng.Intn(n.Stages[st].NumOps())
		n.MutOp(st, j, func(s *config.OpSetting) { s.Recompute = !s.Recompute })
		n.Hash()
		t2 := time.Now()
		err := n.Validate(g, devices)
		t3 := time.Now()
		log.add("config.Clone", root, op, t0, t1)
		log.add("config.MutOpHash", root, op, t1, t2)
		log.add("config.Validate", root, op, t2, t3)
		if err == nil {
			t4 := time.Now()
			warm.Estimate(n)
			log.add("perfmodel.Estimate.warm", root, op, t4, time.Now())
		}
		log.end(root)
	}
	for i := 0; i < coldReplay && i < len(samples); i++ {
		op++
		cold := perfmodel.New(g, cl, pinnedSeed)
		t := time.Now()
		cold.Estimate(samples[i])
		log.add("perfmodel.Estimate.cold", 0, op, t, time.Now())
	}
	m["config.ops"] = float64(len(samples))
	m["config.clone_ns"] = mean(log.durations("config.Clone"))
	m["config.mutate_hash_ns"] = mean(log.durations("config.MutOpHash"))
	m["config.validate_ns"] = mean(log.durations("config.Validate"))
	m["perfmodel.estimate_warm_ns"] = mean(log.durations("perfmodel.Estimate.warm"))
	m["perfmodel.estimate_cold_ns"] = mean(log.durations("perfmodel.Estimate.cold"))

	// Profiler: prewarm a fresh database, then time warm lookups.
	tps, mbs := []int{1, 2, 4, 8}, []int{1, 2, 4, 8}
	prof := profiler.New(cl, pinnedSeed)
	op++
	t := time.Now()
	prof.Prewarm(g, tps, mbs)
	log.add("profiler.Prewarm", 0, op, t, time.Now())
	m["profiler.prewarm_ms"] = mean(log.durations("profiler.Prewarm")) / 1e6
	m["profiler.entries"] = float64(prof.Entries())
	lookups := 0
	op++
	t = time.Now()
	for i := range g.Ops {
		for _, tp := range tps {
			for _, n := range mbs {
				prof.OpTime(&g.Ops[i], tp, 0, n, tp, false, g.Precision)
				prof.OpTime(&g.Ops[i], tp, 0, n, tp, true, g.Precision)
				lookups += 2
			}
		}
	}
	log.add("profiler.OpTime.batch", 0, op, t, time.Now())
	m["profiler.optime_ns"] = mean(log.durations("profiler.OpTime.batch")) / float64(lookups)

	// Collective pricing over every group size and placement the
	// 16-device cluster allows.
	const rounds = 20000
	sizes := []int{2, 4, 8, 16}
	op++
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range sizes {
			collective.AllReduceAt(&cl, 1<<24, 0, s, collective.PlacementFor(&cl, 0, s))
		}
	}
	log.add("collective.AllReduceAt.batch", 0, op, t, time.Now())
	op++
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for first := 0; first < devices; first += devices / len(sizes) {
			collective.P2PAt(&cl, 1<<24, first, collective.PlacementFor(&cl, first, 2))
		}
	}
	log.add("collective.P2PAt.batch", 0, op, t, time.Now())
	calls := float64(rounds * len(sizes))
	m["collective.allreduce_ns"] = mean(log.durations("collective.AllReduceAt.batch")) / calls
	m["collective.p2p_ns"] = mean(log.durations("collective.P2PAt.batch")) / calls
}
