package main

// churn-mlp: closed loop, one caller, repeated elastic.Supervise runs of
// an MLP on 8 emulated V100s (2 nodes × 4) through a seeded schedule of
// preemptions, re-additions, slow nodes and link derates, with
// checkpoints written to disk. It is the only workload that exercises
// elastic, runtime, comm and tensor. The MLP is sized so that training
// steps and checkpoints carry most of the wall time; each replan search
// takes a fixed churnBudget, and the run reports that share (about a
// fifth).
//
// Training uses plain SGD. Under Adam, an MLP of width 96 at seeds 9
// and 13 ends 4.6e-9 and 4.3e-9 from the uninterrupted run, over the
// elastic layer's 1e-9 tolerance: dividing by the square root of near-zero
// second moments amplifies the last-bit differences a reshard's new
// summation order makes. With SGD every seed tried ends within 1e-17.
//
// Every episode repeats the same template — six preempt/re-add cycles,
// each preceded by a mild slow-node blip the hysteresis should absorb,
// plus one heavy link derate and one harsh straggler — and --seed draws
// the devices, scales and data, so the mix of recovery rungs is the
// same at every seed.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/elastic"
	"aceso/internal/hardware"
	"aceso/internal/model"
	art "aceso/internal/runtime"
	"aceso/internal/tensor"
)

const (
	churnLayers, churnDim, churnBatch = 6, 64, 128
	churnIters                        = 32
	churnLR                           = 0.05
	churnCycles                       = 6
	churnBudget                       = 50 * time.Millisecond
	// churnTol is the elastic layer's trajectory tolerance: a
	// supervised run must end within it of the uninterrupted run.
	churnTol = 1e-9
)

// churnEpisodes is how many episodes fit in seconds on the reference
// machine (2 cores, one episode ≈ 0.8 s). The work is fixed, not the
// time, so the recovery count — and with it the tail percentile —
// does not move when the code gets faster. At 25 s the run sees about
// 170 recoveries, so the tail is p90, which lands on the replan rung
// (about a sixth of recoveries) rather than on the project rung.
func churnEpisodes(seconds float64) int { return max(int(math.Round(seconds*1.2)), 1) }

// churnSchedule draws one episode's events.
func churnSchedule(rng *rand.Rand, devices int) elastic.ChurnSpec {
	var s elastic.ChurnSpec
	add := func(ev elastic.ChurnEvent) { s.Events = append(s.Events, ev) }
	for c := 0; c < churnCycles; c++ {
		base := 1 + 5*c
		blip := rng.Intn(devices)
		add(elastic.ChurnEvent{Iteration: base, Kind: elastic.SlowNode, Device: blip, Scale: 0.85 + 0.1*rng.Float64()})
		add(elastic.ChurnEvent{Iteration: base + 1, Kind: elastic.SlowNode, Device: blip, Scale: 1})
		lost := rng.Intn(devices)
		add(elastic.ChurnEvent{Iteration: base + 1, Kind: elastic.Preempt, Device: lost})
		add(elastic.ChurnEvent{Iteration: base + 3, Kind: elastic.Readd, Device: lost})
		switch c {
		case 2:
			add(elastic.ChurnEvent{Iteration: base + 2, Kind: elastic.LinkDerate, Scale: 0.5 + 0.2*rng.Float64()})
			add(elastic.ChurnEvent{Iteration: base + 4, Kind: elastic.LinkDerate, Scale: 1})
		case 4:
			slow := rng.Intn(devices)
			add(elastic.ChurnEvent{Iteration: base + 2, Kind: elastic.SlowNode, Device: slow, Scale: 0.25 + 0.15*rng.Float64()})
			add(elastic.ChurnEvent{Iteration: base + 4, Kind: elastic.SlowNode, Device: slow, Scale: 1})
		}
	}
	return s
}

// churnTask is the training task every episode runs.
type churnTask struct {
	g       *model.Graph
	cl      hardware.Cluster
	cfg     *config.Config
	x, y    *tensor.Mat
	seed    int64
	ref     *art.Params
	refLoss float64
	refStep time.Duration // uninterrupted parallel step time
}

// setupChurn builds the initial plan, the data and the uninterrupted
// reference run.
func setupChurn(seed int64) (*churnTask, error) {
	g, err := model.MLP(churnLayers, churnDim, churnBatch)
	if err != nil {
		return nil, err
	}
	cfg, err := config.Balanced(g, 8, 2, 8) // 2 stages × 4 devices, mbs 8
	if err != nil {
		return nil, err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: 2, DP: 2}
		}
	}
	// Two 4-device nodes, so link derates hit a fabric the plan crosses.
	cl := hardware.DGX1V100(2)
	cl.DevicesPerNode = 4
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	x, y := tensor.New(churnBatch, churnDim), tensor.New(churnBatch, churnDim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	t := &churnTask{g: g, cl: cl, cfg: cfg, x: x, y: y, seed: seed}
	t.ref = t.params()
	start := time.Now()
	losses, err := art.Parallel(g, cfg, t.ref, x, y, churnLR, churnIters)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	t.refStep = time.Since(start) / churnIters
	t.refLoss = losses[len(losses)-1]
	return t, nil
}

func (t *churnTask) params() *art.Params {
	return art.InitParams(t.g, t.seed)
}

// recovery is one fault recovery seen through OnTransition.
type recovery struct {
	rung string
	ms   float64
}

// episodeStats accumulates what the episodes report.
type episodeStats struct {
	episodes, steps, executed     int
	replans, avoided, lost, ckpts int
	retries                       int
	wall, replanWall              time.Duration
	goodput                       []float64 // committed steps per wall second, per episode
	recoveries                    []float64 // ms, from the report
	rungs                         []recovery
}

// runEpisode supervises one training run through a seeded schedule.
func (t *churnTask) runEpisode(dir string, idx int, st *episodeStats, log *spanLog) error {
	rng := rand.New(rand.NewSource(t.seed*7_919 + int64(idx)))
	spec := churnSchedule(rng, t.cl.TotalDevices())
	p := t.params()
	var faultAt time.Time
	var rung string
	var replanStart time.Time
	opts := elastic.SuperviseOptions{
		Options: elastic.Options{
			LR: churnLR, CheckpointEvery: 2, Dir: dir,
			SearchBudget: churnBudget, Seed: t.seed,
		},
		BackoffBase:      100 * time.Microsecond,
		BackoffCap:       2 * time.Millisecond,
		SimulateTimeouts: 1, // exercise the backoff path once per episode
		OnTransition: func(tr elastic.Transition) {
			now := time.Now()
			switch tr.Kind {
			case elastic.TransFault:
				faultAt, rung = now, ""
			case elastic.TransLadderProject, elastic.TransLadderReplan, elastic.TransLadderShrink, elastic.TransLadderPause:
				rung = string(tr.Kind)
			case elastic.TransReplanForced:
				replanStart = now
			case elastic.TransResume:
				if !faultAt.IsZero() {
					st.rungs = append(st.rungs, recovery{rung: rung, ms: float64(now.Sub(faultAt).Nanoseconds()) / 1e6})
					log.add("elastic.recovery."+rung, 0, idx, faultAt, now)
					faultAt = time.Time{}
				} else if !replanStart.IsZero() {
					st.replanWall += now.Sub(replanStart)
					replanStart = time.Time{}
				}
			}
		},
	}
	root := log.begin("churn.episode", 0, idx)
	start := time.Now()
	rep, err := elastic.Supervise(context.Background(), t.g, t.cl, t.cfg, p, t.x, t.y, churnIters, spec, opts)
	wall := time.Since(start)
	log.end(root)
	if err != nil {
		return err
	}
	if rep.FinalStep != churnIters || len(rep.Losses) != churnIters {
		return fmt.Errorf("run incomplete: final step %d, %d losses, want %d", rep.FinalStep, len(rep.Losses), churnIters)
	}
	if d := math.Abs(rep.Losses[churnIters-1] - t.refLoss); d > churnTol || math.IsNaN(d) {
		return fmt.Errorf("final loss %g differs from the uninterrupted run by %g", rep.Losses[churnIters-1], d)
	}
	if d := t.ref.MaxDiff(rep.Params); d > churnTol || math.IsNaN(d) {
		return fmt.Errorf("final params differ from the uninterrupted run by %g", d)
	}
	st.episodes++
	st.wall += wall
	st.steps += len(rep.Losses)
	st.goodput = append(st.goodput, float64(len(rep.Losses))/wall.Seconds())
	st.executed += rep.IterationsExecuted
	st.replans += rep.Replans
	st.avoided += rep.ReplansAvoided
	st.lost += rep.StepsLost
	st.ckpts += rep.Checkpoints
	st.retries += rep.Retries
	for _, r := range rep.Recoveries {
		st.recoveries = append(st.recoveries, float64(r.Nanoseconds())/1e6)
	}
	return nil
}

// measureChurn runs episodes first, first+1, ... first+n-1.
func (t *churnTask) measureChurn(dir string, first, n int, log *spanLog, o *outcome) (*episodeStats, float64) {
	st := &episodeStats{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := first; i < first+n; i++ {
		o.Attempted++
		if err := t.runEpisode(dir, i, st, log); err != nil {
			o.Failed++
			o.failf("episode %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	return st, float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(max(st.episodes, 1))
}

func runChurnWorkload(rc runConfig) (*outcome, error) {
	o := &outcome{Metrics: map[string]float64{}}
	var setups, steps []float64
	var task *churnTask
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if task, err = setupChurn(rc.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		steps = append(steps, float64(task.refStep.Nanoseconds())/1e6)
	}
	o.Metrics["setup_s"] = median(setups)
	dir, err := os.MkdirTemp(outDir, "churn-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Fprintf(rc.Log, "MLP(%d layers, dim %d, batch %d) on 8 emulated V100s, %d iterations per episode, replan budget %v, setup %.3fs (median of %d)\n",
		churnLayers, churnDim, churnBatch, churnIters, churnBudget, o.Metrics["setup_s"], setupReps)

	episodes := churnEpisodes(rc.Seconds)
	if rc.Trace {
		episodes = max(episodes/2, 1)
	}
	plain, alloc := task.measureChurn(dir, 0, episodes, nil, o)
	if plain.episodes == 0 {
		return o, nil
	}
	t, ok := tailOf(plain.recoveries)
	o.Metrics["latency_p50_ms"] = median(plain.recoveries)
	o.Metrics["latency_tail_ms"] = t.Value
	// The median episode, so a burst of load from outside the process
	// that slows a few episodes does not move the metric.
	o.Metrics["throughput_per_s"] = median(plain.goodput)
	o.Metrics["alloc_mb_per_op"] = alloc
	fmt.Fprintf(rc.Log, "goodput_steps_per_s %.3f, median of %d episodes\n", o.Metrics["throughput_per_s"], plain.episodes)
	fmt.Fprintf(rc.Log, "recovery_p50_ms %.3f ms over %d recoveries\n", o.Metrics["latency_p50_ms"], len(plain.recoveries))
	fmt.Fprintf(rc.Log, "recovery_tail_ms %.3f ms (%s, enough=%v)\n", t.Value, t, ok)
	fmt.Fprintf(rc.Log, "availability %.4f (%d committed of %d executed steps)\n",
		ratio(float64(plain.steps), float64(plain.executed)), plain.steps, plain.executed)
	fmt.Fprintf(rc.Log, "recovery rungs %v, forced-replan share of wall %.3f\n",
		rungCounts(plain.rungs), plain.replanWall.Seconds()/plain.wall.Seconds())
	if !rc.Trace {
		return o, nil
	}

	log := newSpanLog()
	o.Spans = log
	traced, _ := task.measureChurn(dir, 1<<20, episodes, log, o)
	m := o.Metrics
	m["trace.overhead_ratio"] = ratio(median(plain.goodput), median(traced.goodput))
	n := float64(max(traced.episodes, 1))
	m["elastic.recovery_project_ms"] = median(rungMS(traced.rungs, string(elastic.TransLadderProject)))
	m["elastic.recovery_replan_ms"] = median(rungMS(traced.rungs, string(elastic.TransLadderReplan)))
	m["elastic.replans"] = float64(traced.replans) / n
	m["elastic.replans_avoided"] = float64(traced.avoided) / n
	m["elastic.steps_lost"] = float64(traced.lost) / n
	m["elastic.checkpoints"] = float64(traced.ckpts) / n
	m["comm.retries"] = float64(traced.retries) / n
	m["runtime.parallel_step_ms"] = median(steps)
	return o, task.replayChurnLayers(dir, log, m)
}

func rungCounts(rs []recovery) map[string]int {
	out := map[string]int{}
	for _, r := range rs {
		out[r.rung]++
	}
	return out
}

func rungMS(rs []recovery, rung string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.rung == rung {
			out = append(out, r.ms)
		}
	}
	return out
}

// replayChurnLayers times the recovery steps one at a time from the
// benchmark's side: checkpoint save and load, reshard onto a projected
// plan, a replan search under the supervisor's budget, and a plain
// single-worker training baseline.
func (t *churnTask) replayChurnLayers(dir string, log *spanLog, m map[string]float64) error {
	const reps = 5
	op := 2 << 20
	p := t.params()
	p.EnsureOptState()
	to, err := core.ProjectConfig(t.g, t.cfg, t.cl.TotalDevices()/2)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "replay.ckpt")
	var moved int64
	for r := 0; r < reps; r++ {
		op++
		st, err := elastic.ShardState(t.g, t.cfg, p)
		if err != nil {
			return err
		}
		s := time.Now()
		if err := elastic.Save(path, st); err != nil {
			return err
		}
		log.add("elastic.Save", 0, op, s, time.Now())
		s = time.Now()
		loaded, err := elastic.Load(path)
		if err != nil {
			return err
		}
		log.add("elastic.Load", 0, op, s, time.Now())
		s = time.Now()
		next, err := elastic.Reshard(t.g, to, loaded)
		if err != nil {
			return err
		}
		log.add("elastic.Reshard", 0, op, s, time.Now())
		moved = elastic.BytesMoved(loaded, next, nil, nil)
	}
	m["elastic.checkpoint_save_ms"] = median(log.durations("elastic.Save")) / 1e6
	m["elastic.checkpoint_load_ms"] = median(log.durations("elastic.Load")) / 1e6
	m["elastic.reshard_ms"] = median(log.durations("elastic.Reshard")) / 1e6
	m["elastic.reshard_bytes"] = float64(moved)

	var explored []float64
	faults := hardware.FaultSpec{Devices: []hardware.DeviceFault{{Device: 3, Dead: true}}}
	for r := 0; r < 3; r++ {
		op++
		s := time.Now()
		res, err := core.Replan(context.Background(), t.g, t.cl, faults, t.cfg,
			core.Options{TimeBudget: churnBudget, Seed: t.seed})
		if err != nil {
			return err
		}
		log.add("core.Replan", 0, op, s, time.Now())
		explored = append(explored, float64(res.Explored))
	}
	m["elastic.replan_explored"] = median(explored)

	op++
	sp := t.params()
	s := time.Now()
	if _, err := art.Serial(t.g, sp, t.x, t.y, t.cfg.MicroBatch, churnLR, churnIters); err != nil {
		return err
	}
	log.add("runtime.Serial", 0, op, s, time.Now())
	m["runtime.serial_step_ms"] = mean(log.durations("runtime.Serial")) / 1e6 / churnIters
	return nil
}
