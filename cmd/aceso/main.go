// Command aceso searches, estimates and simulates parallel-training
// configurations from the terminal.
//
// Usage:
//
//	aceso search   -model gpt3 -size 1.3B -gpus 4 [-budget 2s] [-maxhops 7] [-seed 1]
//	aceso estimate -model gpt3 -size 1.3B -gpus 4 -pp 2 -tp 2 -dp 1 -mbs 1 [-recompute]
//	aceso baseline -model gpt3 -size 1.3B -gpus 4            # Megatron grid + Alpa-like
//	aceso elastic  -layers 6 -dim 16 -batch 32 -iters 8 -fault-rank 2 -fault-iter 4
//
// search prints the best found configuration, its performance-model
// estimate, and the runtime simulator's verdict. estimate evaluates a
// manual (Megatron-style global) configuration. baseline runs the two
// comparison systems on the same workload. elastic trains a small MLP
// for real, kills a device mid-run, and narrates the recovery
// (checkpoint → replan → reshard → resume) against an uninterrupted
// reference run.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"aceso/internal/baselines/alpa"
	"aceso/internal/baselines/megatron"
	"aceso/internal/chaos"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/elastic"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
	"aceso/internal/pipesim"
	"aceso/internal/profiler"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "search":
		err = runSearch(os.Args[2:])
	case "estimate":
		err = runEstimate(os.Args[2:])
	case "baseline":
		err = runBaseline(os.Args[2:])
	case "profile":
		err = runProfile(os.Args[2:])
	case "elastic":
		err = runElastic(os.Args[2:])
	case "churn":
		err = runChurn(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aceso:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: aceso <search|estimate|baseline|profile|elastic|churn> [flags]
  aceso search   -model gpt3 -size 1.3B -gpus 4 [-budget 2s] [-maxhops 7] [-seed 1] [-db db.json]
  aceso estimate -model gpt3 -size 1.3B -gpus 4 -pp 2 -tp 2 -dp 1 -mbs 1 [-recompute]
  aceso baseline -model gpt3 -size 1.3B -gpus 4
  aceso profile  -model gpt3 -size 1.3B -gpus 4 -o profile-db.json
  aceso elastic  -layers 6 -dim 16 -batch 32 -iters 8 -fault-rank 2 -fault-iter 4
  aceso churn    -layers 6 -dim 16 -batch 32 -iters 12 [-events 8] [-seed 1]
models: gpt3 (350M 1.3B 2.6B 6.7B 13B), t5 (770M 3B 6B 11B 22B),
        wresnet (0.5B 2B 4B 6.8B 13B), llama (8B 70B),
        deep-<layers> (e.g. deep-1024)`)
}

// workload parses the shared -model/-size/-gpus flags.
func workload(fs *flag.FlagSet) (get func() (*model.Graph, hardware.Cluster, error)) {
	mdl := fs.String("model", "gpt3", "model family: gpt3, t5, wresnet, llama, deep-<layers>")
	size := fs.String("size", "1.3B", "model size label (Table 2)")
	gpus := fs.Int("gpus", 4, "number of GPUs (V100-32GB, 8 per node)")
	return func() (*model.Graph, hardware.Cluster, error) {
		g, err := model.ByName(*mdl, *size)
		if err != nil {
			return nil, hardware.Cluster{}, err
		}
		return g, hardware.DGX1V100(4).Restrict(*gpus), nil
	}
}

func runSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	get := workload(fs)
	budget := fs.Duration("budget", 2*time.Second, "search time budget")
	maxHops := fs.Int("maxhops", 7, "multi-hop search depth limit")
	seed := fs.Int64("seed", 1, "deterministic seed")
	dbPath := fs.String("db", "", "profiling database to reuse (from `aceso profile`)")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	fmt.Printf("searching %s: %d ops, %.2fB params, batch %d, on %d GPUs (budget %v)\n",
		g.Name, len(g.Ops), g.TotalParams()/1e9, g.GlobalBatch, cl.TotalDevices(), *budget)

	sharedPM := perfmodel.New(g, cl, *seed)
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			return err
		}
		err = sharedPM.Prof.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded profiling database %s (%d entries)\n", *dbPath, sharedPM.Prof.Entries())
	}
	res, err := core.Search(g, cl, core.Options{
		TimeBudget: *budget, MaxHops: *maxHops, Seed: *seed, CollectTrace: true,
		Model: sharedPM,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nexplored %d configurations in %v over %d iterations\n",
		res.Explored, res.Elapsed.Round(time.Millisecond), res.Iterations)
	fmt.Printf("best configuration:\n  %v\n", res.Best.Config)
	printEstimate(g, res.Best.Estimate)

	if sim, err := pipesim.Simulate(sharedPM, res.Best.Config, *seed); err == nil {
		fmt.Printf("simulated execution: %.3f s/iter, peak memory %.2f GiB, OOM=%v\n",
			sim.IterTime, sim.PeakMem/(1<<30), sim.OOM)
	}
	fmt.Println("\ntop candidates:")
	for i, c := range res.TopK {
		fmt.Printf("  #%d est %.3f s/iter, %d stages, mbs %d\n",
			i+1, c.Score, c.Config.NumStages(), c.Config.MicroBatch)
	}
	return nil
}

func printEstimate(g *model.Graph, est *perfmodel.Estimate) {
	fmt.Printf("performance model: %.3f s/iter (%.1f samples/s), peak memory %.2f GiB, feasible=%v\n",
		est.IterTime, est.Throughput(g.GlobalBatch), est.PeakMem/(1<<30), est.Feasible)
}

func runEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	get := workload(fs)
	pp := fs.Int("pp", 1, "pipeline stages")
	tp := fs.Int("tp", 1, "tensor-parallel degree")
	dp := fs.Int("dp", 1, "data-parallel degree")
	mbs := fs.Int("mbs", 1, "microbatch size")
	rc := fs.Bool("recompute", false, "recompute all operators")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	if *tp**dp**pp != cl.TotalDevices() {
		return fmt.Errorf("tp(%d)·dp(%d)·pp(%d) must equal %d GPUs", *tp, *dp, *pp, cl.TotalDevices())
	}
	cfg, err := config.Balanced(g, cl.TotalDevices(), *pp, *mbs)
	if err != nil {
		return err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: *tp, DP: *dp, Recompute: *rc}
		}
	}
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return err
	}
	pm := perfmodel.New(g, cl, *seed)
	printEstimate(g, pm.Estimate(cfg))
	if sim, err := pipesim.Simulate(pm, cfg, *seed); err == nil {
		fmt.Printf("simulated execution: %.3f s/iter, peak memory %.2f GiB, OOM=%v\n",
			sim.IterTime, sim.PeakMem/(1<<30), sim.OOM)
	}
	return nil
}

func runBaseline(args []string) error {
	fs := flag.NewFlagSet("baseline", flag.ExitOnError)
	get := workload(fs)
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	if mg, err := megatron.Search(g, cl, megatron.Options{Seed: *seed}); err != nil {
		fmt.Printf("Megatron-LM grid: failed: %v\n", err)
	} else {
		fmt.Printf("Megatron-LM grid: %d points, best %.3f s/iter\n  %v\n",
			mg.Evaluated, mg.Estimate.IterTime, mg.Best)
	}
	if al, err := alpa.Search(g, cl, alpa.Options{Seed: *seed}); err != nil {
		fmt.Printf("Alpa-like solver: failed: %v\n", err)
	} else {
		fmt.Printf("Alpa-like solver: %d kernels, emulated cost %v, best %.3f s/iter\n  %v\n",
			al.Kernels, al.EmulatedSearchCost.Round(time.Millisecond), al.Estimate.IterTime, al.Best)
	}
	return nil
}

// runElastic is the elastic-runtime demo: really train a small MLP on
// an emulated cluster, kill a device mid-run, and show the recovery —
// replanned config, reshard traffic, recovery latency — next to an
// uninterrupted reference trajectory.
func runElastic(args []string) error {
	fs := flag.NewFlagSet("elastic", flag.ExitOnError)
	layers := fs.Int("layers", 6, "MLP layers")
	dim := fs.Int("dim", 16, "MLP hidden width")
	batch := fs.Int("batch", 32, "global batch rows")
	iters := fs.Int("iters", 8, "training iterations")
	faultRank := fs.Int("fault-rank", 2, "device rank to kill (-1 disables the fault)")
	faultIter := fs.Int("fault-iter", 4, "iteration at which the device dies")
	ckptEvery := fs.Int("ckpt-every", 2, "checkpoint cadence in iterations")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, err := model.MLP(*layers, *dim, *batch)
	if err != nil {
		return err
	}
	cfg, err := config.Balanced(g, 4, 2, *batch/4)
	if err != nil {
		return err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: 2, DP: 1}
		}
	}
	cl := hardware.DGX1V100(1).Restrict(4)
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	x, y := tensor.New(*batch, *dim), tensor.New(*batch, *dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	fmt.Printf("elastic: MLP(%d layers, dim %d, batch %d), pp2×tp2 on %d emulated V100s\n",
		*layers, *dim, *batch, cl.TotalDevices())

	ref := runtime.InitParams(g, *seed)
	ref.Opt = runtime.Adam
	refLosses, err := runtime.Parallel(g, cfg, ref, x, y, 0.05, *iters)
	if err != nil {
		return err
	}

	var spec elastic.ChurnSpec
	if *faultRank >= 0 {
		if *faultIter < 0 || *faultIter >= *iters {
			return fmt.Errorf("fault iteration %d out of range [0, %d)", *faultIter, *iters)
		}
		spec.Events = []elastic.ChurnEvent{{Iteration: *faultIter, Kind: elastic.Preempt, Device: *faultRank}}
		fmt.Printf("elastic: device %d will die at the top of iteration %d\n", *faultRank, *faultIter)
	}
	p := runtime.InitParams(g, *seed)
	p.Opt = runtime.Adam
	rep, err := elastic.Supervise(context.Background(), g, cl, cfg, p, x, y, *iters, spec,
		elastic.SuperviseOptions{Options: elastic.Options{LR: 0.05, CheckpointEvery: *ckptEvery, Seed: *seed,
			SearchBudget: 300 * time.Millisecond}})
	if err != nil {
		return err
	}

	fmt.Printf("\n%-5s %-14s %-14s\n", "iter", "uninterrupted", "elastic")
	for i := range rep.Losses {
		fmt.Printf("%-5d %-14.9f %-14.9f\n", i, refLosses[i], rep.Losses[i])
	}
	if rep.FaultsDetected > 0 {
		fmt.Printf("\nrecovered in %v: replanned %d→%d devices (%d stages, mbs %d), reshard moved %d bytes, %d checkpoints\n",
			rep.Recoveries[0].Round(time.Microsecond), cl.TotalDevices(), rep.Config.TotalDevices(),
			rep.Config.NumStages(), rep.Config.MicroBatch, rep.ReshardBytesMoved, rep.Checkpoints)
	} else {
		fmt.Printf("\nno fault injected: %d checkpoints, final step %d\n", rep.Checkpoints, rep.FinalStep)
	}
	fmt.Printf("final state: step %d, max parameter divergence from uninterrupted run %.3g\n",
		rep.FinalStep, ref.MaxDiff(rep.Params))
	return nil
}

// runChurn is the continuous-churn demo: train a small MLP under a
// randomly drawn stream of preemptions, re-additions and derates, and
// narrate every supervisor decision — deferred and forced replans,
// ladder rungs, backoff retries, pauses — as a live timeline, ending
// with the availability ledger and the divergence from an
// uninterrupted reference run.
func runChurn(args []string) error {
	fs := flag.NewFlagSet("churn", flag.ExitOnError)
	layers := fs.Int("layers", 6, "MLP layers")
	dim := fs.Int("dim", 16, "MLP hidden width")
	batch := fs.Int("batch", 32, "global batch rows")
	iters := fs.Int("iters", 12, "training iterations")
	events := fs.Int("events", 8, "maximum churn events to draw")
	ckptEvery := fs.Int("ckpt-every", 2, "initial checkpoint cadence in iterations")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, err := model.MLP(*layers, *dim, *batch)
	if err != nil {
		return err
	}
	cfg, err := config.Balanced(g, 4, 2, *batch/4)
	if err != nil {
		return err
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{TP: 2, DP: 1}
		}
	}
	cl := hardware.DGX1V100(1).Restrict(4)
	if err := cfg.Validate(g, cl.TotalDevices()); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	x, y := tensor.New(*batch, *dim), tensor.New(*batch, *dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	spec := chaos.RandomChurnSpec(rng, cl.TotalDevices(), *iters, *events)
	for tries := 0; *events > 0 && len(spec.Events) == 0 && tries < 16; tries++ {
		// The generator draws 0..events; an empty schedule makes a dull
		// demo, so keep drawing from the same deterministic stream.
		spec = chaos.RandomChurnSpec(rng, cl.TotalDevices(), *iters, *events)
	}
	fmt.Printf("churn: MLP(%d layers, dim %d, batch %d), pp2×tp2 on %d emulated V100s, %d scheduled events:\n",
		*layers, *dim, *batch, cl.TotalDevices(), len(spec.Events))
	for _, ev := range spec.Events {
		switch ev.Kind {
		case elastic.Preempt, elastic.Readd:
			fmt.Printf("  iter %-3d %s device %d\n", ev.Iteration, ev.Kind, ev.Device)
		case elastic.SlowNode:
			fmt.Printf("  iter %-3d %s device %d scale %.2f\n", ev.Iteration, ev.Kind, ev.Device, ev.Scale)
		default:
			fmt.Printf("  iter %-3d %s scale %.2f\n", ev.Iteration, ev.Kind, ev.Scale)
		}
	}

	ref := runtime.InitParams(g, *seed)
	ref.Opt = runtime.Adam
	refLosses, err := runtime.Parallel(g, cfg, ref, x, y, 0.05, *iters)
	if err != nil {
		return err
	}

	p := runtime.InitParams(g, *seed)
	p.Opt = runtime.Adam
	fmt.Println("\ntimeline:")
	rep, err := elastic.Supervise(context.Background(), g, cl, cfg, p, x, y, *iters, spec,
		elastic.SuperviseOptions{
			Options: elastic.Options{
				LR: 0.05, CheckpointEvery: *ckptEvery, Seed: *seed,
				SearchBudget: 300 * time.Millisecond,
			},
			OnTransition: func(tr elastic.Transition) {
				fmt.Printf("  step %-3d [%s] %s\n", tr.Step, tr.Kind, tr.Detail)
			},
		})
	if err != nil {
		return err
	}

	fmt.Printf("\n%-5s %-14s %-14s\n", "iter", "uninterrupted", "churn")
	for i := range rep.Losses {
		fmt.Printf("%-5d %-14.9f %-14.9f\n", i, refLosses[i], rep.Losses[i])
	}
	fmt.Printf("\nsurvived %d events (%d in-plan faults): availability %.1f%%, %d steps lost, %d replans (%d avoided by hysteresis), %d retries, %d pauses, cadence %d→%d\n",
		rep.EventsApplied, rep.FaultsDetected, 100*rep.Availability(), rep.StepsLost,
		rep.Replans, rep.ReplansAvoided, rep.Retries, rep.Pauses, *ckptEvery, rep.FinalCadence)
	if n := len(rep.Recoveries); n > 0 {
		fmt.Printf("recovery p50 %v, p99 %v over %d recoveries; %d bytes resharded\n",
			rep.RecoveryPercentile(0.5).Round(time.Microsecond),
			rep.RecoveryPercentile(0.99).Round(time.Microsecond), n, rep.ReshardBytesMoved)
	}
	fmt.Printf("final state: step %d on %d devices, max parameter divergence from uninterrupted run %.3g\n",
		rep.FinalStep, rep.Config.TotalDevices(), ref.MaxDiff(rep.Params))
	return nil
}

// runProfile pre-warms a profiling database for a workload and saves
// it (§3.3: "the profiled database can be reused by the search for
// models that contain the same operators"). Profiling runs one
// goroutine per operator — the parallelization the paper left as
// future work.
func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	get := workload(fs)
	out := fs.String("o", "profile-db.json", "output database path")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	g, cl, err := get()
	if err != nil {
		return err
	}
	p := profiler.New(cl, *seed)
	start := time.Now()
	tps := []int{1}
	for tp := 2; tp <= cl.DevicesPerNode; tp *= 2 {
		tps = append(tps, tp)
	}
	samples := []int{1, 2, 4, 8, 16, 32}
	p.Prewarm(g, tps, samples)
	fmt.Printf("profiled %d operator entries in %v\n", p.Entries(), time.Since(start).Round(time.Millisecond))

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		return err
	}
	fmt.Printf("database written to %s\n", *out)
	return nil
}
