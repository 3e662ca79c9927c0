package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"time"

	"aceso/internal/comm"
	"aceso/internal/config"
	"aceso/internal/elastic"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// DefaultChurnTrials is the churn trial count when Options leaves both
// Trials and Duration unset. Each trial trains a model through a full
// churn schedule with potentially several replans, so the default is
// the smallest of the harnesses.
const DefaultChurnTrials = 12

// churnMaxCadence pins the supervisor's checkpoint-cadence cap for
// chaos trials, so the work-loss bound below is a closed formula.
const churnMaxCadence = 4

// churnTol bounds the divergence between a supervised run and its
// uninterrupted reference: reconfigurations are semantics-preserving,
// so only float re-association noise is tolerated.
const churnTol = 1e-9

// RandomChurnSpec draws a random churn schedule for a cluster of the
// given size: preemptions, re-additions (biased toward dead devices so
// runs tend to regain capacity), stragglers with later restores, and
// link derates. Iterations may land past iters — a paused run consumes
// the remaining schedule while it waits for capacity.
func RandomChurnSpec(rng *rand.Rand, devices, iters, maxEvents int) elastic.ChurnSpec {
	var spec elastic.ChurnSpec
	dead := map[int]bool{}
	derated := map[int]bool{}
	n := rng.Intn(maxEvents + 1)
	for i := 0; i < n; i++ {
		ev := elastic.ChurnEvent{Iteration: rng.Intn(iters + 2)}
		switch k := rng.Intn(10); {
		case k < 3: // preempt
			ev.Kind = elastic.Preempt
			ev.Device = rng.Intn(devices)
			if len(dead) >= devices-1 && !dead[ev.Device] && rng.Intn(4) != 0 {
				// Killing the last device usually stalls the run; mostly
				// re-add someone instead to keep trials productive.
				ev.Kind = elastic.Readd
			}
			if ev.Kind == elastic.Preempt {
				dead[ev.Device] = true
			} else {
				delete(dead, ev.Device)
			}
		case k < 6: // readd, preferring a currently-dead or derated device
			ev.Kind = elastic.Readd
			ev.Device = rng.Intn(devices)
			for d := range dead {
				ev.Device = d
				break
			}
			delete(dead, ev.Device)
			delete(derated, ev.Device)
		case k < 8: // slow node: derate, or restore one already derated
			ev.Kind = elastic.SlowNode
			ev.Device = rng.Intn(devices)
			if derated[ev.Device] && rng.Intn(2) == 0 {
				ev.Scale = 1
				delete(derated, ev.Device)
			} else {
				ev.Scale = 0.3 + 0.7*rng.Float64()
				derated[ev.Device] = true
			}
		default: // link derate or restore
			ev.Kind = elastic.LinkDerate
			if rng.Intn(3) == 0 {
				ev.Scale = 1
			} else {
				ev.Scale = 0.4 + 0.6*rng.Float64()
			}
		}
		spec.Events = append(spec.Events, ev)
	}
	return spec
}

// churnShape is one randomly drawn trial topology.
type churnShape struct {
	stages, tp, dp int
}

// drawShape picks a valid (stages × tp × dp) decomposition for a graph
// with ops operators and hidden width dim.
func drawShape(rng *rand.Rand, ops, dim int) churnShape {
	shapes := []churnShape{
		{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2},
		{2, 2, 1}, {2, 1, 2}, {1, 2, 2}, {2, 2, 2},
	}
	for {
		s := shapes[rng.Intn(len(shapes))]
		if s.stages <= ops && dim%s.tp == 0 {
			return s
		}
	}
}

// RunChurn hammers the churn supervisor end to end: every trial draws
// a random model, a random valid plan (tensor-parallel split dimension
// and recomputation drawn per operator), and a random churn schedule of
// mixed preemptions/re-additions/derates, runs it through
// elastic.Supervise, and checks the invariants — no panic, no deadlock
// (an escaped *comm.CollectiveTimeoutError means a rank hung until the
// deadline saved it), a strictly monotone step counter, finite losses,
// all requested iterations completed, an availability floor (work lost
// is bounded by faults × the checkpoint cadence cap), and a final
// state that matches an uninterrupted run of the same model to float
// tolerance.
func RunChurn(o Options) *Report {
	start := time.Now()
	rep := &Report{}
	deadline := time.Time{}
	if o.Duration > 0 {
		deadline = start.Add(o.Duration)
	}
	trials := o.Trials
	if trials <= 0 && o.Duration <= 0 {
		trials = DefaultChurnTrials
	}
	for i := 0; trials <= 0 || i < trials; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		seed := o.Seed + int64(i)*1000003
		v := ReplayChurnTrial(i, seed, rep)
		rep.Trials++
		if v != nil {
			rep.Violations = append(rep.Violations, *v)
		}
		if o.Log != nil && (i+1)%4 == 0 {
			o.Log("chaos-churn: %d trials, %d survived runs, %d typed errors, %d violations",
				rep.Trials, rep.Plans, rep.TypedErrs, len(rep.Violations))
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// ReplayChurnTrial runs one churn chaos trial. Exported so a violation
// from a long run is replayable in isolation.
func ReplayChurnTrial(trial int, seed int64, rep *Report) (viol *Violation) {
	defer func() {
		if r := recover(); r != nil {
			viol = &Violation{
				Trial: trial, Seed: seed, Kind: "panic",
				Detail: fmt.Sprintf("%v\n%s", r, debug.Stack()),
			}
		}
	}()
	fail := func(kind, format string, args ...any) *Violation {
		return &Violation{Trial: trial, Seed: seed, Kind: kind,
			Detail: fmt.Sprintf(format, args...)}
	}
	rng := rand.New(rand.NewSource(seed))

	dim := 4 << rng.Intn(2)   // 4 or 8
	layers := 2 + rng.Intn(3) // 2..4
	batch := 8 << rng.Intn(2) // 8 or 16
	g, err := model.MLP(layers, dim, batch)
	if err != nil {
		rep.TypedErrs++
		return nil
	}
	shape := drawShape(rng, len(g.Ops), dim)
	total := shape.stages * shape.tp * shape.dp
	mb := batch / (1 << rng.Intn(2))
	cfg, err := config.Balanced(g, total, shape.stages, mb)
	if err != nil {
		rep.TypedErrs++
		return nil
	}
	for i := range cfg.Stages {
		for j := range cfg.Stages[i].Ops {
			cfg.Stages[i].Ops[j] = config.OpSetting{
				TP: shape.tp, DP: shape.dp, Dim: rng.Intn(2),
				Recompute: rng.Intn(4) == 0,
			}
			if g.Ops[cfg.Stages[i].Start+j].Kind != model.KindMatMul {
				cfg.Stages[i].Ops[j].Dim = 0
			}
		}
	}
	if err := cfg.Validate(g, total); err != nil {
		rep.TypedErrs++
		return nil
	}
	cl := hardware.DGX1V100(1).Restrict(total)

	x := tensor.New(batch, dim)
	y := tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}

	iters := 4 + rng.Intn(5) // 4..8
	spec := RandomChurnSpec(rng, total, iters, 2+rng.Intn(7))

	// The uninterrupted reference trajectory for the divergence check.
	ref := runtime.InitParams(g, seed)
	ref.Opt = runtime.Adam
	refLosses, err := runtime.Parallel(g, cfg, ref, x, y, 0.05, iters)
	if err != nil {
		rep.TypedErrs++
		return nil
	}

	p := runtime.InitParams(g, seed)
	p.Opt = runtime.Adam
	opt := elastic.SuperviseOptions{
		Options: elastic.Options{
			LR:              0.05,
			CheckpointEvery: 1 + rng.Intn(2),
			CommDeadline:    20 * time.Second,
			SearchBudget:    100 * time.Millisecond,
			Seed:            seed,
		},
		BackoffBase:      time.Microsecond,
		BackoffCap:       4 * time.Microsecond,
		MaxCadence:       churnMaxCadence,
		SimulateTimeouts: rng.Intn(2),
	}
	churnRep, err := elastic.Supervise(context.Background(), g, cl, cfg, p, x, y, iters, spec, opt)
	if err != nil {
		var te *comm.CollectiveTimeoutError
		if errors.As(err, &te) {
			// Simulated timeouts (at most 1) never exhaust the retry
			// budget, so an escaped timeout means a rank really hung.
			return fail("deadlock", "collective timeout escaped the supervisor: %v", err)
		}
		var stalled *elastic.StalledError
		if errors.As(err, &stalled) {
			rep.TypedErrs++ // schedule genuinely ran out of capacity
			return nil
		}
		rep.TypedErrs++
		return nil
	}

	if churnRep.FinalStep != iters {
		return fail("lost-steps", "final step %d, want %d (events=%d faults=%d)",
			churnRep.FinalStep, iters, churnRep.EventsApplied, churnRep.FaultsDetected)
	}
	if len(churnRep.Losses) != iters {
		return fail("lost-steps", "%d losses for %d iterations", len(churnRep.Losses), iters)
	}
	for i, l := range churnRep.Losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fail("non-finite", "loss[%d] = %v", i, l)
		}
	}
	for i := 1; i < len(churnRep.Steps); i++ {
		if churnRep.Steps[i] <= churnRep.Steps[i-1] {
			return fail("non-monotone-step", "steps %v", churnRep.Steps)
		}
	}
	// Availability floor: each detected fault (and each retried
	// timeout) can discard at most one partial segment, and segments
	// are capped at MaxCadence iterations.
	if bound := (churnRep.FaultsDetected + churnRep.Retries) * churnMaxCadence; churnRep.StepsLost > bound {
		return fail("availability-floor", "lost %d steps > bound %d (faults=%d retries=%d cap=%d)",
			churnRep.StepsLost, bound, churnRep.FaultsDetected, churnRep.Retries, churnMaxCadence)
	}
	// Divergence: churn must cost wall time only, never training
	// fidelity.
	for i := range refLosses {
		if math.Abs(churnRep.Losses[i]-refLosses[i]) > churnTol {
			return fail("diverged", "loss[%d] %.15g vs uninterrupted %.15g", i, churnRep.Losses[i], refLosses[i])
		}
	}
	if d := ref.MaxDiff(churnRep.Params); d > churnTol {
		return fail("diverged", "final params differ by %g from uninterrupted run", d)
	}
	rep.Plans++
	return nil
}
