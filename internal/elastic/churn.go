// Continuous-churn supervision: Supervise is the one recovery engine.
// It rides an arbitrary stream of fleet events — preemptions,
// re-additions, stragglers, fabric derates — the operating reality of
// spot/preemptible capacity; a single planned fault is just a
// one-event schedule. Beyond the checkpoint → replan → reshard →
// resume loop it owns the *policy* layer: backoff for transient
// timeouts, hysteresis before paying for a replan search, a
// checkpoint cadence that adapts to the observed fault rate, and a
// graceful-degradation ladder (project → warm replan → shrink → pause)
// when capacity drops. Every decision is emitted as a typed Transition
// through obs, so a run's recovery story is inspectable after the fact.
package elastic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"aceso/internal/comm"
	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// ChurnKind enumerates the fleet events a training run can experience.
type ChurnKind uint8

const (
	// Preempt removes a physical device (spot reclaim, crash). If the
	// device is part of the running plan the loss surfaces through the
	// runtime as a mid-iteration *DeviceLostError; an idle spare is
	// removed at the segment boundary.
	Preempt ChurnKind = iota
	// Readd returns a previously-removed or derated physical device to
	// full service (hardware.Restore; logical-rank re-expansion).
	Readd
	// SlowNode derates a device's throughput to Scale (thermal
	// throttling, a noisy neighbor). Scale 1 restores full speed.
	SlowNode
	// LinkDerate scales the cluster's link bandwidth to Scale
	// (congestion, a flaky NIC). Scale 1 restores the healthy fabric.
	LinkDerate
	// PreemptNotice announces that Device will be reclaimed Notice
	// iterations after Iteration — the advance warning spot capacity
	// gives before a reclaim. The supervisor drains the device
	// proactively: immediate checkpoint, pre-warmed replan on the
	// post-reclaim fleet while the doomed device still serves, and a
	// switchover timed so the final checkpoint completes inside the
	// window — zero lost steps when Notice ≥ CheckpointCost. A window
	// too short for a checkpoint falls back to the plain Preempt path
	// (typed *NoticeMissedError).
	PreemptNotice

	numChurnKinds
)

// String implements fmt.Stringer.
func (k ChurnKind) String() string {
	switch k {
	case Preempt:
		return "preempt"
	case Readd:
		return "readd"
	case SlowNode:
		return "slow-node"
	case LinkDerate:
		return "link-derate"
	case PreemptNotice:
		return "preempt-notice"
	}
	return fmt.Sprintf("churn-kind-%d", uint8(k))
}

// ChurnEvent is one fleet change, due at the boundary of the 0-based
// absolute training iteration Iteration (in-plan preemptions fire
// mid-iteration through the runtime's fault injection instead).
type ChurnEvent struct {
	Iteration int
	Kind      ChurnKind
	// Device is the physical rank on the healthy cluster (Preempt,
	// Readd, SlowNode; ignored for LinkDerate).
	Device int
	// Scale is the derate factor for SlowNode (FLOPS) and LinkDerate
	// (bandwidth): (0, 1), with 1 meaning "restored".
	Scale float64
	// Notice is PreemptNotice's advance warning in iterations: the
	// device is reclaimed at Iteration+Notice. Ignored by other kinds.
	Notice int
}

// ChurnSpec is a schedule of churn events. Order does not matter;
// Supervise sorts a copy by iteration (stable, so same-iteration
// events keep their relative order). Events stamped past the run's
// iteration count are normally never reached, but a paused run (see
// the degradation ladder) consumes the remaining schedule in order
// while it waits for capacity.
type ChurnSpec struct {
	Events []ChurnEvent
}

// Validate checks the schedule against a cluster size. All failure
// modes are errors, never panics — specs may come from fuzzers.
func (s *ChurnSpec) Validate(totalDevices int) error {
	for i, ev := range s.Events {
		if ev.Iteration < 0 {
			return fmt.Errorf("elastic: event %d: iteration %d < 0", i, ev.Iteration)
		}
		if ev.Kind >= numChurnKinds {
			return fmt.Errorf("elastic: event %d: unknown kind %d", i, uint8(ev.Kind))
		}
		if ev.Kind != LinkDerate && (ev.Device < 0 || ev.Device >= totalDevices) {
			return fmt.Errorf("elastic: event %d: device %d out of range [0, %d)", i, ev.Device, totalDevices)
		}
		if ev.Kind == SlowNode || ev.Kind == LinkDerate {
			if math.IsNaN(ev.Scale) || ev.Scale <= 0 || ev.Scale > 1 {
				return fmt.Errorf("elastic: event %d: scale %v outside (0, 1]", i, ev.Scale)
			}
		}
		if ev.Kind == PreemptNotice && ev.Notice < 0 {
			return fmt.Errorf("elastic: event %d: negative notice window %d", i, ev.Notice)
		}
	}
	return nil
}

// TransitionKind labels supervisor state transitions.
type TransitionKind string

// Supervisor transition kinds, in rough lifecycle order.
const (
	TransEvent          TransitionKind = "event"           // churn event applied at a boundary
	TransFault          TransitionKind = "fault"           // in-plan device loss detected mid-segment
	TransCadence        TransitionKind = "cadence"         // adaptive checkpoint cadence changed
	TransLadderProject  TransitionKind = "ladder-project"  // recovered via ProjectConfig (no search)
	TransLadderReplan   TransitionKind = "ladder-replan"   // recovered via warm Replan search
	TransLadderShrink   TransitionKind = "ladder-shrink"   // shrunk to the largest runnable subset
	TransLadderPause    TransitionKind = "ladder-pause"    // out of capacity; waiting for re-addition
	TransResume         TransitionKind = "resume"          // training resumed after recovery
	TransReplanDeferred TransitionKind = "replan-deferred" // hysteresis absorbed a degradation
	TransReplanForced   TransitionKind = "replan-forced"   // threshold or persistence forced a replan
	TransReplanKept     TransitionKind = "replan-kept"     // forced replan found nothing better
	TransBackoffRetry   TransitionKind = "backoff-retry"   // timeout retried after backoff
	TransNotice         TransitionKind = "preempt-notice"  // advance reclaim warning received; drain armed
	TransDrain          TransitionKind = "notice-drain"    // proactive switchover completed inside the window
	TransNoticeMissed   TransitionKind = "notice-missed"   // window too short for a checkpoint; reclaim falls back to preempt
)

// Transition is one supervisor decision, stamped with the optimizer
// step it was taken at.
type Transition struct {
	Step   int
	Kind   TransitionKind
	Detail string
}

// StalledError reports a supervised run that ran out of capacity with
// no re-addition left in the churn schedule: the graceful-degradation
// ladder reached pause-and-wait and the wait cannot end.
type StalledError struct {
	Step  int // optimizer step of the last durable checkpoint
	Alive int // devices still alive
}

// Error implements the error interface.
func (e *StalledError) Error() string {
	return fmt.Sprintf("elastic: training stalled at step %d: %d devices alive and no usable re-addition left in the churn schedule",
		e.Step, e.Alive)
}

// NoticeMissedError reports a preempt notice whose window could not
// absorb a checkpoint (Window < CheckpointCost): the proactive drain
// is impossible and the reclaim falls back to the in-plan Preempt
// path, where the partial segment at the deadline is lost. Recorded in
// ChurnReport.NoticeMisses and counted in aceso_spot_* metrics rather
// than returned — the supervisor still recovers.
type NoticeMissedError struct {
	Device   int
	Window   int // iterations of advance warning the notice gave
	Cost     int // configured checkpoint cost in iterations
	Deadline int // absolute iteration the device is reclaimed at
}

// Error implements the error interface.
func (e *NoticeMissedError) Error() string {
	return fmt.Sprintf("elastic: preempt notice for device %d missed: %d-iteration window cannot absorb a %d-iteration checkpoint; reclaim at iteration %d falls back to the preempt path",
		e.Device, e.Window, e.Cost, e.Deadline)
}

// SuperviseOptions tunes the churn supervisor. The embedded Options
// configure the recovery loop; CheckpointEvery seeds the adaptive
// cadence.
type SuperviseOptions struct {
	Options

	// ReplanThreshold is the projected fractional throughput loss (or
	// idle-capacity gain) above which a churn event triggers an
	// immediate warm replan; smaller blips are debounced. Default 0.15.
	ReplanThreshold float64
	// HysteresisEvents is how many consecutive deferred degradations
	// accumulate before the supervisor replans anyway — persistence
	// beats the threshold. Default 3.
	HysteresisEvents int
	// BackoffBase/BackoffCap bound the capped exponential backoff
	// between retries of a segment that failed with
	// *comm.CollectiveTimeoutError. Defaults 2ms / 50ms; jitter is
	// deterministic from Seed.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// MaxRetries caps consecutive timeout retries of one segment
	// before the error is surfaced. Default 3.
	MaxRetries int
	// MaxCadence caps the adaptive checkpoint cadence (iterations per
	// checkpoint); the floor is 1. Default 4.
	MaxCadence int
	// SimulateTimeouts fails the first N segment attempts with a
	// synthetic *comm.CollectiveTimeoutError before touching the
	// runtime — a deterministic hook for exercising the backoff policy
	// from tests and the chaos harness.
	SimulateTimeouts int
	// CheckpointCost is how many iterations' worth of time one
	// checkpoint write occupies when racing a preempt notice's window:
	// a PreemptNotice with Notice ≥ CheckpointCost drains proactively
	// (the switchover fires CheckpointCost iterations before the
	// deadline so the final checkpoint completes in time) with zero
	// lost steps; a shorter window is a missed notice and the reclaim
	// falls back to the in-plan Preempt path. Default 0: checkpoints
	// are instantaneous and every window fits.
	CheckpointCost int
	// OnTransition, when non-nil, observes every supervisor transition
	// as it happens (they are also collected in ChurnReport).
	OnTransition func(Transition)
}

// ChurnReport is the outcome of a supervised run.
type ChurnReport struct {
	// Losses holds one loss per completed iteration, stitched across
	// every rollback. Steps records the optimizer step counter after
	// every successful segment (strictly monotone). Params and Config
	// are the training state and plan at exit — on a fault the
	// caller's params object is torn, and the recovered state lives
	// here. FinalStep is Params.Step at exit.
	Losses    []float64
	Steps     []int
	Params    *runtime.Params
	Config    *config.Config
	FinalStep int

	// EventsApplied counts schedule events consumed; EventCounts
	// breaks them down by ChurnKind string.
	EventsApplied int
	EventCounts   map[string]int
	// FaultsDetected counts in-plan device losses surfaced by the
	// runtime (a subset of the preempt events).
	FaultsDetected int
	// Checkpoints, Reshards and ReshardBytesMoved count the lineage:
	// durable checkpoints taken, plan-to-plan reshards, and the
	// physical bytes those reshards moved between devices.
	Checkpoints       int
	Reshards          int
	ReshardBytesMoved int64
	// Replans counts replan searches run; ReplansAvoided counts the
	// searches hysteresis (or a good-enough projection) avoided.
	Replans        int
	ReplansAvoided int
	// Ladder counts recovery commits per rung ("project", "replan",
	// "shrink").
	Ladder map[string]int
	// Retries counts timeout retries; Pauses counts pause-and-wait
	// episodes.
	Retries int
	Pauses  int
	// Recoveries holds the wall time of each fault recovery
	// (detection → resumed training).
	Recoveries []time.Duration
	// IterationsExecuted counts every iteration the fleet ran,
	// including partial segments discarded by a rollback; StepsLost is
	// the discarded portion. Availability derives from the two.
	IterationsExecuted int
	StepsLost          int
	// FinalCadence is the adaptive checkpoint cadence at exit.
	FinalCadence int
	// Notices counts preempt notices received; CleanDrains the
	// notice-driven drains completed with zero lost steps (proactive
	// switchover or idle reclaim inside the window); NoticesMissed the
	// notices whose window could not absorb a checkpoint, so the
	// reclaim fell back to the Preempt path.
	Notices       int
	CleanDrains   int
	NoticesMissed int
	// NoticeMisses holds the typed error recorded for each missed
	// notice, in schedule order.
	NoticeMisses []*NoticeMissedError
	// Transitions is the full supervisor decision log.
	Transitions []Transition
}

// Availability is the fraction of executed iterations that counted
// toward training progress (1 = no work was ever discarded).
func (r *ChurnReport) Availability() float64 {
	if r.IterationsExecuted == 0 {
		return 1
	}
	return float64(len(r.Losses)) / float64(r.IterationsExecuted)
}

// RecoveryPercentile returns the q-quantile (0 ≤ q ≤ 1) of recovery
// wall times, or 0 when no recovery happened.
func (r *ChurnReport) RecoveryPercentile(q float64) time.Duration {
	if len(r.Recoveries) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.Recoveries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// fleet is the supervisor's composed view of fleet health, kept in
// healthy-cluster physical ranks so churn events compose naturally.
type fleet struct {
	healthy hardware.Cluster
	dead    map[int]bool
	slow    map[int]float64 // phys → FLOPS scale < 1
	linkBW  float64         // bandwidth scale; 0 or 1 = healthy fabric
}

func (f *fleet) total() int { return f.healthy.Nodes * f.healthy.DevicesPerNode }

func (f *fleet) alive() int { return f.total() - len(f.dead) }

// spec renders the composed fleet state as a FaultSpec (deterministic
// device order).
func (f *fleet) spec() hardware.FaultSpec {
	var s hardware.FaultSpec
	devs := make([]int, 0, len(f.dead)+len(f.slow))
	for d := range f.dead {
		devs = append(devs, d)
	}
	for d := range f.slow {
		if !f.dead[d] {
			devs = append(devs, d)
		}
	}
	sort.Ints(devs)
	for _, d := range devs {
		if f.dead[d] {
			s.Devices = append(s.Devices, hardware.DeviceFault{Device: d, Dead: true})
		} else {
			s.Devices = append(s.Devices, hardware.DeviceFault{Device: d, FLOPSScale: f.slow[d], MemScale: 1})
		}
	}
	if f.linkBW != 0 && f.linkBW != 1 {
		s.IntraBWScale = f.linkBW
		s.InterBWScale = f.linkBW
	}
	return s
}

// cluster derives the active cluster from the composed state. At least
// one device must be alive.
func (f *fleet) cluster() (hardware.Cluster, error) {
	s := f.spec()
	if len(s.Devices) == 0 && s.IntraBWScale == 0 && s.InterBWScale == 0 {
		return f.healthy, nil
	}
	return f.healthy.Degrade(s)
}

// logicalRank maps a physical device to its logical rank on c, or -1
// if it is dead there.
func logicalRank(c *hardware.Cluster, phys int) int {
	for l := 0; l < c.TotalDevices(); l++ {
		if c.PhysOf(l) == phys {
			return l
		}
	}
	return -1
}

// physMap captures a cluster's logical→physical mapping by value, so
// later mutations of the supervisor's active cluster cannot skew a
// checkpoint's rank accounting.
func physMap(c hardware.Cluster) func(int) int {
	return func(l int) int { return c.PhysOf(l) }
}

// runnableOn checks a candidate against both the config validator and
// the runtime's executability preflight. The candidate need not fill
// cl exactly: a shrunken plan validates against its own device count
// and merely has to fit within the survivors.
func runnableOn(g *model.Graph, cl *hardware.Cluster, c *config.Config, p *runtime.Params) bool {
	if c == nil || c.TotalDevices() > cl.TotalDevices() {
		return false
	}
	if c.Validate(g, c.TotalDevices()) != nil {
		return false
	}
	if c.MicroBatch <= 0 || g.GlobalBatch%c.MicroBatch != 0 {
		return false
	}
	return runtime.CheckRunnable(g, c, p) == nil
}

// backoffDelay is the capped exponential backoff with deterministic
// jitter: attempt n waits base·2^(n-1), capped, plus up to half of
// that again, derived from (seed, attempt) by a splitmix-style hash so
// retries are reproducible yet de-synchronized across seeds.
func backoffDelay(base, cap time.Duration, attempt int, seed int64) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	z := uint64(seed) + uint64(attempt)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	jitter := time.Duration(z % uint64(d/2+1))
	return d + jitter
}

// estIterTime estimates cur's iteration time on a cluster, or +Inf
// when the plan does not fit it (infeasible or oversubscribed) — the
// common currency of the hysteresis and ladder quality checks.
func estIterTime(g *model.Graph, cl *hardware.Cluster, c *config.Config, seed int64) float64 {
	if c == nil || c.TotalDevices() > cl.TotalDevices() {
		return math.Inf(1)
	}
	e := perfmodel.New(g, *cl, seed).Estimate(c)
	if e == nil || !e.Feasible || !(e.IterTime > 0) || math.IsInf(e.IterTime, 0) {
		return math.Inf(1)
	}
	return e.IterTime
}

// Supervise runs iters iterations of training under a churn schedule,
// recovering from every event per the configured policies. The input
// cluster must be healthy (Faults == nil): it is the reference frame
// the schedule's physical device ranks live in. On success the final
// trajectory matches an uninterrupted run of the same model to
// floating-point tolerance — every reconfiguration is
// semantics-preserving, so churn costs only wall time, never training
// fidelity.
func Supervise(ctx context.Context, g *model.Graph, cl hardware.Cluster, cfg *config.Config, p *runtime.Params, x, y *tensor.Mat, iters int, spec ChurnSpec, opt SuperviseOptions) (*ChurnReport, error) {
	if cl.Faults != nil {
		return nil, fmt.Errorf("elastic: Supervise needs a healthy cluster (degrade via the churn schedule)")
	}
	if err := spec.Validate(cl.TotalDevices()); err != nil {
		return nil, err
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 1
	}
	if opt.CommDeadline <= 0 {
		opt.CommDeadline = 30 * time.Second
	}
	if opt.SearchBudget <= 0 {
		opt.SearchBudget = 200 * time.Millisecond
	}
	if opt.ReplanThreshold <= 0 {
		opt.ReplanThreshold = 0.15
	}
	if opt.HysteresisEvents <= 0 {
		opt.HysteresisEvents = 3
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 2 * time.Millisecond
	}
	if opt.BackoffCap <= 0 {
		opt.BackoffCap = 50 * time.Millisecond
	}
	if opt.MaxRetries <= 0 {
		opt.MaxRetries = 3
	}
	if opt.MaxCadence <= 0 {
		opt.MaxCadence = 4
	}
	if opt.CheckpointCost < 0 {
		opt.CheckpointCost = 0
	}

	m := newMeters(opt.Metrics)
	rep := &ChurnReport{
		Params: p, Config: cfg,
		EventCounts: map[string]int{},
		Ladder:      map[string]int{},
	}
	emit := func(step int, kind TransitionKind, format string, args ...any) {
		tr := Transition{Step: step, Kind: kind, Detail: fmt.Sprintf(format, args...)}
		rep.Transitions = append(rep.Transitions, tr)
		m.transition(kind)
		if opt.OnTransition != nil {
			opt.OnTransition(tr)
		}
	}

	events := append([]ChurnEvent(nil), spec.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Iteration < events[j].Iteration })

	fl := &fleet{healthy: cl, dead: map[int]bool{}, slow: map[int]float64{}}
	active := cl
	cur, curP := cfg, p
	stepZero := p.Step
	done := 0
	ei := 0
	cadence := opt.CheckpointEvery
	if cadence > opt.MaxCadence {
		cadence = opt.MaxCadence
	}
	pendingDefer := 0
	retries := 0
	simLeft := opt.SimulateTimeouts
	lastFaultAt := -1
	emaGap := 0.0

	if opt.Dir != "" {
		if _, err := SweepTemps(opt.Dir); err != nil {
			return nil, err
		}
	}

	// The durable lineage: ckpt is the last durable state, ckptAt the
	// cluster it was taken on (for physical-rank move accounting).
	var ckpt *State
	ckptAt := active
	saveCkpt := func() error {
		st, err := ShardState(g, cur, curP)
		if err != nil {
			return err
		}
		if err := persist(opt.Dir, st); err != nil {
			return err
		}
		ckpt, ckptAt = st, active
		m.checkpoint()
		rep.Checkpoints++
		return nil
	}
	loadCkpt := func() (*State, error) {
		if opt.Dir != "" {
			st, err := Load(ckptPath(opt.Dir))
			if err != nil {
				return nil, err
			}
			ckpt = st
		}
		return ckpt, nil
	}
	if err := saveCkpt(); err != nil {
		return nil, err
	}

	inUse := func(phys int) bool {
		l := logicalRank(&active, phys)
		return l >= 0 && l < cur.TotalDevices()
	}
	// inPlanPreempt is the one definition of "this preempt event must
	// fire mid-iteration through the runtime": the device is alive and
	// the running plan actually spans it. The boundary-settle loop and
	// the segment scheduler both consult it, so the two sites cannot
	// drift.
	inPlanPreempt := func(ev *ChurnEvent) bool {
		return ev.Kind == Preempt && !fl.dead[ev.Device] && inUse(ev.Device)
	}

	// commit reshards the durable checkpoint onto next and makes it the
	// running plan.
	commit := func(next *config.Config, arch *runtime.Arch) error {
		st, err := loadCkpt()
		if err != nil {
			return err
		}
		resharded, err := Reshard(g, next, st)
		if err != nil {
			return err
		}
		bytes := BytesMoved(st, resharded, physMap(ckptAt), physMap(active))
		m.reshard(bytes)
		rep.Reshards++
		rep.ReshardBytesMoved += bytes
		newP, err := AssembleState(resharded)
		if err != nil {
			return err
		}
		newP.Arch = arch
		m.restore()
		cur, curP = next, newP
		rep.Config, rep.Params = cur, curP
		done = st.Step - stepZero
		return nil
	}

	// ladder walks the graceful-degradation rungs after capacity
	// changed: reuse the projection when its projected slowdown is
	// tolerable, otherwise pay for a warm replan, otherwise shrink to
	// the largest runnable subset. It reports false when no rung
	// produced a plan (the caller pauses).
	ladder := func(preT float64) (bool, error) {
		st, err := loadCkpt()
		if err != nil {
			return false, err
		}
		restored, err := AssembleState(st)
		if err != nil {
			return false, err
		}
		arch := curP.Arch
		restored.Arch = arch
		survivors := active.TotalDevices()

		var next *config.Config
		rung := ""
		if proj, perr := core.ProjectConfig(g, cur, survivors); perr == nil && runnableOn(g, &active, proj, restored) {
			next, rung = proj, "project"
		}
		escalate := next == nil
		if next != nil {
			projT := estIterTime(g, &active, next, opt.Seed)
			if !math.IsInf(preT, 1) && preT > 0 && (projT-preT)/preT >= opt.ReplanThreshold {
				escalate = true
			} else {
				// The projection is within tolerance of the pre-fault plan:
				// hysteresis just avoided a replan search.
				rep.ReplansAvoided++
				m.replanAvoided()
			}
		}
		if escalate {
			rep.Replans++
			m.replan()
			res, rerr := core.Replan(ctx, g, fl.healthy, fl.spec(), cur, core.Options{
				TimeBudget: opt.SearchBudget,
				Seed:       opt.Seed,
			})
			if rerr == nil {
				if cand := pickRunnable(g, active, res, restored); cand != nil &&
					(next == nil || estIterTime(g, &active, cand, opt.Seed) < estIterTime(g, &active, next, opt.Seed)) {
					next, rung = cand, "replan"
				}
			}
		}
		if next == nil {
			for n := survivors - 1; n >= 1; n-- {
				if proj, perr := core.ProjectConfig(g, cur, n); perr == nil && runnableOn(g, &active, proj, restored) {
					next, rung = proj, "shrink"
					break
				}
			}
		}
		if next == nil {
			return false, nil
		}
		if err := commit(next, arch); err != nil {
			return false, err
		}
		rep.Ladder[rung]++
		m.ladderCommit(rung)
		switch rung {
		case "project":
			emit(curP.Step, TransLadderProject, "projected plan onto %d survivors (search avoided)", survivors)
		case "replan":
			emit(curP.Step, TransLadderReplan, "warm replan onto %d survivors (%d stages)", survivors, cur.NumStages())
		case "shrink":
			emit(curP.Step, TransLadderShrink, "shrunk to %d of %d survivors", cur.TotalDevices(), survivors)
		}
		return true, nil
	}

	// activeStale marks that active could not follow the fleet (the
	// fleet went all-dead, which Degrade cannot represent); the next
	// event that restores capacity resyncs from the composed state.
	activeStale := false
	syncActive := func() error {
		if fl.alive() == 0 {
			activeStale = true
			return nil
		}
		next, err := fl.cluster()
		if err != nil {
			return err
		}
		active = next
		activeStale = false
		return nil
	}

	// applyEvent folds one schedule event into the fleet state at a
	// point where no segment is running. It does not decide policy.
	applyEvent := func(ev ChurnEvent) error {
		rep.EventsApplied++
		rep.EventCounts[ev.Kind.String()]++
		m.event(ev.Kind)
		switch ev.Kind {
		case Preempt:
			if fl.dead[ev.Device] {
				emit(curP.Step, TransEvent, "preempt device %d (already dead)", ev.Device)
				return nil
			}
			fl.dead[ev.Device] = true
			delete(fl.slow, ev.Device)
			emit(curP.Step, TransEvent, "preempt device %d (idle spare, %d alive)", ev.Device, fl.alive())
			// On alive()==0 syncActive only flags staleness — the caller's
			// pause rung takes over.
			return syncActive()
		case Readd:
			if !fl.dead[ev.Device] && fl.slow[ev.Device] == 0 {
				emit(curP.Step, TransEvent, "readd device %d (already healthy)", ev.Device)
				return nil
			}
			delete(fl.dead, ev.Device)
			delete(fl.slow, ev.Device)
			if !activeStale && active.Faults != nil {
				// The common path exercises the incremental inverse of
				// Degrade: re-expand logical ranks in place.
				next, err := active.Restore(ev.Device)
				if err != nil {
					return err
				}
				active = next
			} else if err := syncActive(); err != nil {
				return err
			}
			emit(curP.Step, TransEvent, "readd device %d (%d alive)", ev.Device, fl.alive())
			return nil
		case SlowNode:
			if fl.dead[ev.Device] {
				emit(curP.Step, TransEvent, "slow-node device %d ignored (dead)", ev.Device)
				return nil
			}
			if ev.Scale == 1 {
				if fl.slow[ev.Device] == 0 {
					emit(curP.Step, TransEvent, "slow-node device %d restored (was healthy)", ev.Device)
					return nil
				}
				delete(fl.slow, ev.Device)
				if !activeStale {
					next, err := active.Restore(ev.Device)
					if err != nil {
						return err
					}
					active = next
				} else if err := syncActive(); err != nil {
					return err
				}
				emit(curP.Step, TransEvent, "slow-node device %d restored to full speed", ev.Device)
				return nil
			}
			fl.slow[ev.Device] = ev.Scale
			if err := syncActive(); err != nil {
				return err
			}
			emit(curP.Step, TransEvent, "slow-node device %d derated to %.2f", ev.Device, ev.Scale)
			return nil
		case LinkDerate:
			if ev.Scale == 1 {
				fl.linkBW = 0
				if !activeStale {
					next, err := active.RestoreLinks()
					if err != nil {
						return err
					}
					active = next
				}
				emit(curP.Step, TransEvent, "links restored to full bandwidth")
				return nil
			}
			fl.linkBW = ev.Scale
			if err := syncActive(); err != nil {
				return err
			}
			emit(curP.Step, TransEvent, "links derated to %.2f bandwidth", ev.Scale)
			return nil
		case PreemptNotice:
			// Only reached from pauseAndWait: the main loop routes
			// notices through beginDrain instead. While paused no
			// segment is running and the state is durably checkpointed,
			// so there is nothing to drain — fold the reclaim directly.
			if fl.dead[ev.Device] {
				emit(curP.Step, TransEvent, "preempt-notice device %d (already dead)", ev.Device)
				return nil
			}
			fl.dead[ev.Device] = true
			delete(fl.slow, ev.Device)
			emit(curP.Step, TransEvent, "preempt-notice device %d folded as immediate preempt while paused (%d alive)", ev.Device, fl.alive())
			return syncActive()
		}
		return fmt.Errorf("elastic: unknown churn kind %d", uint8(ev.Kind))
	}

	// policy is the replan-hysteresis decision after a boundary event
	// changed the fleet: defer transient blips, replan when the
	// projected throughput loss (or idle capacity) crosses the
	// threshold or persists.
	policy := func(before hardware.Cluster) error {
		oldT := estIterTime(g, &before, cur, opt.Seed)
		newT := estIterTime(g, &active, cur, opt.Seed)
		lossFrac := 0.0
		switch {
		case math.IsInf(newT, 1):
			lossFrac = math.Inf(1) // current plan no longer fits: must act
		case !math.IsInf(oldT, 1) && oldT > 0:
			lossFrac = (newT - oldT) / oldT
		}
		gainFrac := 0.0
		if cur.TotalDevices() > 0 {
			gainFrac = float64(active.TotalDevices()-cur.TotalDevices()) / float64(cur.TotalDevices())
		}
		const eps = 1e-9
		if lossFrac < -eps {
			// Things got faster (a restore): degradation pressure is gone.
			pendingDefer = 0
		}
		trigger := lossFrac >= opt.ReplanThreshold || gainFrac >= opt.ReplanThreshold
		forced := ""
		if trigger {
			forced = fmt.Sprintf("projected loss %.1f%%, idle capacity %.1f%% over threshold %.0f%%",
				100*lossFrac, 100*gainFrac, 100*opt.ReplanThreshold)
		} else if lossFrac > eps || gainFrac > eps {
			pendingDefer++
			if pendingDefer >= opt.HysteresisEvents {
				trigger = true
				forced = fmt.Sprintf("degradation persisted across %d deferred events", pendingDefer)
			} else {
				rep.ReplansAvoided++
				m.replanAvoided()
				emit(curP.Step, TransReplanDeferred, "projected loss %.1f%%, idle capacity %.1f%% below threshold %.0f%% (%d/%d deferred)",
					100*lossFrac, 100*gainFrac, 100*opt.ReplanThreshold, pendingDefer, opt.HysteresisEvents)
			}
		}
		if !trigger {
			return nil
		}
		emit(curP.Step, TransReplanForced, "%s", forced)
		pendingDefer = 0
		// State is intact at a boundary: checkpoint it, search, reshard.
		if err := saveCkpt(); err != nil {
			return err
		}
		rep.Replans++
		m.replan()
		res, err := core.Replan(ctx, g, fl.healthy, fl.spec(), cur, core.Options{
			TimeBudget: opt.SearchBudget,
			Seed:       opt.Seed,
		})
		if err != nil {
			emit(curP.Step, TransReplanKept, "replan search failed (%v); keeping current plan", err)
			return nil
		}
		next := pickRunnable(g, active, res, curP)
		if next == nil || next.Hash() == cur.Hash() ||
			!(estIterTime(g, &active, next, opt.Seed) < newT) {
			emit(curP.Step, TransReplanKept, "replan found no better runnable plan; keeping current")
			return nil
		}
		arch := curP.Arch
		if err := commit(next, arch); err != nil {
			return err
		}
		if err := saveCkpt(); err != nil { // re-anchor the lineage on the new layout
			return err
		}
		emit(curP.Step, TransResume, "replanned onto %d devices, %d stages", cur.TotalDevices(), cur.NumStages())
		return nil
	}

	// Pending notice-driven drains. The state machine per notice:
	//
	//	notice at I (window W, deadline D = I+W)
	//	  ├─ W ≥ CheckpointCost: ARM — immediate out-of-cadence
	//	  │    checkpoint + pre-warmed Replan on the post-reclaim fleet
	//	  │    while the doomed device still serves; switchover fires at
	//	  │    the boundary switchIter = D − CheckpointCost, so the
	//	  │    final checkpoint completes inside the window → commit the
	//	  │    pre-warmed plan (ladder fallback) with ZERO lost steps.
	//	  └─ W < CheckpointCost: MISSED — record *NoticeMissedError and
	//	       schedule a plain Preempt at D: the reclaim fires through
	//	       the existing in-plan path (mid-segment fault, rollback,
	//	       cadence adaptation, ladder).
	//
	// A real preempt of a drained device before its switchover cancels
	// the drain (settleDrains drops dead devices).
	type pendingDrain struct {
		device     int
		switchIter int            // absolute iteration the switchover fires at
		deadline   int            // absolute iteration of the reclaim
		window     int            // iterations of advance warning
		plan       *config.Config // pre-warmed post-reclaim plan (nil: ladder fallback)
	}
	var drains []*pendingDrain

	// insertEvent splices a synthetic event into the sorted schedule
	// after every event at the same iteration (stable order).
	insertEvent := func(ev ChurnEvent) {
		at := len(events)
		for i := ei; i < len(events); i++ {
			if events[i].Iteration > ev.Iteration {
				at = i
				break
			}
		}
		events = append(events, ChurnEvent{})
		copy(events[at+1:], events[at:])
		events[at] = ev
	}

	// beginDrain consumes one PreemptNotice at a boundary.
	beginDrain := func(ev ChurnEvent) error {
		rep.EventsApplied++
		rep.EventCounts[ev.Kind.String()]++
		m.event(ev.Kind)
		if fl.dead[ev.Device] {
			emit(curP.Step, TransEvent, "preempt-notice device %d (already dead)", ev.Device)
			return nil
		}
		for _, d := range drains {
			if d.device == ev.Device {
				emit(curP.Step, TransEvent, "preempt-notice device %d (drain already armed for iteration %d)", ev.Device, d.switchIter)
				return nil
			}
		}
		rep.Notices++
		m.notice()
		deadline := ev.Iteration + ev.Notice
		if ev.Notice < opt.CheckpointCost {
			nm := &NoticeMissedError{Device: ev.Device, Window: ev.Notice, Cost: opt.CheckpointCost, Deadline: deadline}
			rep.NoticesMissed++
			m.noticeMissed()
			rep.NoticeMisses = append(rep.NoticeMisses, nm)
			emit(curP.Step, TransNoticeMissed, "%v", nm)
			insertEvent(ChurnEvent{Iteration: deadline, Kind: Preempt, Device: ev.Device})
			return nil
		}
		emit(curP.Step, TransNotice, "preempt notice for device %d: reclaim at iteration %d (%d-iteration window ≥ checkpoint cost %d); drain armed",
			ev.Device, deadline, ev.Notice, opt.CheckpointCost)
		// Immediate out-of-cadence checkpoint: even if the fleet churns
		// again before the switchover, rollback reaches at most the
		// notice, never past it.
		if err := saveCkpt(); err != nil {
			return err
		}
		// Pre-warm the replan on the post-reclaim fleet while the
		// doomed device still serves; the switchover commits it without
		// searching inside the window.
		var plan *config.Config
		if inUse(ev.Device) && fl.alive() > 1 {
			fl.dead[ev.Device] = true
			postSpec := fl.spec()
			delete(fl.dead, ev.Device)
			rep.Replans++
			m.replan()
			m.prewarm()
			if res, rerr := core.Replan(ctx, g, fl.healthy, postSpec, cur, core.Options{
				TimeBudget: opt.SearchBudget,
				Seed:       opt.Seed,
			}); rerr == nil {
				if post, derr := fl.healthy.Degrade(postSpec); derr == nil {
					plan = pickRunnable(g, post, res, curP)
				}
			}
		}
		drains = append(drains, &pendingDrain{
			device:     ev.Device,
			switchIter: deadline - opt.CheckpointCost,
			deadline:   deadline,
			window:     ev.Notice,
			plan:       plan,
		})
		return nil
	}

	// fireSwitch executes one armed drain at its switchover boundary.
	// The boundary checkpoint (saved after the last segment) plus the
	// final save here mean commit rolls forward from the current step:
	// zero lost steps by construction.
	fireSwitch := func(d *pendingDrain) error {
		if err := saveCkpt(); err != nil {
			return err
		}
		began := time.Now()
		wasInUse := inUse(d.device)
		preT := estIterTime(g, &active, cur, opt.Seed)
		fl.dead[d.device] = true
		delete(fl.slow, d.device)
		if err := syncActive(); err != nil {
			return err
		}
		if !wasInUse {
			rep.CleanDrains++
			m.cleanDrain()
			emit(curP.Step, TransDrain, "device %d drained at iteration %d (idle spare, %d alive)", d.device, done, fl.alive())
			return nil
		}
		if fl.alive() > 0 && d.plan != nil && runnableOn(g, &active, d.plan, curP) {
			arch := curP.Arch
			if err := commit(d.plan, arch); err != nil {
				return err
			}
			if err := saveCkpt(); err != nil { // re-anchor on the new layout
				return err
			}
			rep.CleanDrains++
			m.cleanDrain()
			rep.Ladder["drain"]++
			m.ladderCommit("drain")
			rep.Recoveries = append(rep.Recoveries, time.Since(began))
			m.recovered(time.Since(began))
			emit(curP.Step, TransDrain, "device %d drained at iteration %d: switched to pre-warmed plan (%d devices, %d stages), zero lost steps",
				d.device, done, cur.TotalDevices(), cur.NumStages())
			return nil
		}
		// The pre-warmed plan no longer fits (the fleet churned since
		// the notice) or never existed: recover down the ordinary
		// ladder. The deadline checkpoint keeps the drain lossless.
		recovered := false
		if fl.alive() > 0 {
			ok, lerr := ladder(preT)
			if lerr != nil {
				return lerr
			}
			recovered = ok
		}
		if recovered {
			rep.CleanDrains++
			m.cleanDrain()
			rep.Recoveries = append(rep.Recoveries, time.Since(began))
			m.recovered(time.Since(began))
			emit(curP.Step, TransDrain, "device %d drained at iteration %d via ladder, zero lost steps", d.device, done)
			return nil
		}
		emit(curP.Step, TransDrain, "device %d drained at iteration %d; no runnable plan on %d survivors — pausing", d.device, done, fl.alive())
		return nil // the main loop's runnability check pauses
	}

	// settleDrains cancels drains of devices that died by other means
	// and fires every drain whose switchover boundary has arrived.
	settleDrains := func() error {
		kept := drains[:0]
		for _, d := range drains {
			if fl.dead[d.device] {
				continue // an unnoticed preempt got there first
			}
			if done < d.switchIter {
				kept = append(kept, d)
				continue
			}
			if err := fireSwitch(d); err != nil {
				return err
			}
		}
		drains = kept
		return nil
	}

	// pauseAndWait consumes the remaining schedule while training is
	// impossible, resuming at the first point the ladder finds a plan.
	pauseAndWait := func() error {
		rep.Pauses++
		m.pause()
		emit(ckpt.Step, TransLadderPause, "paused: %d devices alive, no runnable plan; waiting for capacity", fl.alive())
		for ei < len(events) {
			ev := events[ei]
			ei++
			if err := applyEvent(ev); err != nil {
				return err
			}
			if fl.alive() == 0 || activeStale {
				// applyEvent could not produce a usable cluster (still
				// stale after an error path); keep consuming the schedule.
				if fl.alive() == 0 {
					continue
				}
				if err := syncActive(); err != nil {
					return err
				}
			}
			ok, err := ladder(math.Inf(1))
			if err != nil {
				return err
			}
			if ok {
				emit(curP.Step, TransResume, "capacity restored: resumed on %d devices", active.TotalDevices())
				return nil
			}
		}
		return &StalledError{Step: ckpt.Step, Alive: fl.alive()}
	}

	for done < iters {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		// Settle boundary events that are due. In-plan preemptions fire
		// through the runtime below instead.
		for ei < len(events) && events[ei].Iteration <= done {
			ev := events[ei]
			if inPlanPreempt(&ev) {
				break
			}
			ei++
			if ev.Kind == PreemptNotice {
				// Notices do not change the fleet; they arm a drain.
				if err := beginDrain(ev); err != nil {
					return rep, err
				}
				continue
			}
			before := active
			if err := applyEvent(ev); err != nil {
				return rep, err
			}
			if fl.alive() == 0 {
				break
			}
			if err := policy(before); err != nil {
				return rep, err
			}
		}
		if err := settleDrains(); err != nil {
			return rep, err
		}
		if fl.alive() == 0 || !runnableOn(g, &active, cur, curP) {
			began := time.Now()
			if err := pauseAndWait(); err != nil {
				return rep, err
			}
			rep.Recoveries = append(rep.Recoveries, time.Since(began))
			m.recovered(time.Since(began))
			continue
		}

		// Segment length: the adaptive cadence, clipped to the next
		// scheduled boundary event and the end of the run.
		seg := cadence
		if left := iters - done; left < seg {
			seg = left
		}
		// Clip to the next drain switchover so its boundary checkpoint
		// lands exactly CheckpointCost iterations before the deadline.
		for _, d := range drains {
			if s := d.switchIter - done; s > 0 && s < seg {
				seg = s
			}
		}
		var fp *runtime.FaultPlan
		var faultEv *ChurnEvent
		if ei < len(events) {
			ev := events[ei]
			d := ev.Iteration - done
			if inPlanPreempt(&ev) {
				if d < 0 {
					d = 0
				}
				if d < seg {
					fp = &runtime.FaultPlan{Rank: logicalRank(&active, ev.Device), Iteration: d}
					faultEv = &events[ei]
				}
			} else if d > 0 && d < seg {
				seg = d
			}
		}

		var losses []float64
		var err error
		if simLeft > 0 {
			simLeft--
			err = &comm.CollectiveTimeoutError{Op: "all-reduce", Rank: 0, Waited: opt.CommDeadline}
		} else {
			ro := runtime.RunOptions{CommDeadline: opt.CommDeadline, Fault: fp}
			losses, err = runtime.ParallelOpts(g, cur, curP, x, y, opt.LR, seg, ro)
		}
		if err == nil {
			if fp != nil {
				return rep, fmt.Errorf("elastic: planned preemption of device %d did not surface", faultEv.Device)
			}
			rep.Losses = append(rep.Losses, losses...)
			rep.Steps = append(rep.Steps, curP.Step)
			rep.IterationsExecuted += seg
			done += seg
			retries = 0
			if err := saveCkpt(); err != nil {
				return rep, err
			}
			continue
		}

		var lostErr *runtime.DeviceLostError
		var timeoutErr *comm.CollectiveTimeoutError
		switch {
		case errors.As(err, &lostErr):
			if faultEv == nil {
				// A device loss nothing scheduled: not ours to recover.
				return rep, err
			}
			// The scheduled in-plan preemption fired: consume the event,
			// fold it in, and recover down the ladder.
			ev := events[ei]
			ei++
			rep.EventsApplied++
			rep.EventCounts[ev.Kind.String()]++
			m.event(ev.Kind)
			rep.FaultsDetected++
			m.fault()
			wasted := lostErr.Iteration
			rep.IterationsExecuted += wasted
			rep.StepsLost += wasted
			m.lost(wasted)
			at := done + wasted
			emit(ckpt.Step, TransFault, "device %d (stage %d) lost mid-iteration %d; rolling back %d steps",
				ev.Device, lostErr.Stage, at, wasted)

			// Adapt the checkpoint cadence to the observed fault rate:
			// aim at half the expected inter-fault gap.
			gap := float64(at + 1)
			if lastFaultAt >= 0 {
				gap = float64(at - lastFaultAt)
				if gap < 1 {
					gap = 1
				}
			}
			lastFaultAt = at
			if emaGap == 0 {
				emaGap = gap
			} else {
				emaGap = 0.5*emaGap + 0.5*gap
			}
			newCad := int(math.Round(emaGap / 2))
			if newCad < 1 {
				newCad = 1
			}
			if newCad > opt.MaxCadence {
				newCad = opt.MaxCadence
			}
			if newCad != cadence {
				emit(ckpt.Step, TransCadence, "checkpoint cadence %d → %d (inter-fault EMA %.1f iters)", cadence, newCad, emaGap)
				cadence = newCad
			}

			began := time.Now()
			fl.dead[ev.Device] = true
			delete(fl.slow, ev.Device)
			preT := estIterTime(g, &active, cur, opt.Seed) // pre-fault reference
			if cerr := syncActive(); cerr != nil {
				return rep, cerr
			}
			recovered := false
			if fl.alive() > 0 {
				ok, lerr := ladder(preT)
				if lerr != nil {
					return rep, lerr
				}
				recovered = ok
			}
			if !recovered {
				if err := pauseAndWait(); err != nil {
					return rep, err
				}
			}
			rep.Recoveries = append(rep.Recoveries, time.Since(began))
			m.recovered(time.Since(began))
			retries = 0
			emit(curP.Step, TransResume, "resumed from step %d on %d devices", curP.Step, cur.TotalDevices())

		case errors.As(err, &timeoutErr):
			retries++
			rep.Retries++
			m.retry()
			if retries > opt.MaxRetries {
				return rep, fmt.Errorf("elastic: segment failed after %d timeout retries: %w", opt.MaxRetries, err)
			}
			delay := backoffDelay(opt.BackoffBase, opt.BackoffCap, retries, opt.Seed)
			emit(ckpt.Step, TransBackoffRetry, "timeout (%s); retry %d/%d after %v", timeoutErr.Op, retries, opt.MaxRetries, delay)
			if delay > 0 {
				time.Sleep(delay)
			}
			// A timed-out segment leaves torn state: restore the durable
			// checkpoint before retrying on the same plan.
			st, lerr := loadCkpt()
			if lerr != nil {
				return rep, lerr
			}
			restored, aerr := AssembleState(st)
			if aerr != nil {
				return rep, aerr
			}
			restored.Arch = curP.Arch
			m.restore()
			curP = restored
			rep.Params = curP
			done = st.Step - stepZero

		default:
			return rep, err
		}
	}

	rep.FinalStep = curP.Step
	rep.Params, rep.Config = curP, cur
	rep.FinalCadence = cadence
	return rep, nil
}
