package main

// The "spot" target is the spot-capacity case study: risk-aware planning against a mixed reserved/spot fleet, a
// deterministic replayed preemption trace driven twice through the
// churn supervisor — once risk-aware (notices honored, Young–Daly
// cadence), once risk-blind (same reclaim instants, no notices, sparse
// checkpoints) — and the randomized spot chaos pass. It writes
// BENCH_spot.json and fails unless the risk-aware run achieves
// at least spotSpeedupGate× the risk-blind run's *achieved* throughput
// (steps per unit of wall work, counting re-executed iterations,
// checkpoint overhead and recovery stalls — not the nominal iteration
// time).

import (
	"context"
	"fmt"
	"os"
	"time"

	"aceso/internal/chaos"
	"aceso/internal/core"
	"aceso/internal/elastic"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/perfmodel"
	art "aceso/internal/runtime"
)

// spotSpeedupGate is the acceptance floor on achieved-throughput
// speedup of the risk-aware replay over the risk-blind one.
const spotSpeedupGate = 1.2

// Wall-work pricing for the replay comparison, in units of one
// iteration's time. Checkpoints cost a fraction of an iteration; a
// reactive fault recovery pays detection + checkpoint restore + an
// unwarmed replan on the critical path; a notice-driven clean drain
// pays only the pre-warmed switchover (the search ran while the doomed
// device was still serving).
const (
	spotCkptCost    = 0.1
	spotFaultCost   = 2.0
	spotDrainCost   = 0.5
	spotNoticeIters = 2 // advance warning, in iterations
)

// spotReplayStats is one supervised replay's achieved-throughput ledger.
type spotReplayStats struct {
	StepsDone          int     `json:"steps_done"`
	IterationsExecuted int     `json:"iterations_executed"`
	StepsLost          int     `json:"steps_lost"`
	Checkpoints        int     `json:"checkpoints"`
	FaultsDetected     int     `json:"faults_detected"`
	Notices            int     `json:"notices"`
	CleanDrains        int     `json:"clean_drains"`
	NoticesMissed      int     `json:"notices_missed"`
	Replans            int     `json:"replans"`
	CheckpointCadence  int     `json:"checkpoint_cadence"`
	WallIters          float64 `json:"wall_iters"`
	AchievedThroughput float64 `json:"achieved_throughput"`
}

// spotBenchFile is the BENCH_spot.json schema.
type spotBenchFile struct {
	Setting string `json:"setting"`
	Seed    int64  `json:"seed"`

	// Planner slice: search on the mixed reserved/spot fleet vs the
	// same search on the hazard-stripped twin, re-priced under risk.
	AwareNominalIterTime  float64 `json:"aware_nominal_iter_time"`
	AwareExpectedIterTime float64 `json:"aware_expected_iter_time"`
	AwareExplored         int     `json:"aware_explored"`
	RecommendedCadence    int     `json:"recommended_cadence"`
	BlindNominalIterTime  float64 `json:"blind_nominal_iter_time"`
	BlindExpectedIterTime float64 `json:"blind_expected_iter_time"`
	BlindExplored         int     `json:"blind_explored"`
	ExpectedSpeedup       float64 `json:"expected_speedup"`

	// Replay slice: one preemption trace, two supervisors.
	ReplayIterations int             `json:"replay_iterations"`
	ReplayReclaims   int             `json:"replay_reclaims"`
	Aware            spotReplayStats `json:"aware"`
	Blind            spotReplayStats `json:"blind"`
	AchievedSpeedup  float64         `json:"achieved_speedup"`
	SpeedupGate      float64         `json:"speedup_gate"`

	ChaosTrials       int      `json:"chaos_trials"`
	ChaosSurvivedRuns int      `json:"chaos_survived_runs"`
	ChaosTypedErrs    int      `json:"chaos_typed_errors"`
	ChaosViolations   []string `json:"chaos_violations,omitempty"`

	Metrics *obs.Registry `json:"metrics"`
}

// spotReclaim is one scripted spot reclaim: the device is taken at
// iteration At and (optionally) handed back at ReaddAt.
type spotReclaim struct {
	At      int
	Device  int
	ReaddAt int // 0: never returns
}

// spotTrace is the deterministic replay schedule: reclaims placed
// mid-segment relative to the risk-blind checkpoint cadence, so the
// blind run pays real rollback work while the aware run's notices
// cover every reclaim.
var spotTrace = []spotReclaim{
	{At: 7, Device: 6, ReaddAt: 10},
	{At: 13, Device: 7, ReaddAt: 16},
	{At: 19, Device: 2, ReaddAt: 22},
	{At: 25, Device: 5, ReaddAt: 28},
	{At: 30, Device: 1},
}

// spotEvents renders the trace as a churn schedule. Aware runs get the
// advance notice spotNoticeIters before each reclaim; blind runs get
// the bare preempt at the same reclaim instant.
func spotEvents(aware bool) elastic.ChurnSpec {
	var spec elastic.ChurnSpec
	for _, r := range spotTrace {
		if aware {
			spec.Events = append(spec.Events, elastic.ChurnEvent{
				Iteration: r.At - spotNoticeIters,
				Kind:      elastic.PreemptNotice,
				Device:    r.Device,
				Notice:    spotNoticeIters,
			})
		} else {
			spec.Events = append(spec.Events, elastic.ChurnEvent{
				Iteration: r.At,
				Kind:      elastic.Preempt,
				Device:    r.Device,
			})
		}
		if r.ReaddAt > 0 {
			spec.Events = append(spec.Events, elastic.ChurnEvent{
				Iteration: r.ReaddAt,
				Kind:      elastic.Readd,
				Device:    r.Device,
			})
		}
	}
	return spec
}

// spotStats prices one supervised run's achieved throughput.
func spotStats(rep *elastic.ChurnReport, cadence, iters int) spotReplayStats {
	wall := float64(rep.IterationsExecuted) +
		spotCkptCost*float64(rep.Checkpoints) +
		spotFaultCost*float64(rep.FaultsDetected) +
		spotDrainCost*float64(rep.CleanDrains)
	return spotReplayStats{
		StepsDone:          rep.FinalStep,
		IterationsExecuted: rep.IterationsExecuted,
		StepsLost:          rep.StepsLost,
		Checkpoints:        rep.Checkpoints,
		FaultsDetected:     rep.FaultsDetected,
		Notices:            rep.Notices,
		CleanDrains:        rep.CleanDrains,
		NoticesMissed:      rep.NoticesMissed,
		Replans:            rep.Replans,
		CheckpointCadence:  cadence,
		WallIters:          wall,
		AchievedThroughput: float64(iters) / wall,
	}
}

// runSpotBench runs the spot case study, writes BENCH_spot.json and
// returns its failed gates.
func runSpotBench(e *env) error {
	seed := e.set.Seed
	fmt.Fprintf(e.w, "running spot-capacity benchmark (+%d chaos trials, seed %d)...\n", spotTrials, seed)
	// --- Planner slice -------------------------------------------------
	// GPT-3 350M on 8 reserved + 8 spot V100s, spot reclaimed 6×/hour.
	gSearch, err := model.GPT3("350M")
	if err != nil {
		return err
	}
	spotCl := hardware.ReservedSpotV100(8, 1, 1, 6, 120)
	opts := core.Options{
		TimeBudget:    time.Hour, // iterations are the binding limit
		MaxIterations: 4,
		StageCounts:   []int{2, 4},
		Seed:          seed,
	}
	aware, err := core.Search(gSearch, spotCl, opts)
	if err != nil {
		return err
	}
	if !aware.Best.Estimate.Feasible {
		return fmt.Errorf("risk-aware search found no feasible plan")
	}
	awareExpected, _ := core.RiskAssess(&spotCl, aware.Best.Config, aware.Best.Estimate.IterTime, opts)

	// Risk-blind: identical fleet with the hazard stripped, then every
	// candidate re-priced under the true hazard.
	blindCl := spotCl.StripHazard()
	blindRes, err := core.Search(gSearch, blindCl, opts)
	if err != nil {
		return err
	}
	blindNominal, blindExpected := 0.0, 0.0
	for _, cand := range append([]core.Candidate{blindRes.Best}, blindRes.TopK...) {
		if cand.Config == nil || cand.Estimate == nil || !cand.Estimate.Feasible {
			continue
		}
		exp, _ := core.RiskAssess(&spotCl, cand.Config, cand.Estimate.IterTime, opts)
		if blindExpected == 0 || exp < blindExpected {
			blindNominal, blindExpected = cand.Estimate.IterTime, exp
		}
	}
	if blindExpected == 0 {
		return fmt.Errorf("no risk-blind plan is feasible; the comparison is vacuous")
	}

	var gs gates
	gs.check(aware.RecommendedCadence > 0, "no recommended cadence on a hazardous fleet")
	gs.check(awareExpected <= blindExpected*(1+1e-9), "risk-aware expected %.6fs worse than re-priced risk-blind %.6fs",
		awareExpected, blindExpected)
	fmt.Fprintf(e.w, "spot: planner: aware %.4fs nominal / %.4fs expected (cadence %d, explored %d); blind %.4fs nominal / %.4fs expected (explored %d)\n",
		aware.Best.Estimate.IterTime, awareExpected, aware.RecommendedCadence, aware.Explored,
		blindNominal, blindExpected, blindRes.Explored)

	// --- Replay slice --------------------------------------------------
	// The churn bench's emulated MLP fleet: 8 emulated V100s, 2 nodes.
	const (
		iters        = 32
		lr           = 0.05
		blindCadence = 8
	)
	f, err := emulatedFleet(seed)
	if err != nil {
		return err
	}

	// The aware cadence is the Young–Daly recommendation for the
	// trace's empirical hazard, in iteration units (iterTime = 1).
	lamPerIter := float64(len(spotTrace)) / iters
	awareCadence := perfmodel.RecommendedCadence(lamPerIter, 1, spotCkptCost, blindCadence)

	reg := obs.NewRegistry()
	run := func(aware bool) (*elastic.ChurnReport, error) {
		dir, err := os.MkdirTemp("", "aceso-spot-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		p := art.InitParams(f.g, seed)
		p.Opt = art.Adam
		sopt := elastic.SuperviseOptions{
			Options: elastic.Options{
				LR:              lr,
				CheckpointEvery: blindCadence,
				Dir:             dir,
				SearchBudget:    300 * time.Millisecond,
				Seed:            seed,
			},
			BackoffBase: 100 * time.Microsecond,
			BackoffCap:  2 * time.Millisecond,
			MaxCadence:  blindCadence,
		}
		if aware {
			sopt.CheckpointEvery = awareCadence
			sopt.CheckpointCost = 1
			sopt.Metrics = reg
		}
		return elastic.Supervise(context.Background(), f.g, f.cl, f.cfg, p, f.x, f.y, iters,
			spotEvents(aware), sopt)
	}

	awareRep, err := run(true)
	if err != nil {
		return fmt.Errorf("aware replay: %w", err)
	}
	blindRep, err := run(false)
	if err != nil {
		return fmt.Errorf("blind replay: %w", err)
	}

	awareStats := spotStats(awareRep, awareCadence, iters)
	blindStats := spotStats(blindRep, blindCadence, iters)
	speedup := awareStats.AchievedThroughput / blindStats.AchievedThroughput

	gs.check(awareRep.FinalStep == iters && blindRep.FinalStep == iters, "replay incomplete: aware %d, blind %d, want %d",
		awareRep.FinalStep, blindRep.FinalStep, iters)
	gs.check(awareRep.StepsLost == 0, "aware replay lost %d steps; covered notices must drain losslessly",
		awareRep.StepsLost)
	gs.check(awareRep.CleanDrains == len(spotTrace) && awareRep.NoticesMissed == 0, "aware replay drains %d/%d clean (%d missed)",
		awareRep.CleanDrains, len(spotTrace), awareRep.NoticesMissed)
	gs.check(blindRep.StepsLost > 0, "blind replay lost no steps; the trace exercises nothing")
	gs.check(speedup >= spotSpeedupGate, "achieved speedup %.3fx < gate %.1fx", speedup, spotSpeedupGate)
	fmt.Fprintf(e.w, "spot: replay: aware %.4f steps/iter-time (lost %d, %d clean drains, cadence %d) vs blind %.4f (lost %d, %d faults, cadence %d): %.3fx achieved speedup (gate %.1fx)\n",
		awareStats.AchievedThroughput, awareRep.StepsLost, awareRep.CleanDrains, awareCadence,
		blindStats.AchievedThroughput, blindRep.StepsLost, blindRep.FaultsDetected, blindCadence,
		speedup, spotSpeedupGate)

	// --- Chaos slice ---------------------------------------------------
	crep := chaos.RunSpot(chaos.Options{
		Trials: spotTrials,
		Seed:   seed,
		Log: func(format string, args ...any) {
			fmt.Fprintf(e.w, format+"\n", args...)
		},
	})
	fmt.Fprint(e.w, crep.Summary())
	gs.check(len(crep.Violations) == 0, "%d spot chaos violations", len(crep.Violations))

	out := spotBenchFile{
		Setting: fmt.Sprintf("planner: GPT-3 350M on 8 reserved + 8 spot V100s (6 reclaims/hour, 120s notice); replay: MLP(6 layers, dim 16, batch 32) on 8 emulated V100s, %d-reclaim trace over %d iterations, seed %d",
			len(spotTrace), iters, seed),
		Seed:                  seed,
		AwareNominalIterTime:  aware.Best.Estimate.IterTime,
		AwareExpectedIterTime: awareExpected,
		AwareExplored:         aware.Explored,
		RecommendedCadence:    aware.RecommendedCadence,
		BlindNominalIterTime:  blindNominal,
		BlindExpectedIterTime: blindExpected,
		BlindExplored:         blindRes.Explored,
		ExpectedSpeedup:       blindExpected / awareExpected,
		ReplayIterations:      iters,
		ReplayReclaims:        len(spotTrace),
		Aware:                 awareStats,
		Blind:                 blindStats,
		AchievedSpeedup:       speedup,
		SpeedupGate:           spotSpeedupGate,
		ChaosTrials:           crep.Trials,
		ChaosSurvivedRuns:     crep.Plans,
		ChaosTypedErrs:        crep.TypedErrs,
		ChaosViolations:       chaosViolations(crep),
		Metrics:               reg,
	}
	path := e.path("BENCH_spot.json")
	if err := writeJSON(path, out); err != nil {
		return err
	}
	fmt.Fprintf(e.w, "spot: report → %s\n", path)
	return gs.err()
}
