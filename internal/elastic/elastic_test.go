package elastic

import (
	"context"
	"math"
	"testing"
	"time"

	"aceso/internal/hardware"
	"aceso/internal/obs"
	"aceso/internal/runtime"
)

const tol = 1e-9

// TestElasticTrainSurvivesFault is the single-fault acceptance test:
// train N iterations under a one-event schedule that kills a device at
// iteration k, so Supervise replans on the degraded cluster, reshards
// the last checkpoint and resumes to N — and the stitched loss
// trajectory plus the final parameters must match an uninterrupted run
// on the original config to float tolerance.
func TestElasticTrainSurvivesFault(t *testing.T) {
	g := buildMLP(t)
	cfgA := uniformCfg(t, g, 2, 2, 2, 1, 4) // pp2 × tp2 on 4 devices
	cl := hardware.DGX1V100(1).Restrict(4)
	x, y := trainData(42)
	const iters = 6

	base := runtime.InitParams(g, 7)
	base.Opt = runtime.Adam

	ref := base.Clone()
	refLosses, err := runtime.Parallel(g, cfgA, ref, x, y, lr, iters)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	spec := ChurnSpec{Events: []ChurnEvent{{Iteration: 3, Kind: Preempt, Device: 2}}}
	rep, err := Supervise(context.Background(), g, cl, cfgA, base.Clone(), x, y, iters, spec,
		SuperviseOptions{Options: Options{
			LR:              lr,
			CheckpointEvery: 2,
			Dir:             t.TempDir(), // exercise the file round trip
			CommDeadline:    10 * time.Second,
			SearchBudget:    300 * time.Millisecond,
			Metrics:         reg,
		}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsDetected != 1 || rep.Reshards != 1 {
		t.Fatalf("faults %d, reshards %d; want 1, 1", rep.FaultsDetected, rep.Reshards)
	}
	if rep.Config == cfgA {
		t.Error("no replanned config: still training on the original plan")
	}
	if rep.Config.TotalDevices() >= 4 {
		t.Errorf("replanned config uses %d devices, want < 4 after losing one", rep.Config.TotalDevices())
	}
	if len(rep.Losses) != iters || rep.FinalStep != iters {
		t.Fatalf("losses %d, final step %d; want %d iterations", len(rep.Losses), rep.FinalStep, iters)
	}
	for i := 1; i < len(rep.Steps); i++ {
		if rep.Steps[i] <= rep.Steps[i-1] {
			t.Fatalf("step counter not monotone: %v", rep.Steps)
		}
	}
	for i := range refLosses {
		if math.Abs(refLosses[i]-rep.Losses[i]) > tol {
			t.Errorf("iter %d: uninterrupted %.12f vs elastic %.12f", i, refLosses[i], rep.Losses[i])
		}
	}
	if d := ref.MaxDiff(rep.Params); d > tol {
		t.Errorf("final state differs by %g from uninterrupted run", d)
	}
	if rep.ReshardBytesMoved <= 0 {
		t.Errorf("reshard moved %d bytes, want > 0 (plan changed)", rep.ReshardBytesMoved)
	}
	if len(rep.Recoveries) != 1 || rep.Recoveries[0] <= 0 {
		t.Errorf("recoveries %v, want one positive duration", rep.Recoveries)
	}

	// Metrics flowed through the registry.
	if got := reg.Counter(obs.ChurnFaultsTotal).Value(); got != int64(rep.FaultsDetected) {
		t.Errorf("%s = %d, want FaultsDetected = %d", obs.ChurnFaultsTotal, got, rep.FaultsDetected)
	}
	for _, name := range []string{
		obs.ElasticCheckpointsTotal, obs.ElasticRestoresTotal,
		obs.ElasticReshardsTotal, obs.ElasticReshardBytesMovedTotal,
	} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("metric %s = 0, want > 0", name)
		}
	}
	if reg.Timer(obs.ChurnRecovery).Count() != 1 {
		t.Errorf("recovery timer has %d observations, want 1", reg.Timer(obs.ChurnRecovery).Count())
	}
}
