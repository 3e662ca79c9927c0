package chaos

import (
	"math/rand"
	"testing"

	"aceso/internal/elastic"
)

// TestRunSpotClean is the spot chaos gate of go test: a batch of randomized
// Poisson-hazard preemption streams — noticed and unnoticed reclaims
// through elastic.Supervise's drain machinery — must complete with zero
// invariant violations.
func TestRunSpotClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spot chaos trials are not short")
	}
	rep := RunSpot(Options{Trials: 12, Seed: 20260808})
	t.Log(rep.Summary())
	if rep.Failed() {
		t.Fatalf("spot chaos violations:\n%s", rep.Summary())
	}
	if rep.Trials != 12 {
		t.Fatalf("ran %d trials, want 12", rep.Trials)
	}
	if rep.Plans == 0 {
		t.Fatal("no trial survived a full spot stream")
	}
}

// TestRandomSpotSpecAlwaysValid: every generated stream passes the
// supervisor's validator — adversarial in content, never in form.
func TestRandomSpotSpecAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		devices := 1 + rng.Intn(8)
		spec := RandomSpotSpec(rng, devices, 2+rng.Intn(8), 0.3, 0.5, 3)
		if err := spec.Validate(devices); err != nil {
			t.Fatalf("generated spec invalid (iteration %d, devices %d): %v", i, devices, err)
		}
	}
}

// TestRandomSpotSpecMixesNotices: over many draws the generator covers
// both noticed and unnoticed reclaims, and notices carry windows.
func TestRandomSpotSpecMixesNotices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[elastic.ChurnKind]bool{}
	windowed := false
	for i := 0; i < 200; i++ {
		spec := RandomSpotSpec(rng, 8, 8, 0.2, 0.5, 3)
		for _, ev := range spec.Events {
			seen[ev.Kind] = true
			if ev.Kind == elastic.PreemptNotice && ev.Notice > 0 {
				windowed = true
			}
		}
	}
	for _, k := range []elastic.ChurnKind{elastic.Preempt, elastic.PreemptNotice, elastic.Readd} {
		if !seen[k] {
			t.Errorf("kind %v never generated", k)
		}
	}
	if !windowed {
		t.Error("no notice ever carried a positive window")
	}
}

// TestReplaySpotTrialDeterministic: the same (trial, seed) replays to
// the same verdict — the property that makes violations debuggable.
func TestReplaySpotTrialDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 77, 9001} {
		a := ReplaySpotTrial(0, seed, &Report{})
		b := ReplaySpotTrial(0, seed, &Report{})
		if (a == nil) != (b == nil) {
			t.Fatalf("seed %d: verdicts differ between replays (%v vs %v)", seed, a, b)
		}
	}
}
