package chaos

import (
	"math/rand"
	"testing"
	"time"

	"aceso/internal/elastic"
)

// TestRunChurnClean is the churn chaos gate of go test: a batch of randomized
// continuous-churn trials — streams of preemptions, re-additions and
// derates through elastic.Supervise — must complete with zero
// invariant violations.
func TestRunChurnClean(t *testing.T) {
	if testing.Short() {
		t.Skip("churn chaos trials are not short")
	}
	rep := RunChurn(Options{Trials: 12, Seed: 20260808})
	t.Log(rep.Summary())
	if rep.Failed() {
		t.Fatalf("churn chaos violations:\n%s", rep.Summary())
	}
	if rep.Trials != 12 {
		t.Fatalf("ran %d trials, want 12", rep.Trials)
	}
	if rep.Plans == 0 {
		t.Fatal("no trial survived a full churn schedule")
	}
}

// TestRunChurnDurationBound: a duration-bounded run stops on time.
func TestRunChurnDurationBound(t *testing.T) {
	start := time.Now()
	rep := RunChurn(Options{Trials: 0, Duration: 2 * time.Second, Seed: 1})
	if rep.Trials == 0 {
		t.Fatal("no trials ran inside the duration bound")
	}
	if time.Since(start) > 90*time.Second {
		t.Fatalf("duration-bounded run overran: %v", time.Since(start))
	}
}

// TestRandomChurnSpecAlwaysValid: every generated schedule passes the
// supervisor's validator — the generator may be adversarial in content
// but never in form.
func TestRandomChurnSpecAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		devices := 1 + rng.Intn(8)
		spec := RandomChurnSpec(rng, devices, 2+rng.Intn(8), rng.Intn(12))
		if err := spec.Validate(devices); err != nil {
			t.Fatalf("generated spec invalid (iteration %d, devices %d): %v", i, devices, err)
		}
	}
}

// TestRandomChurnSpecMixesKinds: over many draws the generator covers
// all four event kinds.
func TestRandomChurnSpecMixesKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[elastic.ChurnKind]bool{}
	for i := 0; i < 200; i++ {
		spec := RandomChurnSpec(rng, 8, 8, 8)
		for _, ev := range spec.Events {
			seen[ev.Kind] = true
		}
	}
	for _, k := range []elastic.ChurnKind{elastic.Preempt, elastic.Readd, elastic.SlowNode, elastic.LinkDerate} {
		if !seen[k] {
			t.Errorf("kind %v never generated", k)
		}
	}
}

// TestReplayChurnTrialDeterministic: the same (trial, seed) replays to
// the same verdict — the property that makes violations debuggable.
func TestReplayChurnTrialDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 77, 9001} {
		a := ReplayChurnTrial(0, seed, &Report{})
		b := ReplayChurnTrial(0, seed, &Report{})
		if (a == nil) != (b == nil) {
			t.Fatalf("seed %d: verdicts differ between replays (%v vs %v)", seed, a, b)
		}
	}
}
