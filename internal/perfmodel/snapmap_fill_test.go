package perfmodel

import (
	"runtime"
	"sync"
	"testing"

	"aceso/internal/config"
	"aceso/internal/model"
)

// TestStageCacheLenMatchesContentsAfterConcurrentFill estimates the
// same configurations from GOMAXPROCS goroutines, each in a different
// order, so workers race to memoize identical stages. Afterwards the
// stage cache's Len must equal the number of entries ForEach visits and
// the distinct keys among them, and match a sequential fill. A small
// merge threshold makes snapshot publications race with the fill;
// make ci runs this under -race -count=20.
func TestStageCacheLenMatchesContentsAfterConcurrentFill(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 64)
	var cfgs []*config.Config
	for _, stages := range []int{1, 2, 4, 8} {
		for _, mbs := range []int{1, 2, 4} {
			cfgs = append(cfgs, balanced(t, g, 8, stages, mbs))
		}
	}

	serial := newModel(t, g, 8)
	for _, c := range cfgs {
		serial.Estimate(c.Clone())
	}

	m := newModel(t, g, 8)
	m.scache.Threshold = 4
	workers := max(runtime.GOMAXPROCS(0), 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Configs memoize their hashes, so every worker estimates its
		// own clones.
		mine := make([]*config.Config, len(cfgs))
		for i := range cfgs {
			mine[i] = cfgs[(i+5*w)%len(cfgs)].Clone()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range mine {
				m.Estimate(c)
			}
		}()
	}
	wg.Wait()

	visited, keys := 0, map[stageKey]bool{}
	m.scache.ForEach(func(k stageKey, _ StageMetrics) { visited++; keys[k] = true })
	if n := m.StageCacheEntries(); n != visited || visited != len(keys) || n != serial.StageCacheEntries() {
		t.Errorf("stage cache: Len %d, ForEach %d entries, %d distinct keys; sequential fill %d",
			n, visited, len(keys), serial.StageCacheEntries())
	}
}
