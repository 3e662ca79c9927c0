package profiler

import (
	"runtime"
	"sync"
	"testing"

	"aceso/internal/collective"
	"aceso/internal/hardware"
	"aceso/internal/model"
)

// TestMemoLenMatchesContentsAfterConcurrentFill fills the operator
// database and the collective multipliers from GOMAXPROCS goroutines
// that all ask for the same keys in different orders. Afterwards Len
// must equal the number of entries ForEach visits, and both must equal
// the number of distinct keys. Small merge thresholds make snapshot
// publications race with the fill; make ci runs this under
// -race -count=20.
func TestMemoLenMatchesContentsAfterConcurrentFill(t *testing.T) {
	g := model.Uniform(24, 1e9, 1e6, 1e5, 64)
	p := New(hardware.DGX1V100(2), 1)
	p.db.Threshold = 8
	p.cmult.Threshold = 2
	tps := []int{1, 2, 4}
	const maxSamples, maxGroup = 4, 16
	places := []collective.Placement{collective.IntraNode, collective.InterNode}

	workers := max(runtime.GOMAXPROCS(0), 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range g.Ops {
				op := &g.Ops[(i+7*w)%len(g.Ops)]
				for _, tp := range tps {
					for n := 1; n <= maxSamples; n++ {
						p.OpTime(op, tp, 0, n, tp, w%2 == 0, g.Precision)
						p.OpTime(op, tp, 0, n, tp, w%2 != 0, g.Precision)
					}
				}
			}
			for i := 0; i < maxGroup; i++ {
				group := 1 + (i+3*w)%maxGroup
				for _, pl := range places {
					p.AllReduce(1e6, 0, group, pl)
					p.AllGather(1e6, 0, group, pl)
					p.P2P(1e6, 0, pl)
				}
			}
		}(w)
	}
	wg.Wait()

	dbVisited, dbKeys := 0, map[opMapKey]bool{}
	p.db.ForEach(func(k opMapKey, _ float64) { dbVisited++; dbKeys[k] = true })
	if want := len(g.Ops) * len(tps) * maxSamples * 2; p.db.Len() != dbVisited || dbVisited != len(dbKeys) || len(dbKeys) != want {
		t.Errorf("op db: Len %d, ForEach %d entries, %d distinct keys, want %d",
			p.db.Len(), dbVisited, len(dbKeys), want)
	}

	// Groups of one device cost nothing and are never memoized; p2p
	// shares one multiplier per placement.
	cmVisited, cmKeys := 0, map[collKey]bool{}
	p.cmult.ForEach(func(k collKey, _ float64) { cmVisited++; cmKeys[k] = true })
	if want := 2*(maxGroup-1)*len(places) + len(places); p.cmult.Len() != cmVisited || cmVisited != len(cmKeys) || len(cmKeys) != want {
		t.Errorf("collective multipliers: Len %d, ForEach %d entries, %d distinct keys, want %d",
			p.cmult.Len(), cmVisited, len(cmKeys), want)
	}
}
