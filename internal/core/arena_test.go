package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"aceso/internal/config"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/perfmodel"
)

// TestArenaAliasing pins the arena's liveness contract (see
// config.Arena): a config recycled through discard() must share no
// memory with any config the searcher retained. The test replays the
// searcher's own discipline — random primitive walks where unpicked
// candidates are either retained (as a pool/top-K insert would) or
// discarded — then scribbles over every byte of recycled memory, both
// directly and through CloneIn, and checks that every retained config
// is bitwise unchanged. A failure here means CloneIn handed out a
// backing array that a live config still references.
func TestArenaAliasing(t *testing.T) {
	g, err := model.GPT3("350M")
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.DGX1V100(1) // 8 devices
	pm := perfmodel.New(g, cl, 1)
	prims := append(append([]Primitive(nil), Table...), ExtensionTable...)

	type retained struct {
		cfg  *config.Config
		hash uint64
		snap *config.Config // strippedClone at retention time; Hash never called
	}

	walk := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &searcher{
			graph:    g,
			cluster:  cl,
			pm:       pm,
			opts:     Options{ExtendedPrimitives: true}.withDefaults(),
			deadline: time.Now().Add(time.Hour),
			visited:  make(map[uint64]bool),
			pool:     make(map[uint64]Candidate),
			cache:    make(map[uint64]*perfmodel.Estimate),
			arena:    &config.Arena{},
		}
		stages := 1 << rng.Intn(3) // 1, 2 or 4 pipeline stages
		mbs := 1 << rng.Intn(3)    // 1, 2 or 4
		cfg, err := config.Balanced(g, 8, stages, mbs)
		if err != nil {
			return true // not every (stages, mbs) combination is buildable
		}
		var kept []retained
		keep := func(c *config.Config) {
			kept = append(kept, retained{c, c.Hash(), strippedClone(c)})
		}
		cur := cfg
		valid := make([]*config.Config, 0, 8)
		for step := 0; step < 8; step++ {
			prim := &prims[rng.Intn(len(prims))]
			stage := rng.Intn(cur.NumStages())
			cands := prim.apply(s, cur, stage)
			// Copy the batch out: the apply buffer itself is recycled by
			// the next apply call (searcher.applyBufs).
			valid = valid[:0]
			for _, c := range cands {
				if c != nil && c.Validate(g, cl.TotalDevices()) == nil {
					valid = append(valid, c)
				}
			}
			if len(valid) == 0 {
				continue
			}
			pick := rng.Intn(len(valid))
			for i, c := range valid {
				if i == pick {
					continue
				}
				if rng.Intn(2) == 0 {
					keep(c) // as a pool or top-K insert would
				} else {
					s.discard(c)
				}
			}
			if cur != cfg {
				s.discard(cur) // superseded intermediate, nothing aliases it
			}
			cur = valid[pick]
		}
		keep(cur) // the walk's final config is the "best" — always live

		// Scribble phase 1: overwrite every reachable field of every
		// recycled config in place.
		dead := make([]*config.Config, 0, s.arena.Len())
		for {
			c := s.arena.Get()
			if c == nil {
				break
			}
			c.MicroBatch = -1
			for i := range c.Stages {
				st := &c.Stages[i]
				st.Start, st.End, st.Devices = -1, -1, -1
				for j := range st.Ops {
					st.Ops[j] = config.OpSetting{TP: -7, DP: -7, Dim: -7, Recompute: true, ZeRO: true, SeqPar: true}
				}
			}
			dead = append(dead, c)
		}
		// Scribble phase 2: recycle them again through the production
		// path — CloneIn must overwrite every field without touching
		// memory a retained config still references.
		for _, c := range dead {
			s.arena.Put(c)
		}
		for range dead {
			c := cur.CloneIn(s.arena)
			for i := range c.Stages {
				for j := range c.Stages[i].Ops {
					c.Stages[i].Ops[j] = config.OpSetting{TP: -13, DP: -13}
				}
			}
		}

		for i, r := range kept {
			got := strippedClone(r.cfg)
			if !reflect.DeepEqual(got, r.snap) {
				t.Errorf("seed %d: retained config %d mutated by arena recycling\nnow:  %s\nwas:  %s",
					seed, i, r.cfg, r.snap)
				return false
			}
			if h := got.Hash(); h != r.hash {
				t.Errorf("seed %d: retained config %d rebuilt hash %x != %x at retention",
					seed, i, h, r.hash)
				return false
			}
		}
		return true
	}
	if err := quick.Check(walk, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPruneInsertAllocs pins the zero-allocation steady state of the
// pool maintenance path: with pruneBuf hoisted into the searcher and
// poolEntries sorted through a pointer receiver, a prune (and the limbo
// flush that follows at the iteration boundary) allocates nothing, and
// insertTopK splices into its retained backing array.
func TestPruneInsertAllocs(t *testing.T) {
	s := &searcher{pool: make(map[uint64]Candidate, 2*poolCap)}
	fill := func() {
		for i := 0; i < poolCap+1; i++ {
			h := uint64(i)*2654435761 + 1
			s.pool[h] = Candidate{Score: float64(i), key: h}
		}
	}
	// Warm-up: grow pruneBuf, limbo and the map to steady-state capacity.
	fill()
	s.prunePool()
	s.flushLimbo()

	if got := testing.AllocsPerRun(10, func() {
		fill()
		s.prunePool()
		s.flushLimbo()
	}); got > 0 {
		t.Errorf("prunePool+flushLimbo: %.0f allocs/op in steady state, want 0", got)
	}

	const k = 5
	list := make([]Candidate, 0, k+1)
	n := 0
	if got := testing.AllocsPerRun(100, func() {
		// Each insert is a fresh key ranking first, so it takes the
		// splice path (append + copy) every time.
		n++
		list = insertTopK(list, Candidate{Score: -float64(n), key: uint64(n)}, k)
	}); got > 0 {
		t.Errorf("insertTopK: %.0f allocs/op in steady state, want 0", got)
	}
}
