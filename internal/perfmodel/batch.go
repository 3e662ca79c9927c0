package perfmodel

import "aceso/internal/config"

// Batch evaluates many candidate configurations against one shared
// base configuration in a single pass each: the per-stage cache keys
// of the base are computed once (BeginBatch), and a candidate's stages
// whose keys match the base's are copied from the base estimate
// instead of re-derived through the stage cache's map-and-lock path.
//
// This is the "batched stage estimation" of DESIGN.md §5g: the
// multi-hop search evaluates all candidate primitives of one
// bottleneck against the same base configuration, and a primitive
// mutates only one or two stages — so almost every stage of every
// candidate is a memcpy of base metrics plus shared profiler lookups
// already folded into them.
//
// Bitwise equivalence: StageMetrics is a pure function of the stage
// key (the profiler is deterministic), so copying the base's metrics
// for an equal key yields exactly the bytes Model.Estimate would have
// produced — including CapMem, which is a function of (firstDev,
// Devices), both pinned by the key. The aggregation and Eq. 2
// composition below mirror Model.Estimate statement for statement.
//
// A Batch is single-goroutine state owned by one searcher; the
// underlying Model remains shared and thread-safe.
type Batch struct {
	m     *Model
	base  *Estimate
	arena *EstArena
	mbs   int
	keys  []stageKey

	// copied/evaluated count per-stage outcomes across the batch's
	// lifetime (copied from base vs routed through stageMetrics).
	copied, evaluated uint64
}

// BeginBatch (re)initializes b to evaluate candidates against the
// base configuration cfg and its estimate est (which must be
// m.Estimate(cfg)'s result). Results are carved out of arena (nil
// degrades to plain allocation). The key slice is reused across
// re-initializations, so a searcher can keep one Batch per recursion
// depth with no per-node allocation.
func (m *Model) BeginBatch(b *Batch, cfg *config.Config, est *Estimate, arena *EstArena) {
	b.m = m
	b.base = est
	b.arena = arena
	b.mbs = cfg.MicroBatch
	p := cfg.NumStages()
	if cap(b.keys) >= p {
		b.keys = b.keys[:p]
	} else {
		b.keys = make([]stageKey, p)
	}
	n := est.Microbatches
	firstDev := 0
	for si := range cfg.Stages {
		st := &cfg.Stages[si]
		inflight := p - si
		if inflight > n {
			inflight = n
		}
		prevDevices := 0
		if si > 0 {
			prevDevices = cfg.Stages[si-1].Devices
		}
		b.keys[si] = stageKey{st.Key(), cfg.MicroBatch, firstDev, inflight, prevDevices}
		firstDev += st.Devices
	}
}

// Stats returns how many candidate stages were copied from the base
// estimate vs evaluated through the stage cache.
func (b *Batch) Stats() (copied, evaluated uint64) { return b.copied, b.evaluated }

// Estimate predicts cfg, reusing the base estimate's per-stage metrics
// wherever cfg's stage keys equal the base's. Candidates with a
// different pipeline depth or microbatch size — or a model running in
// DisableStageCache reference mode — fall back to the full path; the
// result is identical either way.
func (b *Batch) Estimate(cfg *config.Config) *Estimate {
	m := b.m
	if b.base == nil || m.DisableStageCache || cfg.NumStages() != len(b.keys) || cfg.MicroBatch != b.mbs {
		return m.EstimateIn(cfg, b.arena)
	}
	g := m.Graph
	p := cfg.NumStages()
	n := cfg.NumMicrobatches(g.GlobalBatch)

	est := b.arena.alloc(p)
	est.OOMStage = -1
	est.Feasible = true
	est.Microbatches = n
	if n <= 0 {
		est.Feasible = false
	}
	firstDev := 0
	for si := range cfg.Stages {
		st := &cfg.Stages[si]
		inflight := p - si
		if inflight > n {
			inflight = n
		}
		prevDevices := 0
		if si > 0 {
			prevDevices = cfg.Stages[si-1].Devices
		}
		key := stageKey{st.Key(), cfg.MicroBatch, firstDev, inflight, prevDevices}
		if key == b.keys[si] {
			b.copied++
			est.Stages[si] = b.base.Stages[si] // includes CapMem and Devices
		} else {
			b.evaluated++
			est.Stages[si] = m.stageMetrics(st, cfg.MicroBatch, firstDev, inflight, prevDevices)
			est.Stages[si].CapMem = m.Cluster.RangeMemory(firstDev, st.Devices)
		}
		firstDev += st.Devices
		est.Devices += st.Devices
		sm := &est.Stages[si]
		if sm.PeakMem > sm.CapMem {
			est.Feasible = false
			if est.OOMStage < 0 || sm.PeakMem > est.Stages[est.OOMStage].PeakMem {
				est.OOMStage = si
			}
		}
		if sm.PeakMem > est.PeakMem {
			est.PeakMem = sm.PeakMem
		}
	}
	m.composeIterTime(est, n)
	return est
}
