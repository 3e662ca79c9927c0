package elastic

import (
	"path/filepath"
	"time"

	"aceso/internal/config"
	"aceso/internal/core"
	"aceso/internal/hardware"
	"aceso/internal/model"
	"aceso/internal/obs"
	"aceso/internal/runtime"
)

// Options tunes the recovery loop every Supervise run shares:
// checkpoint → replan → reshard → resume. SuperviseOptions embeds it
// and adds the churn policies.
type Options struct {
	// LR is the learning rate passed through to the runtime.
	LR float64
	// CheckpointEvery is the segment length in iterations: training
	// runs in segments of this many iterations with a checkpoint at
	// every boundary (default 1 — checkpoint each iteration). It seeds
	// Supervise's adaptive cadence.
	CheckpointEvery int
	// Dir, when non-empty, persists each checkpoint to
	// Dir/aceso.ckpt via the atomic Save path and recovers through
	// Load — the full file round trip. Empty keeps checkpoints in
	// memory.
	Dir string
	// CommDeadline bounds every collective wait in the runtime
	// (default 30s); it is what turns a missing rank into a typed
	// error instead of a hung World.
	CommDeadline time.Duration
	// SearchBudget bounds each Replan search (default 200ms).
	SearchBudget time.Duration
	// Seed drives the replan search.
	Seed int64
	// Metrics, when non-nil, receives the aceso_elastic_* checkpoint
	// lineage counters and the aceso_churn_* / aceso_spot_* policy
	// meters. Nil disables metering at zero overhead.
	Metrics *obs.Registry
}

// meters holds pre-resolved metric handles; a nil *meters disables
// metering (the nil-guarded zero-overhead-off pattern).
type meters struct {
	reg            *obs.Registry
	checkpoints    *obs.Counter
	restores       *obs.Counter
	reshards       *obs.Counter
	bytesMoved     *obs.Counter
	faults         *obs.Counter
	replans        *obs.Counter
	replansAvoided *obs.Counter
	retries        *obs.Counter
	pauses         *obs.Counter
	stepsLost      *obs.Counter
	recovery       *obs.Timer
	notices        *obs.Counter
	cleanDrains    *obs.Counter
	noticesMissed  *obs.Counter
	prewarms       *obs.Counter
}

func newMeters(reg *obs.Registry) *meters {
	if reg == nil {
		return nil
	}
	return &meters{
		reg:            reg,
		checkpoints:    reg.Counter(obs.ElasticCheckpointsTotal),
		restores:       reg.Counter(obs.ElasticRestoresTotal),
		reshards:       reg.Counter(obs.ElasticReshardsTotal),
		bytesMoved:     reg.Counter(obs.ElasticReshardBytesMovedTotal),
		faults:         reg.Counter(obs.ChurnFaultsTotal),
		replans:        reg.Counter(obs.ChurnReplansTotal),
		replansAvoided: reg.Counter(obs.ChurnReplansAvoidedTotal),
		retries:        reg.Counter(obs.ChurnBackoffRetriesTotal),
		pauses:         reg.Counter(obs.ChurnPausesTotal),
		stepsLost:      reg.Counter(obs.ChurnStepsLostTotal),
		recovery:       reg.Timer(obs.ChurnRecovery),
		notices:        reg.Counter(obs.SpotNoticesTotal),
		cleanDrains:    reg.Counter(obs.SpotCleanDrainsTotal),
		noticesMissed:  reg.Counter(obs.SpotNoticesMissedTotal),
		prewarms:       reg.Counter(obs.SpotPrewarmReplansTotal),
	}
}

func (m *meters) checkpoint() {
	if m != nil {
		m.checkpoints.Inc()
	}
}

func (m *meters) restore() {
	if m != nil {
		m.restores.Inc()
	}
}

func (m *meters) reshard(bytes int64) {
	if m != nil {
		m.reshards.Inc()
		m.bytesMoved.Add(bytes)
	}
}

func (m *meters) event(k ChurnKind) {
	if m != nil {
		m.reg.Counter(obs.ChurnEventsTotal + `{kind="` + k.String() + `"}`).Inc()
	}
}

func (m *meters) ladderCommit(rung string) {
	if m != nil {
		m.reg.Counter(obs.ChurnLadderTotal + `{rung="` + rung + `"}`).Inc()
	}
}

func (m *meters) transition(k TransitionKind) {
	if m != nil {
		m.reg.Counter(obs.ChurnTransitionsTotal + `{kind="` + string(k) + `"}`).Inc()
	}
}

func (m *meters) fault() {
	if m != nil {
		m.faults.Inc()
	}
}

func (m *meters) replan() {
	if m != nil {
		m.replans.Inc()
	}
}

func (m *meters) replanAvoided() {
	if m != nil {
		m.replansAvoided.Inc()
	}
}

func (m *meters) retry() {
	if m != nil {
		m.retries.Inc()
	}
}

func (m *meters) pause() {
	if m != nil {
		m.pauses.Inc()
	}
}

func (m *meters) lost(n int) {
	if m != nil {
		m.stepsLost.Add(int64(n))
	}
}

func (m *meters) notice() {
	if m != nil {
		m.notices.Inc()
	}
}

func (m *meters) cleanDrain() {
	if m != nil {
		m.cleanDrains.Inc()
	}
}

func (m *meters) noticeMissed() {
	if m != nil {
		m.noticesMissed.Inc()
	}
}

func (m *meters) prewarm() {
	if m != nil {
		m.prewarms.Inc()
	}
}

func (m *meters) recovered(d time.Duration) {
	if m != nil {
		m.recovery.Observe(d)
	}
}

// pickRunnable returns the first replan candidate (best first) that
// fills cl exactly and that the runtime can execute, or nil.
func pickRunnable(g *model.Graph, cl hardware.Cluster, res *core.Result, p *runtime.Params) *config.Config {
	cands := append([]core.Candidate{res.Best}, res.TopK...)
	for i := range cands {
		c := cands[i].Config
		if c != nil && c.TotalDevices() == cl.TotalDevices() && runnableOn(g, &cl, c, p) {
			return c
		}
	}
	return nil
}

// ckptPath is the single-lineage checkpoint file under dir.
func ckptPath(dir string) string { return filepath.Join(dir, "aceso.ckpt") }

// persist saves the checkpoint when a directory is configured.
func persist(dir string, st *State) error {
	if dir == "" {
		return nil
	}
	return Save(ckptPath(dir), st)
}
