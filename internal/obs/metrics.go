package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric names used by the search plumbing (core.SearchContext). The
// `{...}` suffix convention carries Prometheus labels through the
// registry: the writer emits names verbatim, so a name like
// PrimitiveAppliedTotal + `{primitive="inc-dp"}` renders as a labeled
// series.
const (
	CandidatesEstimatedTotal = "aceso_search_candidates_estimated_total"
	DedupHitsTotal           = "aceso_search_dedup_hits_total"
	IterationsTotal          = "aceso_search_iterations_total"
	PoolRestartsTotal        = "aceso_search_pool_restarts_total"
	PoolPrunesTotal          = "aceso_search_pool_prunes_total"
	PrimitiveAppliedTotal    = "aceso_search_primitive_applied_total"
	StageCacheHitsTotal      = "aceso_perfmodel_stage_cache_hits_total"
	StageCacheMissesTotal    = "aceso_perfmodel_stage_cache_misses_total"
	MultiHopDepth            = "aceso_search_multihop_depth"
	// IterationSeconds is a Timer; the snapshot suffixes it with
	// _seconds_total and _count.
	IterationSeconds = "aceso_search_iteration"

	// Differential-validation harness (internal/diffcheck). Violations
	// carry a `{kind="..."}` label per invariant.
	DiffTrialsTotal      = "aceso_diff_trials_total"
	DiffViolationsTotal  = "aceso_diff_violations_total"
	DiffShrinkStepsTotal = "aceso_diff_shrink_steps_total"

	// Elastic-training runtime (internal/elastic): the checkpoint
	// lineage — checkpoints, restores and state resharding. Faults and
	// recovery time are the aceso_churn_* families below.
	ElasticCheckpointsTotal       = "aceso_elastic_checkpoints_total"
	ElasticRestoresTotal          = "aceso_elastic_restores_total"
	ElasticReshardsTotal          = "aceso_elastic_reshards_total"
	ElasticReshardBytesMovedTotal = "aceso_elastic_reshard_bytes_moved_total"

	// Continuous-churn supervisor (elastic.Supervise). Events carry a
	// `{kind="..."}` label per ChurnKind, ladder commits a
	// `{rung="..."}` label per degradation rung, and transitions a
	// `{kind="..."}` label per TransitionKind.
	ChurnEventsTotal         = "aceso_churn_events_total"
	ChurnFaultsTotal         = "aceso_churn_faults_total"
	ChurnReplansTotal        = "aceso_churn_replans_total"
	ChurnReplansAvoidedTotal = "aceso_churn_replans_avoided_total"
	ChurnLadderTotal         = "aceso_churn_ladder_total"
	ChurnBackoffRetriesTotal = "aceso_churn_backoff_retries_total"
	ChurnPausesTotal         = "aceso_churn_pauses_total"
	ChurnTransitionsTotal    = "aceso_churn_transitions_total"
	ChurnStepsLostTotal      = "aceso_churn_steps_lost_total"
	// ChurnRecovery is a Timer; the snapshot suffixes it with
	// _seconds_total and _count.
	ChurnRecovery = "aceso_churn_recovery"

	// Spot-capacity supervision (elastic.PreemptNotice drains): notices
	// received, drains completed with zero lost steps, notices whose
	// window could not absorb a checkpoint, and replans pre-warmed
	// while the doomed device was still serving.
	SpotNoticesTotal        = "aceso_spot_notices_total"
	SpotCleanDrainsTotal    = "aceso_spot_clean_drains_total"
	SpotNoticesMissedTotal  = "aceso_spot_notices_missed_total"
	SpotPrewarmReplansTotal = "aceso_spot_prewarm_replans_total"

	// Planner-as-a-service daemon (internal/planserver / cmd/acesod).
	// Requests carry a `{code="..."}` label per HTTP status, cache hits
	// a `{kind="exact"|"warm"}` label per hit class.
	ServeRequestsTotal     = "aceso_serve_requests_total"
	ServeCacheHitsTotal    = "aceso_serve_cache_hits_total"
	ServeCacheMissesTotal  = "aceso_serve_cache_misses_total"
	ServeShedTotal         = "aceso_serve_shed_total"
	ServeDrainRejectsTotal = "aceso_serve_drain_rejects_total"
	ServeStreamsTotal      = "aceso_serve_streams_total"
	// ServeInflight / ServeQueueDepth / ServeCacheEntries are Gauges.
	ServeInflight     = "aceso_serve_inflight"
	ServeQueueDepth   = "aceso_serve_queue_depth"
	ServeCacheEntries = "aceso_serve_cache_entries"
	// ServeRequestSeconds is a Timer; the snapshot suffixes it with
	// _seconds_total and _count.
	ServeRequestSeconds = "aceso_serve_request"
)

// Counter is a monotonic (or Set-overwritten snapshot) integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set overwrites the value — for snapshot-style gauges mirrored from
// another subsystem's own counters (the perfmodel stage cache).
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can move both ways (queue depths,
// in-flight request counts). Stored as float64 bits in an atomic
// word, so Set/Value are lock-free like the other metric updates.
type Gauge struct {
	v atomic.Uint64
}

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Add adjusts the value by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Timer accumulates durations: total time and observation count.
type Timer struct {
	totalNS atomic.Int64
	count   atomic.Int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.totalNS.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.totalNS.Load()) }

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Histogram counts observations into cumulative ≤-bound buckets
// (Prometheus semantics), plus a +Inf overflow, a sum and a count.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Int64
	sum     atomic.Int64 // sum scaled by histScale for atomic storage
	count   atomic.Int64
}

// histScale stores float sums in an atomic int64 with micro precision
// — plenty for hop depths and second-scale timings.
const histScale = 1e6

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(int64(v * histScale))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Registry is a named collection of counters, timers and histograms.
// Metric creation takes a lock; updates are lock-free atomics, so a
// hot path that pre-resolves its metric pointers once pays only an
// atomic add per event.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use with
// the given ascending upper bounds (an implicit +Inf bucket is the
// count minus the explicit buckets). Bounds are fixed at creation;
// later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Int64, len(h.bounds))
		r.hists[name] = h
	}
	return h
}

// promSample is one rendered series: its full name (including any
// label block) and its value.
type promSample struct {
	name string
	val  float64
}

// promFamily groups every series of one metric family under the
// family's exposition-format type. The Prometheus text format requires
// a family's series to be contiguous (one TYPE line, no interleaving
// with other families) and a histogram's buckets to come in ascending
// `le` order — the snapshot was historically a flat lexical sort,
// which violated both (`'+'` sorts before digits, so the +Inf bucket
// led; a labeled family whose base name prefixes another metric
// straddled it).
type promFamily struct {
	name    string
	typ     string // "counter", "gauge" or "histogram"
	samples []promSample
}

// families renders every metric into an ordered family list: families
// sorted by name, counter/gauge series sorted by full series name
// within their family, histogram series in canonical order (buckets by
// ascending bound, +Inf, then _sum and _count). The order is total and
// input-independent, so snapshots stay deterministic.
func (r *Registry) families() []promFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	byName := make(map[string]*promFamily)
	add := func(family, typ, series string, v float64) {
		f, ok := byName[family]
		if !ok {
			f = &promFamily{name: family, typ: typ}
			byName[family] = f
		}
		f.samples = append(f.samples, promSample{series, v})
	}
	for n, c := range r.counters {
		add(baseName(n), "counter", n, float64(c.Value()))
	}
	for n, g := range r.gauges {
		add(baseName(n), "gauge", n, g.Value())
	}
	for n, t := range r.timers {
		add(n+"_seconds_total", "counter", n+"_seconds_total", t.Total().Seconds())
		add(n+"_count", "counter", n+"_count", float64(t.Count()))
	}
	for n, h := range r.hists {
		cum := int64(0)
		for i := range h.bounds {
			cum += h.buckets[i].Load()
			add(n, "histogram", fmt.Sprintf("%s_bucket{le=%q}", n, formatFloat(h.bounds[i])), float64(cum))
		}
		add(n, "histogram", n+`_bucket{le="+Inf"}`, float64(h.count.Load()))
		add(n, "histogram", n+"_sum", float64(h.sum.Load())/histScale)
		add(n, "histogram", n+"_count", float64(h.count.Load()))
	}
	out := make([]promFamily, 0, len(byName))
	for _, f := range byName {
		if f.typ != "histogram" {
			sort.Slice(f.samples, func(a, b int) bool { return f.samples[a].name < f.samples[b].name })
		}
		out = append(out, *f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// baseName truncates a series name at its label block.
func baseName(n string) string {
	if i := strings.IndexByte(n, '{'); i >= 0 {
		return n[:i]
	}
	return n
}

// formatFloat renders a float the way the registry always has (%g).
func formatFloat(v float64) string { return fmt.Sprintf("%g", v) }

// snapshot renders every metric into an ordered name list plus a
// name→value map (family-grouped, buckets in bound order).
func (r *Registry) snapshot() (names []string, vals map[string]float64) {
	fams := r.families()
	vals = make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.samples {
			names = append(names, s.name)
			vals[s.name] = s.val
		}
	}
	return names, vals
}

// MarshalJSON renders the registry as a flat JSON object with sorted
// keys, so snapshots embed directly into larger reports
// (BENCH_trace.json) and diff cleanly.
func (r *Registry) MarshalJSON() ([]byte, error) {
	names, vals := r.snapshot()
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		key, _ := json.Marshal(n)
		b.Write(key)
		b.WriteByte(':')
		fmt.Fprintf(&b, "%g", vals[n])
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	raw, err := r.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// WritePrometheus writes the snapshot in the Prometheus text
// exposition format: one TYPE line per family, families contiguous and
// sorted by name, histograms typed as such with their buckets in
// ascending `le` order, and label values re-escaped per the format
// (`\\`, `\"`, `\n`). Timers flatten to two counter families
// (_seconds_total and _count — both cumulative).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.families() {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s %g\n", normalizeSeries(s.name), s.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// normalizeSeries re-escapes the label values of a series name for the
// exposition format. Series names are built by callers with %q (Go
// string quoting), which agrees with Prometheus escaping for `\\`,
// `\"` and `\n` but diverges on other control and non-ASCII bytes
// (Go writes \xNN / \uNNNN escapes the exposition format does not
// interpret). Unparsable label blocks pass through verbatim — a
// malformed name should surface in the scrape, not be silently
// dropped.
func normalizeSeries(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name
	}
	if !strings.HasSuffix(name, "}") {
		return name
	}
	block := name[i+1 : len(name)-1]
	var b strings.Builder
	b.WriteString(name[:i])
	b.WriteByte('{')
	first := true
	for block != "" {
		eq := strings.IndexByte(block, '=')
		if eq <= 0 {
			return name
		}
		key := block[:eq]
		rest := block[eq+1:]
		val, tail, err := unquoteLabelValue(rest)
		if err != nil {
			return name
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(val))
		b.WriteByte('"')
		block = tail
		if strings.HasPrefix(block, ",") {
			block = block[1:]
		} else if block != "" {
			return name
		}
	}
	b.WriteByte('}')
	return b.String()
}

// unquoteLabelValue consumes one double-quoted (Go-quoted) value from
// the front of s and returns the decoded value and the remainder.
func unquoteLabelValue(s string) (val, tail string, err error) {
	prefix, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", err
	}
	val, err = strconv.Unquote(prefix)
	if err != nil {
		return "", "", err
	}
	return val, s[len(prefix):], nil
}

// escapeLabelValue applies the exposition format's label escaping.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
