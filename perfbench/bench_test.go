package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 19, p: 50, beyond: 9, ok: false},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 39, p: 50, beyond: 19, ok: true},
		{n: 40, p: 75, beyond: 10, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 199, p: 90, beyond: 19, ok: true},
		{n: 200, p: 95, beyond: 10, ok: true},
		{n: 999, p: 95, beyond: 49, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	}
	for _, c := range cases {
		tl, ok := tailOf(seq(c.n))
		if tl.P != c.p || tl.Beyond != c.beyond || ok != c.ok || tl.N != c.n {
			t.Errorf("n=%d: got p%g beyond %d ok=%v, want p%g beyond %d ok=%v", c.n, tl.P, tl.Beyond, ok, c.p, c.beyond, c.ok)
		}
		// The value sits at its nearest rank: exactly Beyond samples are larger.
		larger := 0
		for _, v := range seq(c.n) {
			if v > tl.Value {
				larger++
			}
		}
		if larger != tl.Beyond {
			t.Errorf("n=%d: %d samples above the tail value, want %d", c.n, larger, tl.Beyond)
		}
	}
	if _, ok := tailOf(nil); ok {
		t.Error("empty sample set reported a tail")
	}
}

func TestServeScheduleIsSeededAndStratified(t *testing.T) {
	const n, keys = 1500, 84
	a := serveSchedule(7, 0, n, keys)
	if !reflect.DeepEqual(a, serveSchedule(7, 0, n, keys)) {
		t.Fatal("same seed and phase gave different schedules")
	}
	b := serveSchedule(8, 0, n, keys)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same order")
	}
	if reflect.DeepEqual(a, serveSchedule(7, 1, n, keys)) {
		t.Fatal("different phases gave the same order")
	}
	sa, sb := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("seeds changed the multiset of templates, not only their order")
	}
	count := make([]int, keys)
	for _, k := range a {
		if k < 0 || k >= keys {
			t.Fatalf("template %d out of range", k)
		}
		count[k]++
	}
	for k := 1; k < keys; k++ {
		if count[k] > count[k-1] {
			t.Fatalf("rank %d drawn %d times, more than rank %d (%d)", k, count[k], k-1, count[k-1])
		}
	}
}

// TestFailedPhaseStillPrintsResult: a failed request counts as
// infinitely late, so a phase that is mostly failures has an infinite
// median and tail; the result line must still marshal, with its
// failure counts and correct=false.
func TestFailedPhaseStillPrintsResult(t *testing.T) {
	due := time.Now()
	rs := make([]reqResult, 40)
	for i := range rs {
		r := &rs[i]
		r.due, r.sent, r.done = due, due, due.Add(time.Millisecond)
		r.status, r.cache = http.StatusOK, "hit"
		if i%4 != 0 {
			r.status, r.err = http.StatusTooManyRequests, errors.New("status 429")
		}
	}
	s := summarizePhase(rs)
	if !math.IsInf(s.p50, 1) || !math.IsInf(s.tail.Value, 1) {
		t.Fatalf("p50 %g, tail %g: want +Inf with 30 of 40 failed", s.p50, s.tail.Value)
	}
	o := &outcome{Attempted: len(rs), Failed: 30, Metrics: map[string]float64{
		"setup_s": 1, "latency_p50_ms": s.p50, "latency_tail_ms": s.tail.Value,
		"throughput_per_s": 1, "alloc_mb_per_op": 1,
	}}
	res, err := buildResult(wlServe, false, o)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result line does not marshal: %v", err)
	}
	var back resultLine
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back.Correct || back.Attempted != 40 || back.Failed != 30 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 40 30", back.Correct, back.Attempted, back.Failed)
	}
	if v := back.Metrics["latency_tail_ms"].Value; v != notFinite {
		t.Errorf("latency_tail_ms = %g, want the sentinel %g", v, notFinite)
	}
}

func TestNearMissPairsAreSeededAndOneHop(t *testing.T) {
	const n = 1000
	pairsFor := func(seed int64) (*serveEnv, []int) {
		e := &serveEnv{}
		for _, pr := range serveZoo() {
			if _, err := e.addTemplate(pr); err != nil {
				t.Fatal(err)
			}
		}
		e.keys = len(e.zoo)
		return e, e.withNearMisses(seed, serveSchedule(seed, 0, n, e.keys))
	}
	e, a := pairsFor(3)
	if _, b := pairsFor(3); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different near-miss schedules")
	}
	if _, b := pairsFor(4); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same near-miss schedule")
	}
	pairs := n / nearMissEvery
	if len(a) != n+2*pairs || len(e.zoo) != e.keys+2*pairs {
		t.Fatalf("%d requests over %d templates, want %d over %d", len(a), len(e.zoo), n+2*pairs, e.keys+2*pairs)
	}
	at := map[int]int{}
	for i, tmpl := range a {
		if tmpl >= e.keys {
			at[tmpl] = i
		}
	}
	seeds := map[int64]bool{}
	for j := 0; j < pairs; j++ {
		cold, warm := e.keys+2*j, e.keys+2*j+1
		if at[warm]-at[cold] != nearMissGap+1 {
			t.Errorf("pair %d: warm request %d after the cold one, want %d", j, at[warm]-at[cold], nearMissGap+1)
		}
		c, w := e.zoo[cold], e.zoo[warm]
		if !reflect.DeepEqual(c.Model, w.Model) || !reflect.DeepEqual(c.Options, w.Options) || reflect.DeepEqual(c.Cluster, w.Cluster) {
			t.Errorf("pair %d is not a near-miss: %+v then %+v", j, c, w)
		}
		if seeds[c.Options.Seed] {
			t.Errorf("pair %d reuses search seed %d, so its donor could be warm-started", j, c.Options.Seed)
		}
		seeds[c.Options.Seed] = true
	}
}

func TestServeZooHasMoreKeysThanTheCache(t *testing.T) {
	zoo := serveZoo()
	if len(zoo) <= serveCacheSize {
		t.Fatalf("zoo has %d templates, cache holds %d", len(zoo), serveCacheSize)
	}
	seen := map[string]bool{}
	for _, pr := range zoo {
		b, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("duplicate template %s", b)
		}
		seen[string(b)] = true
		if _, err := pr.Model.Build(); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if _, _, err := pr.Cluster.Build(); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
	}
}

func TestChurnScheduleIsSeeded(t *testing.T) {
	const devices = 8
	a := churnSchedule(rand.New(rand.NewSource(3)), devices)
	if !reflect.DeepEqual(a, churnSchedule(rand.New(rand.NewSource(3)), devices)) {
		t.Fatal("same seed gave different churn schedules")
	}
	if reflect.DeepEqual(a, churnSchedule(rand.New(rand.NewSource(4)), devices)) {
		t.Fatal("different seeds gave the same churn schedule")
	}
	if err := a.Validate(devices); err != nil {
		t.Fatal(err)
	}
	for _, ev := range a.Events {
		if ev.Iteration >= churnIters {
			t.Fatalf("event %+v falls after the last iteration %d", ev, churnIters-1)
		}
	}
}

func TestPanelOrderIsSeededPermutation(t *testing.T) {
	a := panelOrder(5)
	if !reflect.DeepEqual(a, panelOrder(5)) {
		t.Fatal("same seed gave different panel orders")
	}
	s := append([]int64(nil), a...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if !reflect.DeepEqual(s, searchPanel) {
		t.Fatalf("panel order %v is not a permutation of %v", a, searchPanel)
	}
	if reflect.DeepEqual(a, panelOrder(6)) {
		t.Fatal("different seeds gave the same panel order")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better %q", m.Name, m.Better)
		}
		if m.Workload != "" {
			if _, ok := findWorkload(m.Workload); !ok {
				t.Errorf("metric %q belongs to unknown workload %q", m.Name, m.Workload)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Workload != "" {
			t.Errorf("end-to-end metric %q is tied to workload %q", m.Name, m.Workload)
		}
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bf := readBenchFile(t)
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(wls), len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, c.Name, c.Unit, c.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, c.Name, c.Unit, c.Better)
		}
	}
}

// TestEveryRunEmitsEveryMetric runs each workload briefly, untraced and
// traced, and checks the result line carries every metric
// BENCHMARK.json names for that mode.
func TestEveryRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchFile(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "2", "--seconds", "0.5", "--trace", trace}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w.Name, trace, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var want []string
			if trace == "0" {
				for _, m := range bf.EndToEnd {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range bf.PerLayer {
					want = append(want, m.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				v, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, name)
				}
				if trace == "0" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.Name, name, v.Value)
				}
			}
		}
	}
}
