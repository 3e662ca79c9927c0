package main

// serve-zipf: open loop at a fixed rate, interleaved with closed-loop
// saturation, over at most two client connections to an in-process
// planserver with two search slots. Requests are Zipf-distributed over
// a zoo that mixes paper-scale models (every hit rebuilds and rehashes
// the graph, so a tiny-only zoo would hide hit-path costs) with tiny
// ones, across search seeds and cluster shapes, one of them faulted.
// The key space is larger than the cache, so hits, misses, puts and
// evictions all keep happening. The zoo and its popularity ranking are
// fixed, so the family mix — and with it the hit and miss costs — is
// the same at every seed; --seed draws the request sequence.
//
// Every zoo template has its own search seed, so no two share a
// (graph, options) pair. Warm near-misses come from separate pairs of
// requests inserted into the schedule (withNearMisses), each pair with
// a fresh seed, so every warm start is seeded from a cold search. In a
// Zipf load where templates shared seeds, a warm start from a donor
// that was itself warm-started could explore 25 times more than a cold
// miss (GPT-3 1.3B, 8 → 16 → 4 devices: 4792 configs, about 570 ms,
// against 195 configs and 12 ms cold); whether such a chain formed
// depended on the request order, so the tail depended on the seed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aceso/internal/obs"
	"aceso/internal/plancache"
	"aceso/internal/planserver"
)

const (
	serveConcurrency = 2 // planserver search slots
	serveConns       = 2 // client connections
	// zipfS is the popularity exponent: YCSB's default Zipfian
	// constant (Cooper et al., "Benchmarking Cloud Serving Systems with
	// YCSB", SoCC 2010), the common reference for skewed key-value
	// reads.
	zipfS = 0.99
	// serveCacheSize entries over the zoo's 84 keys make about one
	// request in six a miss (hit ratio 0.835 in an LRU simulation of
	// the Zipf draws, 0.81–0.82 measured). That puts misses, which
	// take a search slot, in every tail percentile from p90 up, leaves
	// hits the median, and keeps the two search slots mostly idle at
	// the nominal rate, so the open loop does not build a backlog.
	serveCacheSize = 48
	// nominalRPS is the fixed offered rate latency_p50_ms and
	// latency_tail_ms are measured at: about a quarter of the
	// closed-loop saturation rate of two connections (throughput_per_s,
	// 700–1000 req/s on the 2-vCPU reference box), so latencies are
	// service times with little queueing.
	nominalRPS = 200.0
	// spinMargin is how long before a request is due the generator
	// stops sleeping and spins: Go's timers woke a median 0.6 ms late
	// on the 2-vCPU reference box, most of a hit's latency; spinning
	// brings the median lateness under a microsecond.
	spinMargin = time.Millisecond
	// backlogGrowMS is how much later the last quarter of a phase may
	// start than its first quarter (medians, so one stalled request
	// does not count) before the backlog counts as growing.
	backlogGrowMS = 25.0
	// saturateBatches closed-loop batches measure plan_max_rps, one
	// after each chunk of the nominal phase; the median is reported.
	saturateBatches = 5
	identityKeys    = 3
	// nearMissEvery Zipf requests carry one near-miss pair, whose warm
	// request follows its cold one by nearMissGap requests (200 ms at
	// the nominal rate, long enough for the cold search to finish).
	// nearMissSeed is the first search seed of the pairs, clear of the
	// zoo's.
	nearMissEvery = 200
	nearMissGap   = 40
	nearMissSeed  = 1000
	// sweepRequests are sent at each rate of the traced run's sweep;
	// a thousand keep the tail at p99.
	sweepRequests = 1000
	// sweepLimitMS is the latency limit a swept rate's tail must meet.
	sweepLimitMS = 100.0
)

// nearMissShapes are the zooShapes a near-miss pair's warm request
// uses: 16 devices, 4 devices and the derated 8.
var nearMissShapes = []int{2, 1, 3}

// sweepRates are the offered rates of the traced run's open-loop sweep,
// up to just above the closed-loop saturation rate of the reference
// machine.
var sweepRates = []float64{300, 450, 675, 1000}

// nominalRequests is the size of the nominal phase: 60% of seconds at
// the nominal rate. saturateRequests is the size of one saturation
// batch (at the reference machine's 700–1000 req/s, the five batches
// take 30–40% of seconds). The counts are fixed, not the time, so the
// tail percentile always has the same sample count.
func nominalRequests(seconds float64) int  { return int(seconds * 0.6 * nominalRPS) }
func saturateRequests(seconds float64) int { return int(seconds * 60) }

// zooFamilies in fixed popularity order.
var zooFamilies = []planserver.ModelSpec{
	{Family: "gpt3", Size: "350M"},
	{Family: "tinygpt", Layers: 2, Seq: 64, Hidden: 128, Heads: 4, Batch: 8},
	{Family: "t5", Size: "770M"},
	{Family: "mlp", Layers: 4, Dim: 256, Batch: 16},
	{Family: "gpt3", Size: "1.3B"},
	{Family: "uniform", Ops: 16, FLOPs: 1e9, Params: 1e6, Act: 1e5, Batch: 8},
	{Family: "wideresnet", Size: "0.5B"},
}

// zooShapes are the cluster variants; the faulted one routes misses
// through core.Replan.
var zooShapes = []planserver.ClusterSpec{
	{Nodes: 1},
	{Nodes: 1, Restrict: 4},
	{Nodes: 2},
	{Nodes: 1, Faults: &planserver.FaultsSpec{Derates: []planserver.DerateSpec{{Device: 3, FLOPSScale: 0.5}}}},
}

const zooSeeds = 3

func familyName(m planserver.ModelSpec) string {
	if m.Size != "" {
		return m.Family + "-" + m.Size
	}
	return m.Family
}

// serveZoo returns the request templates in popularity-rank order:
// rank r is family r mod len(zooFamilies), so every family has popular
// and rare variants, each with its own search seed.
func serveZoo() []planserver.PlanRequest {
	variants := len(zooShapes) * zooSeeds
	out := make([]planserver.PlanRequest, 0, len(zooFamilies)*variants)
	for r := 0; r < len(zooFamilies)*variants; r++ {
		f := r % len(zooFamilies)
		v := r / len(zooFamilies)
		out = append(out, planserver.PlanRequest{
			Model:   zooFamilies[f],
			Cluster: zooShapes[v%len(zooShapes)],
			Options: planserver.SearchOptions{
				BudgetMS: 10_000, MaxIterations: 1, StageCounts: []int{1, 2},
				Seed: int64(v + 1),
			},
		})
	}
	return out
}

// serveSchedule returns n template indices for one load phase: each
// template appears in proportion to its Zipf weight (largest-remainder
// rounding), in an order shuffled from the seed. Fixing the multiset
// keeps the hit/miss composition of a phase the same at every seed.
func serveSchedule(seed int64, phase, n, keys int) []int {
	w := make([]float64, keys)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		sum += w[k]
	}
	out := make([]int, 0, n)
	rem := make([]int, keys)
	frac := make([]float64, keys)
	for k := range w {
		exact := float64(n) * w[k] / sum
		c := int(exact)
		frac[k] = exact - float64(c)
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
		rem[k] = k
	}
	sort.SliceStable(rem, func(a, b int) bool { return frac[rem[a]] > frac[rem[b]] })
	for i := 0; len(out) < n; i++ {
		out = append(out, rem[i%keys])
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reqResult is one request of an open-loop phase.
type reqResult struct {
	tmpl            int
	due, sent, done time.Time
	status          int
	cache, key      string
	serverMS        float64
	planHash        uint64
	err             error
}

func (r *reqResult) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r *reqResult) latencyMS() float64 { return float64(r.done.Sub(r.due).Nanoseconds()) / 1e6 }
func (r *reqResult) clientMS() float64  { return float64(r.done.Sub(r.sent).Nanoseconds()) / 1e6 }
func (r *reqResult) lagMS() float64     { return float64(r.sent.Sub(r.due).Nanoseconds()) / 1e6 }

type serveEnv struct {
	srv     *planserver.Server
	ts      *httptest.Server
	clients []*http.Client
	bodies  [][]byte
	zoo     []planserver.PlanRequest // the Zipf templates, then near-miss pairs
	keys    int                      // Zipf templates at the front of zoo
	plans   sync.Map                 // "tmpl/hash" → raw plan, one per distinct plan
	phases  int
}

func newServeEnv(zoo []planserver.PlanRequest) (*serveEnv, error) {
	e := &serveEnv{keys: len(zoo)}
	for _, pr := range zoo {
		if _, err := e.addTemplate(pr); err != nil {
			return nil, err
		}
	}
	e.srv = planserver.New(planserver.Config{Concurrency: serveConcurrency, CacheSize: serveCacheSize})
	e.ts = httptest.NewServer(e.srv.Handler())
	for i := 0; i < serveConns; i++ {
		e.clients = append(e.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return e, nil
}

// addTemplate appends a request template and returns its index.
func (e *serveEnv) addTemplate(pr planserver.PlanRequest) (int, error) {
	b, err := json.Marshal(pr)
	if err != nil {
		return 0, err
	}
	e.zoo = append(e.zoo, pr)
	e.bodies = append(e.bodies, b)
	return len(e.zoo) - 1, nil
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	e.ts.Close()
}

// post sends template tmpl and fills r.
func (e *serveEnv) post(c *http.Client, tmpl int, r *reqResult) {
	r.tmpl = tmpl
	r.sent = time.Now()
	resp, err := c.Post(e.ts.URL+"/v1/plan", "application/json", bytes.NewReader(e.bodies[tmpl]))
	if err != nil {
		r.err, r.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
		return
	}
	if r.status != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", r.status, strings.TrimSpace(string(body)))
		return
	}
	var env planserver.PlanResponse
	if err := json.Unmarshal(body, &env); err != nil {
		r.err = fmt.Errorf("decode response: %w", err)
		return
	}
	r.cache, r.key, r.serverMS = env.Cache, env.Key, env.ElapsedMS
	h := fnv.New64a()
	h.Write(env.Plan)
	r.planHash = h.Sum64()
	if _, seen := e.plans.Load(planID(tmpl, r.planHash)); !seen {
		e.plans.Store(planID(tmpl, r.planHash), []byte(env.Plan))
	}
}

func planID(tmpl int, h uint64) string { return fmt.Sprintf("%d/%016x", tmpl, h) }

// load sends the schedule over every client connection. With rate > 0
// it is an open loop: request i is due i/rate seconds after the start
// and is timed from then, however late the generator sends it. With
// rate 0 it is a closed loop: each connection sends its next request as
// soon as the last one returns.
func (e *serveEnv) load(sched []int, rate float64, log *spanLog, opBase int) []reqResult {
	out := make([]reqResult, len(sched))
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				r := &out[i]
				r.due = time.Now()
				if rate > 0 {
					r.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					sleepUntil(r.due)
				}
				e.post(c, sched[i], r)
				if log != nil {
					root := log.add("serve.request", 0, opBase+i, r.due, r.done)
					log.add("gen.wait", root, opBase+i, r.due, r.sent)
					log.add("http.POST", root, opBase+i, r.sent, r.done)
				}
			}
		}(c)
	}
	wg.Wait()
	e.phases++
	return out
}

// sleepUntil returns at t: it sleeps until spinMargin before, then
// spins, yielding to any other runnable goroutine.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// phase sends n scheduled Zipf requests, plus their near-miss pairs, at
// rate (0 = closed loop).
func (e *serveEnv) phase(seed int64, n int, rate float64, log *spanLog, opBase int) []reqResult {
	sched := serveSchedule(seed, e.phases, max(n, 1), e.keys)
	return e.load(e.withNearMisses(seed, sched), rate, log, opBase)
}

// withNearMisses inserts one near-miss pair per nearMissEvery scheduled
// requests: a fresh (model, options) template planned on 8 devices, a
// cold miss at a seeded position in its stratum, then nearMissGap
// requests later the same template on another shape, which the cache's
// warm index answers by warm-starting from the first plan. Every pair
// has its own search seed, so a warm request's donor is always a cold
// search: a donor that was itself warm-started can make a warm start
// explore 25 times more, and chains of those made the tail depend on
// the request order.
func (e *serveEnv) withNearMisses(seed int64, sched []int) []int {
	pairs := len(sched) / nearMissEvery
	rng := rand.New(rand.NewSource(seed*1_000_033 + int64(e.phases)))
	insert := map[int][]int{}
	for j := 0; j < pairs; j++ {
		pair := (len(e.zoo) - e.keys) / 2 // unique on this server
		pr := planserver.PlanRequest{
			Model:   zooFamilies[pair%len(zooFamilies)],
			Cluster: zooShapes[0],
			Options: planserver.SearchOptions{
				BudgetMS: 10_000, MaxIterations: 1, StageCounts: []int{1, 2},
				Seed: int64(nearMissSeed + pair),
			},
		}
		cold, err := e.addTemplate(pr)
		if err != nil {
			panic(err) // the zoo's request types always marshal
		}
		pr.Cluster = zooShapes[nearMissShapes[pair%len(nearMissShapes)]]
		warm, err := e.addTemplate(pr)
		if err != nil {
			panic(err)
		}
		at := j*nearMissEvery + rng.Intn(nearMissEvery-nearMissGap)
		insert[at] = append(insert[at], cold)
		insert[at+nearMissGap] = append(insert[at+nearMissGap], warm)
	}
	out := make([]int, 0, len(sched)+2*pairs)
	for i, t := range sched {
		out = append(out, insert[i]...)
		out = append(out, t)
	}
	return out
}

// backlogGrowing reports whether requests started later and later
// relative to their due times across the step: the generator's queue
// of due-but-unsent requests rose.
func backlogGrowing(rs []reqResult) bool {
	q := len(rs) / 4
	if q == 0 {
		return false
	}
	var first, last []float64
	for i := 0; i < q; i++ {
		first = append(first, rs[i].lagMS())
		last = append(last, rs[len(rs)-1-i].lagMS())
	}
	return median(last)-median(first) > backlogGrowMS
}

// sweep offers the sweep rates in turn, open loop, and returns the
// highest rate before the first whose tail misses sweepLimitMS or whose
// backlog grows (0 when the lowest fails), with every response.
func (e *serveEnv) sweep(seed int64, w io.Writer) (float64, []reqResult) {
	best := 0.0
	var all []reqResult
	for _, rate := range sweepRates {
		rs := e.phase(seed, sweepRequests, rate, nil, 0)
		all = append(all, rs...)
		s := summarizePhase(rs)
		growing := backlogGrowing(rs)
		fmt.Fprintf(w, "sweep %.0f req/s: p50 %.3f ms, tail %.3f ms (%s), backlog growing %v\n",
			rate, s.p50, s.tail.Value, s.tail, growing)
		if s.tail.Value > sweepLimitMS || growing {
			break
		}
		best = rate
	}
	fmt.Fprintf(w, "sweep_max_rps %.0f req/s (tail limit %.0f ms)\n", best, sweepLimitMS)
	return best, all
}

// checkServe verifies every response: 200 responses must carry a valid
// plan for their request, one stable key per template, and hits must
// replay bytes a search for that template stored.
func checkServe(e *serveEnv, o *outcome, all []reqResult) {
	stored := map[int]map[uint64]bool{}
	keys := map[int]string{}
	for i := range all {
		r := &all[i]
		if !r.ok() {
			continue
		}
		if r.cache == "miss" || r.cache == "warm" {
			if stored[r.tmpl] == nil {
				stored[r.tmpl] = map[uint64]bool{}
			}
			stored[r.tmpl][r.planHash] = true
		}
		if k, ok := keys[r.tmpl]; ok && k != r.key {
			r.err = fmt.Errorf("template %d answered with key %s, earlier %s", r.tmpl, r.key, k)
		} else {
			keys[r.tmpl] = r.key
		}
	}
	valid := map[string]error{}
	for i := range all {
		r := &all[i]
		if r.ok() {
			switch r.cache {
			case "hit":
				if !stored[r.tmpl][r.planHash] {
					r.err = fmt.Errorf("template %d: hit replayed bytes no search stored", r.tmpl)
				}
			case "miss", "warm":
			default:
				r.err = fmt.Errorf("template %d: unknown cache disposition %q", r.tmpl, r.cache)
			}
		}
		if r.ok() {
			id := planID(r.tmpl, r.planHash)
			err, done := valid[id]
			if !done {
				err = validatePlan(e, r.tmpl, id)
				valid[id] = err
			}
			r.err = err
		}
		o.Attempted++
		if !r.ok() {
			o.Failed++
			if o.Failed <= 5 {
				o.failf("request %d (template %d): %v", i, r.tmpl, r.err)
			}
		}
	}
}

// validatePlan decodes a stored plan and validates it against the
// graph and cluster of its request.
func validatePlan(e *serveEnv, tmpl int, id string) error {
	raw, ok := e.plans.Load(id)
	if !ok {
		return fmt.Errorf("plan %s was not kept", id)
	}
	var p planserver.Plan
	if err := json.Unmarshal(raw.([]byte), &p); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	pr := e.zoo[tmpl]
	g, err := pr.Model.Build()
	if err != nil {
		return err
	}
	cl, _, err := pr.Cluster.Build()
	if err != nil {
		return err
	}
	if p.Config == nil {
		return fmt.Errorf("plan has no config")
	}
	if err := p.Config.Validate(g, cl.TotalDevices()); err != nil {
		return fmt.Errorf("plan invalid for its request: %w", err)
	}
	if p.Devices != cl.TotalDevices() || !p.Feasible {
		return fmt.Errorf("plan uses %d of %d devices, feasible=%v", p.Devices, cl.TotalDevices(), p.Feasible)
	}
	return nil
}

// checkIdentity sends sampled templates that were answered by a cold
// miss to a new server and requires the same bytes.
func checkIdentity(e *serveEnv, seed int64, o *outcome, all []reqResult) error {
	cold := map[int]uint64{}
	var order []int
	for i := range all {
		if r := &all[i]; r.ok() && r.cache == "miss" {
			if _, ok := cold[r.tmpl]; !ok {
				order = append(order, r.tmpl)
			}
			cold[r.tmpl] = r.planHash
		}
	}
	if len(order) == 0 {
		o.failf("no cold miss to check against a fresh server")
		return nil
	}
	fresh, err := newServeEnv(e.zoo)
	if err != nil {
		return err
	}
	defer fresh.close()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < identityKeys; i++ {
		tmpl := order[rng.Intn(len(order))]
		var r reqResult
		fresh.post(fresh.clients[0], tmpl, &r)
		o.Attempted++
		if !r.ok() || r.planHash != cold[tmpl] {
			o.Failed++
			o.failf("template %d: fresh search bytes %016x differ from served %016x (err %v)",
				tmpl, r.planHash, cold[tmpl], r.err)
		}
	}
	return nil
}

// startServe builds the zoo, starts a server and warms its cache with
// one request for each of the most popular templates, least popular
// first. The cache is an LRU, so warming in rank order would leave the
// most popular templates first in line for eviction: the first rare
// requests then evicted them, and their misses (T5 among them) bunched
// at the start of the timed phase, where at some seeds they took the
// tail from about 30 ms to 64 ms.
func startServe() (*serveEnv, []reqResult, error) {
	e, err := newServeEnv(serveZoo())
	if err != nil {
		return nil, nil, err
	}
	warm := make([]reqResult, serveCacheSize)
	for i := range warm {
		e.post(e.clients[i%serveConns], serveCacheSize-1-i, &warm[i])
		warm[i].due = warm[i].sent
	}
	return e, warm, nil
}

func runServeWorkload(rc runConfig) (*outcome, error) {
	o := &outcome{Metrics: map[string]float64{}}
	var setups []float64
	var e *serveEnv
	var all []reqResult
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var warm []reqResult
		var err error
		e, warm, err = startServe()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		all = append(all[:0], warm...)
	}
	defer e.close()
	o.Metrics["setup_s"] = median(setups)
	fmt.Fprintf(rc.Log, "zoo %d templates over %d families, cache %d, setup %.3fs (median of %d)\n",
		len(e.zoo), len(zooFamilies), serveCacheSize, o.Metrics["setup_s"], setupReps)

	// The nominal phase is sent in saturateBatches chunks, each followed
	// in an untraced run by one saturation batch, so both kinds of figure
	// sample the machine across the whole run rather than one stretch of
	// it: on a shared 2-vCPU host, identical batches ran 40% faster in
	// one stretch than in another. The chunks split one Zipf schedule,
	// so together they carry the same request multiset as a single
	// phase.
	sched := serveSchedule(rc.Seed, e.phases, nominalRequests(rc.Seconds), e.keys)
	var nom, sat []reqResult
	var rates []float64
	var allocs uint64
	growing := false
	for k := 0; k < saturateBatches; k++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		chunk := sched[k*len(sched)/saturateBatches : (k+1)*len(sched)/saturateBatches]
		rs := e.load(e.withNearMisses(rc.Seed, chunk), nominalRPS, nil, 0)
		runtime.ReadMemStats(&after)
		allocs += after.TotalAlloc - before.TotalAlloc
		nom = append(nom, rs...)
		growing = growing || backlogGrowing(rs)
		if rc.Trace {
			continue
		}
		start := time.Now()
		rs = e.phase(rc.Seed, saturateRequests(rc.Seconds), 0, nil, 0)
		rates = append(rates, float64(len(rs))/time.Since(start).Seconds())
		sat = append(sat, rs...)
	}
	all = append(all, nom...)
	all = append(all, sat...)
	plain := summarizePhase(nom)
	o.Metrics["latency_p50_ms"] = plain.p50
	o.Metrics["latency_tail_ms"] = plain.tail.Value
	o.Metrics["alloc_mb_per_op"] = float64(allocs) / 1e6 / float64(len(nom))
	fmt.Fprintf(rc.Log, "plan_p50_ms %.3f ms at %.0f req/s offered; generator lateness p50 %.4f ms\n",
		plain.p50, nominalRPS, plain.lagP50)
	fmt.Fprintf(rc.Log, "plan_tail_ms %.3f ms (%s)\n", plain.tail.Value, plain.tail)
	fmt.Fprintf(rc.Log, "cache mix: %s\n", plain.mix())
	if growing {
		fmt.Fprintf(rc.Log, "WARNING: the backlog grew at the nominal rate; latencies include queueing growth\n")
	}
	if !rc.Trace {
		o.Metrics["throughput_per_s"] = median(rates)
		fmt.Fprintf(rc.Log, "plan_max_rps %.1f req/s: closed-loop saturation of %d connections, median of %.1f\n",
			median(rates), serveConns, rates)
		fmt.Fprintf(rc.Log, "saturation cache mix: %s\n", summarizePhase(sat).mix())
	} else {
		all = append(all, traceServe(e, rc, o, plain)...)
	}
	checkServe(e, o, all)
	if err := checkIdentity(e, rc.Seed, o, all); err != nil {
		return nil, err
	}
	return o, nil
}

// phaseSummary condenses one open-loop phase. A failed request counts
// as infinitely late.
type phaseSummary struct {
	p50    float64
	tail   tail
	lagP50 float64 // how late the generator sent, median
	kinds  map[string]int
}

// mix is the phase's share of each cache disposition.
func (s phaseSummary) mix() string {
	n := 0
	for _, c := range s.kinds {
		n += c
	}
	var parts []string
	for _, k := range []string{"hit", "warm", "miss", "failed"} {
		if c, ok := s.kinds[k]; ok {
			parts = append(parts, fmt.Sprintf("%s %d (%.3f)", k, c, ratio(float64(c), float64(n))))
		}
	}
	return strings.Join(parts, ", ")
}

func summarizePhase(rs []reqResult) phaseSummary {
	s := phaseSummary{kinds: map[string]int{}}
	lat := make([]float64, len(rs))
	lag := make([]float64, len(rs))
	for i := range rs {
		lat[i] = math.Inf(1)
		lag[i] = rs[i].lagMS()
		if rs[i].ok() {
			lat[i] = rs[i].latencyMS()
			s.kinds[rs[i].cache]++
		} else {
			s.kinds["failed"]++
		}
	}
	s.p50 = median(lat)
	s.tail, _ = tailOf(lat)
	s.lagP50 = median(lag)
	return s
}

// traceServe runs the traced nominal phase and times the layers a
// request passes through from the benchmark's side: request decode,
// the prepare steps (model build, cluster build, content hashes), plan
// cache get/put and response encode.
func traceServe(e *serveEnv, rc runConfig, o *outcome, plain phaseSummary) []reqResult {
	m := o.Metrics
	log := newSpanLog()
	o.Spans = log
	reg := e.srv.Registry()
	timer := reg.Timer(obs.ServeRequestSeconds)
	t0, c0 := timer.Total(), timer.Count()
	st0 := e.srv.Cache().Stats()

	// Sample the queue-depth gauge through the in-process /metrics
	// handler (no extra client connection).
	stop := make(chan struct{})
	var depthMax float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				e.srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
				depthMax = max(depthMax, reg.Gauge(obs.ServeQueueDepth).Value())
			}
		}
	}()
	rs := e.phase(rc.Seed, nominalRequests(rc.Seconds), nominalRPS, log, 1<<20)
	close(stop)
	wg.Wait()

	traced := summarizePhase(rs)
	m["trace.overhead_ratio"] = ratio(traced.p50, plain.p50)
	byKind := map[string][]float64{}
	var client, server []float64
	for i := range rs {
		if r := &rs[i]; r.ok() {
			byKind[r.cache] = append(byKind[r.cache], r.clientMS())
			client = append(client, r.clientMS())
			server = append(server, r.serverMS)
		}
	}
	m["planserver.hit_ms_p50"] = median(byKind["hit"])
	m["planserver.warm_ms_p50"] = median(byKind["warm"])
	m["planserver.miss_ms_p50"] = median(byKind["miss"])
	m["planserver.http_overhead_ms"] = mean(client) - mean(server)
	m["planserver.server_ms_mean"] = ratio(float64(timer.Total()-t0)/1e6, float64(timer.Count()-c0))
	m["planserver.shed"] = float64(reg.Counter(obs.ServeShedTotal).Value())
	m["planserver.queue_depth_max"] = depthMax
	m["gen.lag_ms"] = traced.lagP50
	// A warm lookup follows a missed Get, so hit_ratio, warm_ratio and
	// the cold misses add up to all lookups.
	st := e.srv.Cache().Stats()
	lookups := float64(st.Hits - st0.Hits + st.Misses - st0.Misses)
	m["plancache.hit_ratio"] = ratio(float64(st.Hits-st0.Hits), lookups)
	m["plancache.warm_ratio"] = ratio(float64(st.WarmHits-st0.WarmHits), lookups)
	m["plancache.evictions"] = float64(st.Evictions - st0.Evictions)
	m["plancache.entries"] = float64(e.srv.Cache().Len())
	fmt.Fprintf(rc.Log, "traced cache mix: %s\n", traced.mix())
	maxRPS, swept := e.sweep(rc.Seed, rc.Log)
	m["gen.sweep_max_rps"] = maxRPS
	rs = append(rs, swept...)

	replayServeLayers(e, log, rc.Log, m)
	return rs
}

// replayServeLayers times, per template, the steps the server runs on
// every request, and plancache operations on the zoo's keys.
func replayServeLayers(e *serveEnv, log *spanLog, w io.Writer, m map[string]float64) {
	const rounds = 5
	plans := map[int][]byte{}
	e.plans.Range(func(k, v any) bool {
		var tmpl int
		fmt.Sscanf(k.(string), "%d/", &tmpl)
		plans[tmpl] = v.([]byte)
		return true
	})
	famUS := map[string][]float64{}
	var keys []plancache.Key
	op := 2 << 20
	for r := 0; r < rounds; r++ {
		for tmpl, pr := range e.zoo[:e.keys] {
			op++
			root := log.begin("planserver.request", 0, op)
			t := time.Now()
			var dec planserver.PlanRequest
			err := json.Unmarshal(e.bodies[tmpl], &dec)
			log.add("planserver.decode", root, op, t, time.Now())
			if err != nil {
				log.end(root)
				continue
			}
			prep := log.begin("planserver.prepare", root, op)
			t = time.Now()
			g, err := dec.Model.Build()
			d := time.Since(t)
			log.add("model.Build", prep, op, t, t.Add(d))
			famUS[familyName(pr.Model)] = append(famUS[familyName(pr.Model)], float64(d.Nanoseconds())/1e3)
			t = time.Now()
			cl, faults, cerr := dec.Cluster.Build()
			if cerr == nil && faults != nil {
				cl, cerr = cl.Degrade(*faults)
			}
			log.add("hardware.ClusterBuild", prep, op, t, time.Now())
			if err != nil || cerr != nil {
				log.end(prep)
				log.end(root)
				continue
			}
			// The server also normalizes and hashes the options here;
			// planserver does not export those, so the key uses the
			// template index and prepare_us leaves them out.
			t = time.Now()
			k := plancache.Key{Graph: plancache.GraphHash(g), Cluster: plancache.ClusterHash(&cl), Options: uint64(tmpl)}
			log.add("plancache.Key", prep, op, t, time.Now())
			log.end(prep)
			if r == 0 {
				keys = append(keys, k)
			}
			if raw, ok := plans[tmpl]; ok {
				t = time.Now()
				_ = json.NewEncoder(io.Discard).Encode(planserver.PlanResponse{Cache: "hit", Key: "k", Plan: raw})
				log.add("planserver.encode", root, op, t, time.Now())
			}
			log.end(root)
		}
	}
	var fams []float64
	for _, f := range zooFamilies {
		us := mean(famUS[familyName(f)])
		fams = append(fams, us)
		fmt.Fprintf(w, "model.build_us[%s] %.1f us\n", familyName(f), us)
	}
	m["model.build_us"] = mean(fams)
	m["hardware.cluster_build_us"] = mean(log.durations("hardware.ClusterBuild")) / 1e3
	m["planserver.decode_us"] = mean(log.durations("planserver.decode")) / 1e3
	m["planserver.prepare_us"] = mean(log.durations("planserver.prepare")) / 1e3
	m["planserver.encode_us"] = mean(log.durations("planserver.encode")) / 1e3

	// The cache holds fewer entries than the zoo has keys, so the put
	// loop evicts and the get loop misses as well as hits.
	const cacheRounds = 2000
	c := plancache.New(serveCacheSize)
	entries := make([]*plancache.Entry, len(keys))
	for i, k := range keys {
		entries[i] = &plancache.Entry{Key: k, Plan: plans[i]}
	}
	op++
	t := time.Now()
	for r := 0; r < cacheRounds; r++ {
		for _, en := range entries {
			c.Put(en)
		}
	}
	log.add("plancache.Put.batch", 0, op, t, time.Now())
	op++
	t = time.Now()
	for r := 0; r < cacheRounds; r++ {
		for _, k := range keys {
			c.Get(k)
		}
	}
	log.add("plancache.Get.batch", 0, op, t, time.Now())
	calls := float64(cacheRounds * max(len(keys), 1))
	m["plancache.put_ns"] = mean(log.durations("plancache.Put.batch")) / calls
	m["plancache.get_ns"] = mean(log.durations("plancache.Get.batch")) / calls
}
