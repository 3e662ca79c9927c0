package main

// The serve target load-tests the planserver the way production
// traffic would hit acesod: thousands of concurrent plan requests over
// real HTTP against a mixed model zoo, plus dedicated overload, drain,
// and cache-correctness phases. It writes BENCH_serve.json and fails
// when a gate fails:
//
//   - any transport or unexpected-status error during the load phase
//   - cache hit rate of 0 on the repeated-request mix
//   - no warm near-miss hit on the degraded-cluster probe
//   - no 429 shed under deliberate overload
//   - any dropped in-flight request across a graceful drain
//   - a cached plan whose bytes differ from a fresh search of the
//     same (graph, cluster, options) key on a virgin server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"aceso/internal/obs"
	"aceso/internal/planserver"
)

// zooItem is one request template of the mixed workload.
type zooItem struct {
	name string
	req  planserver.PlanRequest
	// degraded marks the near-miss template whose plan is produced by
	// a warm-started search; it is excluded from the fresh-server
	// identity check (a virgin server has no donor to warm from).
	degraded bool
}

func serveZoo() []zooItem {
	tiny := func(seed int64) planserver.PlanRequest {
		return planserver.PlanRequest{
			Model:   planserver.ModelSpec{Family: "tinygpt", Layers: 2, Seq: 64, Hidden: 128, Heads: 4, Batch: 8},
			Cluster: planserver.ClusterSpec{Nodes: 1, Restrict: 4},
			Options: planserver.SearchOptions{BudgetMS: 10_000, MaxIterations: 2, StageCounts: []int{1, 2}, Seed: seed},
		}
	}
	degraded := tiny(7)
	degraded.Cluster.Faults = &planserver.FaultsSpec{Dead: []int{3}}
	bigger := planserver.PlanRequest{
		Model:   planserver.ModelSpec{Family: "tinygpt", Layers: 4, Seq: 128, Hidden: 256, Heads: 4, Batch: 16},
		Cluster: planserver.ClusterSpec{Nodes: 1, Restrict: 8},
		Options: planserver.SearchOptions{BudgetMS: 10_000, MaxIterations: 2, StageCounts: []int{2, 4}, Seed: 7},
	}
	mlp := planserver.PlanRequest{
		Model:   planserver.ModelSpec{Family: "mlp", Layers: 4, Dim: 256, Batch: 16},
		Cluster: planserver.ClusterSpec{Nodes: 1, Restrict: 4},
		Options: planserver.SearchOptions{BudgetMS: 10_000, MaxIterations: 2, StageCounts: []int{1, 2}, Seed: 3},
	}
	mlpnorm := mlp
	mlpnorm.Model.Family = "mlpnorm"
	uni := planserver.PlanRequest{
		Model:   planserver.ModelSpec{Family: "uniform", Ops: 16, FLOPs: 1e9, Params: 1e6, Act: 1e5, Batch: 8},
		Cluster: planserver.ClusterSpec{Nodes: 1, Restrict: 4},
		Options: planserver.SearchOptions{BudgetMS: 10_000, MaxIterations: 2, StageCounts: []int{1, 2}, Seed: 5},
	}
	uniWide := uni
	uniWide.Model.Ops = 24
	uniWide.Cluster.Restrict = 8
	uniWide.Options.StageCounts = []int{2, 4}
	return []zooItem{
		{name: "tinygpt-4dev", req: tiny(7)},
		{name: "tinygpt-4dev-degraded", req: degraded, degraded: true},
		{name: "tinygpt-4dev-seed9", req: tiny(9)},
		{name: "tinygpt-8dev", req: bigger},
		{name: "mlp-4dev", req: mlp},
		{name: "mlpnorm-4dev", req: mlpnorm},
		{name: "uniform-16op", req: uni},
		{name: "uniform-24op", req: uniWide},
	}
}

// planPost sends one plan request and decodes the envelope.
func planPost(client *http.Client, base string, pr planserver.PlanRequest) (int, planserver.PlanResponse, error) {
	var out planserver.PlanResponse
	raw, err := json.Marshal(pr)
	if err != nil {
		return 0, out, err
	}
	resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, out, err
		}
		return resp.StatusCode, out, nil
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, out, nil
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

type serveBenchFile struct {
	Benchmark string `json:"benchmark"`
	Setting   string `json:"setting"`

	Requests    int     `json:"requests"`
	Clients     int     `json:"clients"`
	Served      int     `json:"served"`
	Errors      int     `json:"errors"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	Throughput  float64 `json:"throughput_rps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	CacheHits   int     `json:"cache_hits"`
	CacheWarm   int     `json:"cache_warm"`
	CacheMisses int     `json:"cache_misses"`
	HitRate     float64 `json:"cache_hit_rate"`

	WarmObserved bool `json:"warm_observed"`

	Overload struct {
		Requests int `json:"requests"`
		Served   int `json:"served"`
		Shed     int `json:"shed"`
		Errors   int `json:"errors"`
	} `json:"overload"`

	Drain struct {
		Requests         int `json:"requests"`
		Completed        int `json:"completed"`
		RejectedDraining int `json:"rejected_draining"`
		Dropped          int `json:"dropped"`
	} `json:"drain"`

	CacheIdentity struct {
		KeysChecked int  `json:"keys_checked"`
		Identical   bool `json:"identical"`
	} `json:"cache_identity"`

	Metrics *obs.Registry `json:"metrics"`
}

// runServeBench executes the four phases, writes the report and
// returns its failed gates.
func runServeBench(e *env) error {
	const requests, clients = serveRequests, serveClients
	w := e.w
	fmt.Fprintf(w, "running serve load benchmark (%d requests, %d clients)...\n", requests, clients)
	zoo := serveZoo()
	reg := obs.NewRegistry()
	srv := planserver.New(planserver.Config{
		Concurrency: runtime.GOMAXPROCS(0),
		Queue:       requests, // the load phase must shed nothing
		Registry:    reg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	var rep serveBenchFile
	rep.Benchmark = "planserver-load"
	rep.Setting = fmt.Sprintf("%d requests over %d-item zoo, %d client workers, concurrency %d, in-process HTTP",
		requests, len(zoo), clients, runtime.GOMAXPROCS(0))
	rep.Requests = requests
	rep.Clients = clients
	rep.Metrics = reg
	var gs gates

	// Phase 0 — sequential warm probe: seed the healthy plan, then the
	// degraded variant must warm-start from it.
	for _, it := range zoo {
		if it.degraded {
			continue
		}
		code, out, err := planPost(client, ts.URL, it.req)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("seed %s: status %d err %v", it.name, code, err)
		}
		if out.Cache != "miss" {
			return fmt.Errorf("seed %s: cache %q, want miss", it.name, out.Cache)
		}
	}
	for _, it := range zoo {
		if !it.degraded {
			continue
		}
		code, out, err := planPost(client, ts.URL, it.req)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("warm probe %s: status %d err %v", it.name, code, err)
		}
		rep.WarmObserved = out.Cache == "warm"
		gs.check(rep.WarmObserved, "degraded near-miss served as %q, want warm", out.Cache)
	}

	// Phase 1 — concurrent load over the zoo. Every plan is now cached,
	// so the mix exercises the hit path under contention; a slice of
	// requests carries NoCache to keep real searches in flight too.
	fmt.Fprintf(w, "serve: load phase — %d requests, %d clients...\n", requests, clients)
	lat := make([]time.Duration, requests)
	kinds := make([]string, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	startLoad := time.Now()
	next := make(chan int)
	go func() {
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				it := zoo[i%len(zoo)]
				pr := it.req
				if i%17 == 0 && !it.degraded {
					pr.NoCache = true // keep cold searches in the mix
				}
				t0 := time.Now()
				code, out, err := planPost(client, ts.URL, pr)
				lat[i] = time.Since(t0)
				if err != nil {
					errs[i] = err
					continue
				}
				if code != http.StatusOK {
					errs[i] = fmt.Errorf("status %d", code)
					continue
				}
				kinds[i] = out.Cache
			}
		}()
	}
	wg.Wait()
	rep.ElapsedSec = time.Since(startLoad).Seconds()

	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			rep.Errors++
			if rep.Errors <= 3 {
				fmt.Fprintf(w, "serve: request %d (%s): %v\n", i, zoo[i%len(zoo)].name, errs[i])
			}
			continue
		}
		rep.Served++
		switch kinds[i] {
		case "hit":
			rep.CacheHits++
		case "warm":
			rep.CacheWarm++
		default:
			rep.CacheMisses++
		}
	}
	gs.check(rep.Errors == 0, "%d/%d load-phase requests failed", rep.Errors, requests)
	if rep.Served > 0 {
		rep.HitRate = float64(rep.CacheHits) / float64(rep.Served)
	}
	gs.check(rep.HitRate > 0, "cache hit rate 0 on repeated-request mix")
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	rep.P50MS = percentile(lat, 0.50).Seconds() * 1e3
	rep.P95MS = percentile(lat, 0.95).Seconds() * 1e3
	rep.P99MS = percentile(lat, 0.99).Seconds() * 1e3
	rep.MaxMS = lat[len(lat)-1].Seconds() * 1e3
	if rep.ElapsedSec > 0 {
		rep.Throughput = float64(rep.Served) / rep.ElapsedSec
	}
	fmt.Fprintf(w, "serve: load done — %d served, %d errors, p50 %.2fms p99 %.2fms, hit rate %.1f%%, %.0f req/s\n",
		rep.Served, rep.Errors, rep.P50MS, rep.P99MS, rep.HitRate*100, rep.Throughput)

	// Phase 2 — overload: a small server must shed with 429s, not
	// queue without bound or fall over.
	overSrv := planserver.New(planserver.Config{Concurrency: 2, Queue: 2})
	overTS := httptest.NewServer(overSrv.Handler())
	defer overTS.Close()
	overReq := planserver.PlanRequest{
		Model:   planserver.ModelSpec{Family: "gpt3", Size: "350M"},
		Cluster: planserver.ClusterSpec{Nodes: 1},
		Options: planserver.SearchOptions{BudgetMS: 1000, Seed: 1},
		NoCache: true,
	}
	const overN = 24
	rep.Overload.Requests = overN
	var owg sync.WaitGroup
	ocodes := make([]int, overN)
	oerrs := make([]error, overN)
	for i := 0; i < overN; i++ {
		owg.Add(1)
		go func(i int) {
			defer owg.Done()
			code, _, err := planPost(overTS.Client(), overTS.URL, overReq)
			ocodes[i], oerrs[i] = code, err
		}(i)
		time.Sleep(10 * time.Millisecond)
	}
	owg.Wait()
	for i := 0; i < overN; i++ {
		switch {
		case oerrs[i] != nil:
			rep.Overload.Errors++
		case ocodes[i] == http.StatusOK:
			rep.Overload.Served++
		case ocodes[i] == http.StatusTooManyRequests:
			rep.Overload.Shed++
		default:
			rep.Overload.Errors++
		}
	}
	gs.check(rep.Overload.Shed > 0, "overload shed nothing (%d served, %d errors)", rep.Overload.Served, rep.Overload.Errors)
	gs.check(rep.Overload.Errors == 0, "%d overload requests errored", rep.Overload.Errors)
	fmt.Fprintf(w, "serve: overload — %d served, %d shed (429), %d errors\n",
		rep.Overload.Served, rep.Overload.Shed, rep.Overload.Errors)

	// Phase 3 — graceful drain: every in-flight request completes,
	// every late request gets a clean 503, nothing is dropped.
	drainSrv := planserver.New(planserver.Config{Concurrency: 2, Queue: 64})
	drainTS := httptest.NewServer(drainSrv.Handler())
	defer drainTS.Close()
	const drainN = 40
	rep.Drain.Requests = drainN
	dcodes := make([]int, drainN)
	derrs := make([]error, drainN)
	var dwg sync.WaitGroup
	for i := 0; i < drainN; i++ {
		pr := serveZoo()[0].req
		pr.Options.Seed = int64(1000 + i) // distinct keys: real searches
		pr.NoCache = true
		dwg.Add(1)
		go func(i int, pr planserver.PlanRequest) {
			defer dwg.Done()
			code, _, err := planPost(drainTS.Client(), drainTS.URL, pr)
			dcodes[i], derrs[i] = code, err
		}(i, pr)
	}
	time.Sleep(50 * time.Millisecond)
	drainSrv.Drain()
	dwg.Wait()
	for i := 0; i < drainN; i++ {
		switch {
		case derrs[i] != nil:
			rep.Drain.Dropped++
		case dcodes[i] == http.StatusOK:
			rep.Drain.Completed++
		case dcodes[i] == http.StatusServiceUnavailable:
			rep.Drain.RejectedDraining++
		default:
			rep.Drain.Dropped++
		}
	}
	gs.check(rep.Drain.Dropped == 0, "%d requests dropped across drain", rep.Drain.Dropped)
	gs.check(rep.Drain.Completed > 0, "drain admitted nothing; nothing was in flight")
	fmt.Fprintf(w, "serve: drain — %d completed, %d rejected (503), %d dropped\n",
		rep.Drain.Completed, rep.Drain.RejectedDraining, rep.Drain.Dropped)

	// Phase 4 — cache correctness: for every non-degraded zoo key, the
	// plan a virgin server produces from a cold search must be
	// bit-identical to the bytes the loaded server serves from cache.
	freshSrv := planserver.New(planserver.Config{})
	freshTS := httptest.NewServer(freshSrv.Handler())
	defer freshTS.Close()
	rep.CacheIdentity.Identical = true
	for _, it := range zoo {
		if it.degraded {
			continue // a virgin server has no warm donor for this key
		}
		code, cached, err := planPost(client, ts.URL, it.req)
		if err != nil || code != http.StatusOK || cached.Cache != "hit" {
			return fmt.Errorf("identity %s: cached fetch status %d cache %q err %v", it.name, code, cached.Cache, err)
		}
		fcode, fresh, err := planPost(freshTS.Client(), freshTS.URL, it.req)
		if err != nil || fcode != http.StatusOK {
			return fmt.Errorf("identity %s: fresh search status %d err %v", it.name, fcode, err)
		}
		rep.CacheIdentity.KeysChecked++
		if !bytes.Equal(cached.Plan, fresh.Plan) {
			rep.CacheIdentity.Identical = false
			gs.check(false, "cached plan for %s differs from fresh search (key %s)", it.name, cached.Key)
		}
	}
	fmt.Fprintf(w, "serve: cache identity — %d keys checked, identical=%v\n",
		rep.CacheIdentity.KeysChecked, rep.CacheIdentity.Identical)

	path := e.path("BENCH_serve.json")
	if err := writeJSON(path, &rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "serve: report written to %s\n", path)
	return gs.err()
}
