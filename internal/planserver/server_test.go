package planserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aceso/internal/plancache"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tinyRequest is a deterministic, fast plan request: iteration-bounded
// search over a small model and a handful of devices.
func tinyRequest() PlanRequest {
	return PlanRequest{
		Model:   ModelSpec{Family: "tinygpt", Layers: 2, Seq: 64, Hidden: 128, Heads: 4, Batch: 8},
		Cluster: ClusterSpec{Nodes: 1, Restrict: 4},
		Options: SearchOptions{
			BudgetMS:      10_000,
			MaxIterations: 2,
			StageCounts:   []int{1, 2},
			Seed:          7,
		},
	}
}

func postPlan(t *testing.T, url string, pr PlanRequest) (*http.Response, PlanResponse) {
	t.Helper()
	body, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out PlanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, out
}

func TestPlanMissThenHitBitIdentical(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp1, out1 := postPlan(t, ts.URL, tinyRequest())
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp1.StatusCode)
	}
	if out1.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", out1.Cache)
	}
	var plan Plan
	if err := json.Unmarshal(out1.Plan, &plan); err != nil {
		t.Fatalf("plan decode: %v", err)
	}
	if plan.Config == nil || len(plan.Config.Stages) == 0 || plan.IterTimeSeconds <= 0 {
		t.Fatalf("implausible plan: %+v", plan)
	}
	if len(plan.Stages) != len(plan.Config.Stages) {
		t.Fatalf("breakdown has %d stages, config %d", len(plan.Stages), len(plan.Config.Stages))
	}

	resp2, out2 := postPlan(t, ts.URL, tinyRequest())
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if out2.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", out2.Cache)
	}
	if !bytes.Equal(out1.Plan, out2.Plan) {
		t.Fatal("cached plan bytes differ from the fresh search")
	}
	if out1.Key != out2.Key {
		t.Fatalf("keys differ: %s vs %s", out1.Key, out2.Key)
	}

	// NoCache forces a fresh search for the same key; the deterministic
	// search must reproduce the plan bit-identically.
	fresh := tinyRequest()
	fresh.NoCache = true
	resp3, out3 := postPlan(t, ts.URL, fresh)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("nocache request: status %d", resp3.StatusCode)
	}
	if out3.Cache != "miss" {
		t.Fatalf("nocache request cache = %q, want miss", out3.Cache)
	}
	if !bytes.Equal(out1.Plan, out3.Plan) {
		t.Fatal("fresh search not bit-identical to cached plan for the same key")
	}
}

func TestWarmNearMissOnDegradedCluster(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, out := postPlan(t, ts.URL, tinyRequest())
	if resp.StatusCode != http.StatusOK || out.Cache != "miss" {
		t.Fatalf("seed request: status %d cache %q", resp.StatusCode, out.Cache)
	}

	// Same model and options, one dead device: exact key differs, warm
	// donor applies.
	degraded := tinyRequest()
	degraded.Cluster.Faults = &FaultsSpec{Dead: []int{3}}
	resp2, out2 := postPlan(t, ts.URL, degraded)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d", resp2.StatusCode)
	}
	if out2.Cache != "warm" {
		t.Fatalf("degraded request cache = %q, want warm", out2.Cache)
	}
	if out2.Key == out.Key {
		t.Fatal("degraded cluster produced the same cache key")
	}
	var plan Plan
	if err := json.Unmarshal(out2.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Devices >= 4 {
		t.Fatalf("degraded plan spans %d devices, want < 4", plan.Devices)
	}
	if st := s.Cache().Stats(); st.WarmHits == 0 {
		t.Fatalf("cache stats show no warm hit: %+v", st)
	}

	// Repeat of the degraded request is now an exact hit.
	resp3, out3 := postPlan(t, ts.URL, degraded)
	if resp3.StatusCode != http.StatusOK || out3.Cache != "hit" {
		t.Fatalf("degraded repeat: status %d cache %q", resp3.StatusCode, out3.Cache)
	}
	if !bytes.Equal(out2.Plan, out3.Plan) {
		t.Fatal("degraded cached plan differs")
	}
}

func TestBackpressureSheds429(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 1, Queue: 1})

	slow := tinyRequest()
	slow.Model = ModelSpec{Family: "gpt3", Size: "350M"}
	slow.Options = SearchOptions{BudgetMS: 2000, Seed: 1}
	slow.NoCache = true

	const n = 6
	type shedResult struct {
		code       int
		retryAfter string
	}
	codes := make(chan shedResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(slow)
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- shedResult{code: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- shedResult{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}()
		time.Sleep(30 * time.Millisecond) // let earlier requests claim slot+queue
	}
	wg.Wait()
	close(codes)
	var ok, shed, other int
	for c := range codes {
		switch c.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if c.retryAfter == "" {
				t.Error("429 response missing Retry-After header")
			}
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("unexpected status codes: ok=%d shed=%d other=%d", ok, shed, other)
	}
	if shed == 0 {
		t.Fatalf("no request shed under overload (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("every request shed; admission never succeeded")
	}
}

func TestGracefulDrainDropsNothing(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 2, Queue: 32})

	const n = 8
	type outcome struct {
		code int
		err  error
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pr := tinyRequest()
		pr.Options.Seed = int64(100 + i) // distinct keys: all real searches
		pr.NoCache = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(pr)
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{code: resp.StatusCode}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let some requests get in flight
	s.Drain()
	wg.Wait()
	close(results)

	var served, rejected int
	for r := range results {
		if r.err != nil {
			t.Fatalf("dropped request (transport error): %v", r.err)
		}
		switch r.code {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("unexpected status %d during drain", r.code)
		}
	}
	if served+rejected != n {
		t.Fatalf("served %d + rejected %d != %d", served, rejected, n)
	}

	// Post-drain: new requests are rejected with a retry hint, health
	// reports draining with the same hint.
	resp, _ := postPlan(t, ts.URL, tinyRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain plan request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain 503 missing Retry-After header")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", hresp.StatusCode)
	}
	if hresp.Header.Get("Retry-After") == "" {
		t.Error("post-drain healthz 503 missing Retry-After header")
	}
}

func TestSSEStreamsIterationsAndResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	pr := tinyRequest()
	pr.Stream = true
	body, _ := json.Marshal(pr)
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "event: iteration\n") {
		t.Fatalf("no iteration frames in stream:\n%s", text)
	}
	i := strings.LastIndex(text, "event: result\ndata: ")
	if i < 0 {
		t.Fatalf("no result frame in stream:\n%s", text)
	}
	line := text[i+len("event: result\ndata: "):]
	line = strings.TrimSpace(line)
	var out PlanResponse
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result frame decode: %v", err)
	}
	var plan Plan
	if err := json.Unmarshal(out.Plan, &plan); err != nil || plan.Config == nil {
		t.Fatalf("streamed plan invalid: %v", err)
	}
}

func TestMetricsAndStatsEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})
	postPlan(t, ts.URL, tinyRequest())
	postPlan(t, ts.URL, tinyRequest())

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE aceso_serve_requests_total counter",
		`aceso_serve_requests_total{code="200"} 2`,
		`aceso_serve_cache_hits_total{kind="exact"} 1`,
		"# TYPE aceso_serve_cache_entries gauge",
		"# TYPE aceso_serve_request_seconds_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Entries int `json:"entries"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []PlanRequest{
		{Model: ModelSpec{Family: "nope"}, Cluster: ClusterSpec{Nodes: 1}},
		{Model: ModelSpec{Family: "mlp", Layers: 2, Dim: 64, Batch: 8}, Cluster: ClusterSpec{Nodes: 0}},
		{Model: ModelSpec{Family: "mlp", Layers: 2, Dim: 64, Batch: 8}, Cluster: ClusterSpec{Nodes: 1, Faults: &FaultsSpec{Dead: []int{99}}}},
	}
	for i, pr := range cases {
		resp, _ := postPlan(t, ts.URL, pr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

// TestWideResNetSpellingsShareGraph pins that the daemon's historical
// "wideresnet" and the CLI's "wresnet" name one family: both build the
// same graph, so they share plan-cache entries.
func TestWideResNetSpellingsShareGraph(t *testing.T) {
	var hashes []uint64
	for _, family := range []string{"wideresnet", "wresnet"} {
		spec := ModelSpec{Family: family, Size: "0.5B"}
		g, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		hashes = append(hashes, plancache.GraphHash(g))
	}
	if hashes[0] != hashes[1] {
		t.Errorf("graph hashes differ: wideresnet %x, wresnet %x", hashes[0], hashes[1])
	}
}

func TestOptionsNormalizationSharesCacheKey(t *testing.T) {
	s, ts := testServer(t, Config{DefaultBudget: 10 * time.Second})
	a := tinyRequest()
	a.Options.BudgetMS = 10_000
	b := tinyRequest()
	b.Options.BudgetMS = 0 // server default, same normalized budget
	_, outA := postPlan(t, ts.URL, a)
	_, outB := postPlan(t, ts.URL, b)
	if outA.Key != outB.Key {
		t.Fatalf("normalized options hash differs: %s vs %s", outA.Key, outB.Key)
	}
	if outB.Cache != "hit" {
		t.Fatalf("default-budget request cache = %q, want hit", outB.Cache)
	}
	if s.Cache().Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", s.Cache().Len())
	}
}
