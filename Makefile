GO ?= go

.PHONY: build test ci bench-search bench-guard bench-scale bench-serve bench-hetero bench-spot chaos fuzz-smoke trace-smoke diff-smoke churn-smoke serve-smoke hetero-smoke spot-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ci is the pre-merge gate: vet, the full suite, race-detector runs of
# the packages that share caches across goroutines (the search workers
# and the perfmodel stage cache), twenty repeated race runs of the memo
# maps and the profiler database that sits on them (memo Len must
# agree with its contents under any interleaving), a fuzz smoke over
# every corpus-seeded fuzz target, a one-iteration smoke of the
# search-throughput benchmark so hot-path regressions fail loudly, the
# benchmark guard (explored must match the committed BENCH_search.json
# exactly; ns/op and allocs/op must stay within tolerance of it), a
# traced-search smoke (the breakdown auditor fails the build on any
# resource-accounting violation), a short chaos run — which also
# audits every trial's estimates — the differential model-vs-simulator
# smoke (5k effects-off tuples; any Eq.1/Eq.2 invariant violation
# fails the build and leaves a shrunken repro JSON behind), the
# heterogeneous-planning smoke (the mixed-fleet search must keep
# beating the re-priced class-blind plan with its committed explored
# counts and plan fingerprint, and a mixed-cluster diff slice must stay
# violation-free), the continuous-churn smoke (a seeded multi-event
# schedule through elastic.Supervise plus randomized churn chaos
# trials), the spot smoke (randomized spot preemption/notice chaos
# trials plus the notice-drain e2e: window ≥ checkpoint cost must lose
# zero steps), and the planning-daemon smoke (start acesod, one cold
# plan, one cache hit that must replay identical bytes, an SSE stream,
# a /metrics scrape, then a real SIGTERM drain).
#
# Single-fault recovery has no target of its own: Supervise is the one
# recovery engine. The single-fault trajectory gate (checkpoint → kill
# → replan → reshard → resume must rejoin the uninterrupted run within
# 1e-9) runs in `go test ./internal/elastic`
# (TestElasticTrainSurvivesFault), and the randomized single-fault
# draws (random tensor-parallel split dimension and recomputation)
# run inside churn-smoke's chaos trials (internal/chaos.RunChurn).
ci: build
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/core/... ./internal/perfmodel/... ./internal/memo/... ./internal/planserver/... ./internal/plancache/... ./internal/obs/... ./internal/hardware/... ./internal/collective/...
	$(GO) test -race -count=20 ./internal/memo ./internal/profiler
	$(GO) test -race -count=1 -run 'Notice|Spot|DoublePreempt' ./internal/elastic
	$(MAKE) fuzz-smoke
	$(GO) test -run xxx -bench BenchmarkSearchThroughput -benchtime 1x .
	$(MAKE) bench-guard
	$(MAKE) trace-smoke
	$(MAKE) chaos CHAOS_DURATION=10s
	$(MAKE) diff-smoke
	$(MAKE) hetero-smoke
	$(MAKE) churn-smoke
	$(MAKE) spot-smoke
	$(MAKE) serve-smoke

# trace-smoke runs the observability target into a scratch directory:
# it exercises the JSONL tracer, the metrics registry and the breakdown
# auditor on a real search, exiting non-zero on any audit violation.
trace-smoke:
	$(GO) run ./cmd/acesobench -trace-iters 2 -tracefile /tmp/aceso_ci_trace.jsonl trace

# diff-smoke cross-checks the performance model against the simulator
# in model-faithful mode (internal/diffcheck) on DIFF_TRIALS randomized
# tuples: in-flight counts vs Eq.1, term-for-term memory composition,
# per-stage OOM verdicts, GPipe ≥ 1F1B memory, and the signed
# iteration-time band. Violations shrink to BENCH_diff_repro_*.json and
# fail the build.
DIFF_TRIALS ?= 5000
diff-smoke:
	$(GO) run ./cmd/acesobench -diff-trials $(DIFF_TRIALS) -difffile /tmp/aceso_ci_diff.json diff

# fuzz-smoke runs each fuzz target for a few seconds. `go test -fuzz`
# accepts one target per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDeviceSplit -fuzztime=5s ./internal/config
	$(GO) test -fuzz=FuzzParseOpKey -fuzztime=5s ./internal/profiler
	$(GO) test -fuzz=FuzzOpKeyRoundTrip -fuzztime=5s ./internal/profiler
	$(GO) test -fuzz=FuzzSearchNeverPanics -fuzztime=5s ./internal/core
	$(GO) test -fuzz=FuzzRestrictExact -fuzztime=5s ./internal/hardware
	$(GO) test -fuzz=FuzzCheckpointLoadNeverPanics -fuzztime=5s ./internal/elastic
	$(GO) test -fuzz=FuzzChurnEventsNeverPanic -fuzztime=5s ./internal/elastic
	$(GO) test -fuzz=FuzzPreemptNoticeNeverPanics -fuzztime=5s ./internal/elastic

# churn-smoke runs the continuous-churn supervisor benchmark (a seeded
# 22-event schedule of preemptions, re-additions, stragglers and link
# derates through elastic.Supervise) plus randomized churn chaos
# trials. It fails the build if the supervised run diverges from the
# uninterrupted trajectory, the hysteresis never defers a replan, or
# any trial violates the availability/monotonicity invariants. It
# writes BENCH_churn.json into /tmp to keep the tree clean.
CHURN_TRIALS ?= 12
churn-smoke:
	$(GO) run ./cmd/acesobench -churn-trials $(CHURN_TRIALS) -churnfile /tmp/aceso_ci_churn.json churn

# spot-smoke is the fast spot-capacity gate: randomized Poisson-hazard
# preemption streams — with and without reclaim notices — through
# elastic.Supervise (internal/chaos.RunSpot), plus the notice-drain
# end-to-end test: a notice window at least as long as the checkpoint
# cost must yield a clean drain with zero lost steps and a trajectory
# identical to the uninterrupted run. Part of ci.
spot-smoke:
	$(GO) test -count=1 -run TestRunSpotClean ./internal/chaos
	$(GO) test -count=1 -run 'TestSuperviseNoticeDrainZeroLostSteps|TestSuperviseNoticeMissedFallsBack' ./internal/elastic

# bench-spot re-runs the spot-capacity case study (risk-aware vs
# risk-blind planning under a replayed preemption trace, plus spot
# chaos trials) and rewrites BENCH_spot.json; it exits non-zero if the
# risk-aware plan stops beating the re-priced risk-blind plan or the
# achieved-throughput speedup falls under the 1.2x gate.
bench-spot:
	$(GO) run ./cmd/acesobench -seed 1 spot

# hetero-smoke guards the heterogeneous planning case study against the
# committed BENCH_hetero.json: the mixed-fleet search's explored counts
# and chosen-plan fingerprint must match exactly, the hetero-aware plan
# must strictly beat the best class-blind plan re-priced on the mixed
# fleet, and a short mixed-cluster diffcheck slice must come back with
# zero violations. Part of ci.
hetero-smoke:
	$(GO) run ./cmd/acesobench -guard hetero

# bench-hetero re-runs the heterogeneous planning case study and
# rewrites BENCH_hetero.json.
bench-hetero:
	$(GO) run ./cmd/acesobench hetero

# chaos runs the fault-injection harness (internal/chaos) for a short
# wall budget; it exits non-zero on any panic, invalid plan or
# non-finite score. Lengthen with CHAOS_DURATION=120s etc.
CHAOS_DURATION ?= 30s
chaos:
	$(GO) run ./cmd/acesobench -chaos-duration $(CHAOS_DURATION) chaos

# bench-search re-measures search throughput and rewrites the
# "current" block of BENCH_search.json (the recorded baseline is kept).
bench-search:
	$(GO) run ./cmd/acesobench search

# bench-guard re-measures search throughput and checks it against the
# committed BENCH_search.json without rewriting it: the explored count
# must match exactly (the search is bit-identical by contract) and
# ns/op / allocs/op must stay within the guard tolerances. Part of ci.
bench-guard:
	$(GO) run ./cmd/acesobench -guard search

# bench-scale runs the thousand-device scale benchmark (1024/2048/4096
# synthetic V100s, up to 10240-operator graphs) and rewrites
# BENCH_scale.json, exiting non-zero if any explored count drifted from
# the committed file.
bench-scale:
	$(GO) run ./cmd/acesobench scale

# serve-smoke boots the planning daemon in self-test mode on an
# ephemeral port: cold plan → exact cache hit (bytes must match) →
# SSE stream → /metrics scrape → /healthz → SIGTERM drain. Part of ci.
serve-smoke:
	$(GO) run ./cmd/acesod -smoke

# bench-serve load-tests the planserver over real HTTP (load, overload,
# drain and cache-identity phases) and rewrites BENCH_serve.json,
# exiting non-zero on any error-rate or cache-correctness gate.
bench-serve:
	$(GO) run ./cmd/acesobench serve
