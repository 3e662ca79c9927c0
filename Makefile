GO ?= go

.PHONY: build test ci fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ci is the pre-merge gate:
#   - vet and the full test suite;
#   - the race detector over the packages that share state across
#     goroutines, then twenty repeated race runs of the SnapMap memo
#     maps and their users (the profiler database and the perfmodel
#     stage cache: Len must agree with the contents under any
#     interleaving), then the spot notice paths of elastic.Supervise;
#   - fuzz-smoke;
#   - `acesobench smoke`: every benchmark gate in check mode, writing
#     only into a temp dir (`go run ./cmd/acesobench -h` lists them);
#   - `acesod -smoke`: the planning daemon's cold plan, cache hit with
#     identical bytes, SSE stream, /metrics scrape and SIGTERM drain.
ci: build
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/core/... ./internal/perfmodel/... ./internal/memo/... ./internal/planserver/... ./internal/plancache/... ./internal/obs/... ./internal/hardware/... ./internal/collective/...
	$(GO) test -race -count=20 ./internal/memo ./internal/profiler ./internal/perfmodel
	$(GO) test -race -count=1 -run 'Notice|Spot|DoublePreempt' ./internal/elastic
	$(MAKE) fuzz-smoke
	$(GO) run ./cmd/acesobench smoke
	$(GO) run ./cmd/acesod -smoke

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
