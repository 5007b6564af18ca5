# Developer entry points. `make check` is the gate every PR must pass.

GO ?= go

.PHONY: check vet fmt build test lint lint-json race fuzz benchmark-test bench baseline resilience cover bench-guard stencil stress serve loadtest weakscale powercap

## check: gofmt + go vet + build + ompss-lint + full test suite (the tier-1 gate)
check: fmt vet build lint test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: the determinism/engine-blocking/dependence analyzers (DESIGN.md §9);
## any unsuppressed finding fails the gate. There is no lock analyzer: where
## the threads are, and that serve has one mutex, is a test in internal/sim
lint:
	$(GO) run ./cmd/ompss-lint ./...

## lint-json: the same six passes as machine-readable records in lint.json
## (suppressed findings included — this is the CI lint-report artifact)
lint-json:
	$(GO) run ./cmd/ompss-lint -json ./... > lint.json || true
	@echo "wrote lint.json"

## race: race-detect every package that starts a process on the simulation
## engine. The engine has no lock: one thread of control per engine (Run's
## loop and the coroutine it switched to) is the only thing that stands
## between these layers and a data race, and the race detector is what
## checks it — the kernel, the substrates on it (netsim, gpusim, gasnet,
## cuda, mpi), the runtime (core, faults) and its bookkeeping layers
## (lock-free by the same contract), the parallel harness, the serving
## layer, and the root package's API tests
race:
	$(GO) test -race . ./internal/sim/... ./internal/netsim/... ./internal/gpusim/... ./internal/gasnet/... ./internal/cuda/... ./internal/mpi/... \
		./internal/core/... ./internal/faults/... ./internal/bench/... ./internal/serve/... \
		./internal/dmgr/... ./internal/depgraph/... ./internal/memspace/... ./internal/coherence/... ./internal/sched/...

## fuzz: every native fuzz target for 20 s (go test takes one target and one
## package per -fuzz run). The checked-in seed corpora under testdata/fuzz
## already run as plain tests in `make test`
fuzz:
	$(GO) test -run xxx -fuzz FuzzDirectory -fuzztime 20s ./internal/coherence/
	$(GO) test -run xxx -fuzz FuzzFragMap -fuzztime 20s ./internal/memspace/

## benchmark-test: the benchmark harness's own tests. benchmark/ is a
## separate Go module, so `go test ./...`, `make check` and ompss-lint at
## the root never see it
benchmark-test:
	cd benchmark && $(GO) test ./...

## resilience: the fault-plan test matrix plus the quick resilience grid
resilience:
	$(GO) test ./internal/faults/ ./internal/core/ -run 'Resilience|Fault'
	$(GO) test ./internal/gasnet/ -run 'Reliable|Ack|Attempts|Shutdown|Probe|InboundFilter'
	$(GO) run ./cmd/ompss-bench -experiment resilience -quick

## bench: microbenchmarks (ns/op and allocs/op) of the sim primitives, the
## software cache's invalidation sweep, depgraph submission and the three
## shapes of a FragMap cover
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/coherence/ ./internal/depgraph/ ./internal/memspace/

## stress: full-size submission stress (10^6 tasks: tasks/sec of the graph,
## scheduler and directory hot path; -cpuprofile/-memprofile work here too)
stress:
	$(GO) run ./cmd/ompss-bench -experiment stress

## baseline: time `ompss-bench -experiment all -quick` into BENCH_harness.json
baseline:
	sh scripts/perf_baseline.sh

## bench-guard: rerun the quick suite and fail on wall-clock, armed-overhead
## or submission tasks/sec regression vs BENCH_harness.json (non-required CI
## job; wide tolerance)
bench-guard:
	sh scripts/bench_guard.sh

## serve: run the resident experiment service on :8080 (POST /v1/experiments;
## see EXPERIMENTS.md "Serving experiments")
serve:
	$(GO) run ./cmd/ompss-serve

## loadtest: the canonical serve load test — 1000 concurrent clients against
## a warm cache; fails below 99% hit rate (the binary's -clients/-requests/
## -distinct flags tune it). The end-to-end smoke of the binaries — resident
## serve with SIGTERM drain, selftest, quick weakscale and powercap — is
## cmd/smoke_test.go, part of `make test`
loadtest:
	$(GO) run ./cmd/ompss-serve -selftest

## weakscale: the full weak-scaling grid (8/64/256 nodes, centralized vs
## sharded managers; tasks/sec and directory-ops/sec in virtual time)
weakscale:
	$(GO) run ./cmd/ompss-bench -experiment weakscale

## powercap: the power-capped heterogeneous frontier at quick sizes.
## Mixed GTX480+Tesla cluster, bf/default/affinity/heft at a
## descending cap ladder; the built-in verify row fails the run if a
## capped checksum diverges from uncapped or the recorded peak exceeds
## the cap
powercap:
	$(GO) run ./cmd/ompss-bench -experiment powercap -quick

## stencil: run the heat example (overlapping halo regions) on a simulated
## 2-node GPU cluster and verify the checksum against the serial version
stencil:
	$(GO) run ./examples/heat -nodes 2 -verify

## cover: full test suite with a coverage profile, per-function summary,
## and a browsable HTML report (coverage.html; CI uploads it as artifact)
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	$(GO) tool cover -html=coverage.out -o coverage.html
	@echo "wrote coverage.html"
