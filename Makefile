# Developer entry points. `make check` is the gate every PR must pass.

GO ?= go

.PHONY: check vet fmt build test race fuzz benchmark-test bench resilience cover stencil stress serve weakscale powercap

## check: gofmt + go vet + build + full test suite (the tier-1 gate; the
## determinism rules of DESIGN.md §9 are a test in it, internal/sim/rules_test.go)
check: fmt vet build test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## test: every package's tests, including cmd/smoke_test.go, the end-to-end
## smoke of the built binaries (resident serve with SIGTERM drain, quick
## weakscale and powercap, two examples)
test:
	$(GO) test ./...

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
	$(GO) test -run xxx -fuzz FuzzStore -fuzztime 20s ./internal/memspace/
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 20s ./internal/mercurium/
	$(GO) test -run xxx -fuzz FuzzParseRequest -fuzztime 20s ./internal/serve/

## benchmark-test: the benchmark harness's own tests. benchmark/ is a
## separate Go module, so `go test ./...` and `make check` at the root never
## see it
benchmark-test:
	cd benchmark && $(GO) test ./...

## resilience: the fault-plan test matrix plus the quick resilience grid
resilience:
	$(GO) test ./internal/faults/ ./internal/core/ -run 'Resilience|Fault'
	$(GO) test ./internal/gasnet/ -run 'Reliable|Ack|Attempts|Shutdown|Probe|InboundFilter'
	$(GO) run ./cmd/ompss-bench -experiment resilience -quick

## bench: microbenchmarks (ns/op and allocs/op) of the sim primitives, the
## software cache's invalidation sweep and a directory query, depgraph
## submission, the three shapes of a FragMap cover, an idle place's pop
## and a served warm hit
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/coherence/ ./internal/depgraph/ ./internal/memspace/ ./internal/sched/ ./internal/serve/

## stress: full-size submission stress (10^6 tasks: tasks/sec of the graph,
## scheduler and directory hot path; -cpuprofile/-memprofile work here too)
stress:
	$(GO) run ./cmd/ompss-bench -experiment stress

## serve: run the resident experiment service on :8080 (POST /v1/experiments;
## see EXPERIMENTS.md "Serving experiments")
serve:
	$(GO) run ./cmd/ompss-serve

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
