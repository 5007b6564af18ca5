# Developer entry points. `make check` is the gate every PR must pass.

GO ?= go

.PHONY: check vet fmt build test race fuzz benchmark-test bench resilience crashsweep cover stencil stress serve weakscale powercap align loc

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
## layer, and the root package's API tests. A validated run's bytes move on
## memspace's plane workers beside the engine, so the kernels and the
## applications whose bodies run there are checked too
race:
	$(GO) test -race . ./internal/sim/... ./internal/netsim/... ./internal/gpusim/... ./internal/gasnet/... ./internal/cuda/... ./internal/mpi/... \
		./internal/core/... ./internal/faults/... ./internal/bench/... ./internal/serve/... \
		./internal/dmgr/... ./internal/depgraph/... ./internal/memspace/... ./internal/coherence/... ./internal/sched/... \
		./internal/apps/... ./internal/kernels/...

## fuzz: every native fuzz target for 20 s (go test takes one target and one
## package per -fuzz run). The seed corpora, checked in under testdata/fuzz
## or built in the fuzz test (core's FuzzRun), already run as plain tests in
## `make test`. A FuzzRun exec is a whole simulated run, so the new inputs
## it finds are minimised for at most 5 s
fuzz:
	$(GO) test -run xxx -fuzz FuzzDirectory -fuzztime 20s ./internal/coherence/
	$(GO) test -run xxx -fuzz FuzzFragMap -fuzztime 20s ./internal/memspace/
	$(GO) test -run xxx -fuzz FuzzStore -fuzztime 20s ./internal/memspace/
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 20s ./internal/mercurium/
	$(GO) test -run xxx -fuzz FuzzParseRequest -fuzztime 20s ./internal/serve/
	$(GO) test -run xxx -fuzz FuzzDepgraph -fuzztime 20s ./internal/depgraph/
	$(GO) test -run xxx -fuzz FuzzRun -fuzztime 20s -fuzzminimizetime 5s ./internal/core/

## align: each validated kernel's Run address mod 64 in an ompss-bench
## built as the benchmark builds it, and that of the first instruction of
## Sgemm's sixteen-lane assembly loop on amd64 (PCALIGN holds it at 0). A
## Go loop's speed can depend on where the linker puts it, and that moves
## with any change to the binary, so compare both sides before crediting a
## change with a weakscale or paper_figs move
align:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -buildvcs=false -o "$$d/ompss-bench" ./cmd/ompss-bench && \
	$(GO) tool nm "$$d/ompss-bench" | grep -E 'kernels\.(Sgemm|JacobiStep|StreamTriad)\.Run$$' | \
	while read addr kind sym; do echo "$${sym##*/} $$((0x$$addr % 64)) mod 64"; done && \
	$(GO) tool objdump -s 'kernels\.sgemm\.abi0$$' "$$d/ompss-bench" | awk '/MOVUPS/ { print $$2; exit }' | \
	while read addr; do echo "sgemm loop $$((addr % 64)) mod 64"; done

## loc: non-test Go lines per internal/ package and their total, the
## measure ROADMAP's line budgets are written in
loc:
	@find internal -name '*.go' ! -name '*_test.go' | while read -r f; do \
		echo "$$(dirname "$$f") $$(wc -l < "$$f")"; done | \
	awk '{ n[$$1] += $$2; t += $$2 } END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2

## benchmark-test: the benchmark harness's own tests. benchmark/ is a
## separate Go module, so `go test ./...` and `make check` at the root never
## see it
benchmark-test:
	cd benchmark && $(GO) test ./...

## resilience: the fault-plan test matrix, the crash sweep's tier-1 sample
## and the quick resilience grid
resilience:
	$(GO) test ./internal/faults/ ./internal/core/ -run 'Resilience|Fault|CrashSweep'
	$(GO) test ./internal/gasnet/ -run 'Reliable|Ack|Attempts|Shutdown|Probe|InboundFilter'
	$(GO) run ./cmd/ompss-bench -experiment resilience -quick

## crashsweep: every point of the crash sweep (internal/core/crashsweep_test.go;
## the build tag adds crashsweep_full_test.go): crash points derived from a
## crash-free trace of the inc-chain, double-crash, nested and Heat steps 1
## shapes, each of which must be ok, then Heat at steps 2 and 4 as a report
crashsweep:
	$(GO) test -tags crashsweep -run CrashSweepFull -v -timeout 30m ./internal/core/

## bench: microbenchmarks (ns/op and allocs/op) of the sim primitives, the
## software cache's invalidation sweep and a directory query, depgraph
## submission, the three shapes of a FragMap cover and an exact-region
## visit, an idle place's pop, a ready task's submit and pop under each
## policy, a served warm hit, a remote task at the 8-node weakscale point
## unarmed and under a quiet fault plan (with its spawns, resumes and
## events per task), the validated
## kernels: one Sgemm tile (and the Go loop amd64's assembly replaces), one
## JacobiStep block and the 8-node heat reference, and a 20,000-task
## submission stress (bench's BenchmarkStress)
bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/coherence/ ./internal/depgraph/ ./internal/memspace/ ./internal/sched/ ./internal/serve/ ./internal/core/ ./internal/kernels/ ./internal/apps/ ./internal/bench/

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
