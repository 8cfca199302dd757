# CI gates for the ecndelay reproduction. `make ci` is the full gate;
# `make race` is the correctness gate for the concurrent sweep engine.

GO ?= go

.PHONY: ci build vet fmt lint test race bench bench-smoke bench-check \
	cover hybrid-gate

ci: fmt vet lint build test race bench-smoke bench-check cover hybrid-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static-analysis gate beyond `go vet`. staticcheck failures fail CI;
# govulncheck is advisory (known vulns in the toolchain's stdlib should
# not block a simulation PR, but the report lands in the log). Either
# tool being absent from the environment skips its half with a notice —
# the gate never requires a network install.
lint:
	@if command -v staticcheck > /dev/null 2>&1; then \
		staticcheck ./... && echo "lint: staticcheck clean"; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck > /dev/null 2>&1; then \
		govulncheck ./... || echo "lint: govulncheck reported findings (advisory)"; \
	else echo "lint: govulncheck not installed; skipping"; fi

# The audit and percentile gates are Go tests here: cmd/packetsim's
# TestAuditGate and TestPercentileGate drive a run, then runreport, in
# process.
test:
	$(GO) test -timeout 5m ./...

# Race gate over the whole module, with no exclusions: the sweep engine
# and the shared observer are the concurrent paths, but every package
# rides along so a new data race anywhere fails CI.
# -short trims internal/fluid's numeric-integration horizons (it is
# single-goroutine, so the detector loses nothing) to keep the whole
# suite inside the timeout under the -race slowdown.
# The tests named Concurrent share run state across goroutines (job
# copies of one checker, histograms, probes); a race there shows only on
# some interleavings, so they run ten times.
race:
	$(GO) test -race -short -timeout 15m ./...
	$(GO) test -race -count=10 -run 'Concurrent' ./internal/netsim ./internal/obs

bench:
	$(GO) test -bench=Sweep -run='^$$' .

# Alloc-regression gate: run the hot-path microbenchmarks once and the
# AllocsPerRun guards that pin the steady-state paths at 0 allocs/op —
# both with observability off (the hooks must be free) and with a full
# observer attached (counters, tracer, checker must not allocate either).
# BenchmarkPortChain prices the observer per packet in three
# sub-benchmarks: detached, metrics (registry only) and full (obs.Full()).
# BenchmarkHold drives the event queue alone at two fixed depths.
# The analysis layers ride along: both phase-margin loops, the DCQCN fluid
# right-hand side, the allocation-free loop-gain evaluation and every fluid
# model's right-hand side, which must not allocate once warm, the fluid
# sampling walk, whose allocations must not grow with its samples, and the
# stage-1 work of the phase margin at each pinned cell: the points its
# small-gain bound skips, and the points and anchors it solves below that
# (deterministic work counts, so a lost or loosened bound fails without
# any timing). The first
# line requires the compiler to inline the one Eq. 5-7 rate law
# (fixedpoint Eq57) into the DCQCN fluid right-hand side's per-flow loop,
# so giving the law one home adds no call to the hottest loop of the
# fluid models (behind a call, the fluid_dde workload ran about 1% slower
# on a 2-vCPU host).
bench-smoke:
	@$(GO) build -gcflags=-m ./internal/fluid 2>&1 | \
		grep -q 'dcqcn.go:.*inlining call to fixedpoint.(\*DCQCNParams).Eq57' || \
		{ echo "bench-smoke: Eq57 is not inlined into the DCQCN fluid right-hand side"; exit 1; }
	$(GO) test -timeout 5m -run='^$$' -bench='HandlerEvents|ClosureEvents|Hold|PortChain' \
		-benchmem -benchtime=1x ./internal/des ./internal/netsim
	$(GO) test -timeout 5m -run='^$$' -bench='PhaseMarginDCQCN|PhaseMarginPatchedTimely|DCQCNFluid' \
		-benchmem -benchtime=1x ./internal/stability ./internal/fluid
	$(GO) test -timeout 5m -run='AllocFree|QuietOmegaSkipCounts' ./internal/des ./internal/netsim \
		./internal/obs ./internal/stability ./internal/fluid

# Benchmark module gate: bench/ is a module of its own, so neither `build`
# nor `test` compiles it. Vet and test it here, so an API change in the
# packages it drives fails CI instead of the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Coverage gate, two levels. Packages whose whole job is checking other
# code — internal/hybrid (paper-math cross-validation), internal/cli
# (the flag front-end every run command trusts), internal/report (the
# attribution and percentile gates themselves) and internal/obs (every
# export's writer and reader) — carry hard per-package statement
# floors. The
# repo-wide figure (measured with -short, the same profile `make race`
# uses) is gated by the checked-in ratchet in coverage_ratchet.txt: it
# must never fall below the recorded value, and a PR that raises
# coverage should bump the file so the floor only ever moves up.
cover:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for spec in ./internal/hybrid:85 ./internal/cli:85 ./internal/report:85 ./internal/obs:85; do \
		pkg=$${spec%:*}; floor=$${spec##*:}; \
		$(GO) test -timeout 10m -coverprofile="$$tmp/pkg.cov" "$$pkg" > /dev/null; \
		got=$$($(GO) tool cover -func="$$tmp/pkg.cov" | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		if awk -v got="$$got" -v floor="$$floor" 'BEGIN { exit !(got+0 < floor+0) }'; then \
			echo "cover: $$pkg $$got% is below its $$floor% floor"; exit 1; fi; \
		echo "cover: $$pkg $$got% (floor $$floor%)"; \
	done; \
	$(GO) test -short -timeout 10m -coverprofile="$$tmp/all.cov" ./... > /dev/null; \
	tot=$$($(GO) tool cover -func="$$tmp/all.cov" | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat coverage_ratchet.txt); \
	if awk -v got="$$tot" -v floor="$$floor" 'BEGIN { exit !(got+0 < floor+0) }'; then \
		echo "cover: repo-wide $$tot% fell below the ratchet $$floor% (coverage_ratchet.txt)"; exit 1; fi; \
	echo "cover: repo-wide $$tot% (ratchet $$floor%)"

# Hybrid oracle gate: the fluid model, the packet simulator and the
# paper's fixed-point predictions must agree at the four canonical
# operating points (two per protocol, paper scale). ecnbench exits 1 if
# any check lands outside its documented tolerance, or if the invariant
# checker flags a packet run (conservation, queue bounds, PFC pairing),
# failing CI.
hybrid-gate:
	$(GO) run ./cmd/ecnbench -exp crossval -full -invariants
