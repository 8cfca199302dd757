# CI gates for the ecndelay reproduction. `make ci` is the full gate;
# `make race` is the correctness gate for the concurrent sweep engine.

GO ?= go

.PHONY: ci build vet fmt lint test race bench bench-smoke bench-check determinism \
	obs-ab audit-ab obsreport-gate topo-smoke cover hybrid-gate

ci: fmt vet lint build test race bench-smoke bench-check determinism obs-ab \
	audit-ab obsreport-gate topo-smoke cover hybrid-gate

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

test:
	$(GO) test -timeout 5m ./...

# Race gate over the whole module, with no exclusions: the sweep engine
# and the shared observer are the concurrent paths, but every package
# rides along so a new data race anywhere fails CI.
# -short trims internal/fluid's numeric-integration horizons (it is
# single-goroutine, so the detector loses nothing) to keep the whole
# suite inside the timeout under the -race slowdown.
race:
	$(GO) test -race -short -timeout 15m ./...

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
# model's right-hand side, which must not allocate once warm.
bench-smoke:
	$(GO) test -timeout 5m -run='^$$' -bench='HandlerEvents|ClosureEvents|Hold|PortChain' \
		-benchmem -benchtime=1x ./internal/des ./internal/netsim
	$(GO) test -timeout 5m -run='^$$' -bench='PhaseMarginDCQCN|PhaseMarginPatchedTimely|DCQCNFluid' \
		-benchmem -benchtime=1x ./internal/stability ./internal/fluid
	$(GO) test -timeout 5m -run='AllocFree' ./internal/des ./internal/netsim ./internal/obs \
		./internal/stability ./internal/fluid

# Benchmark module gate: bench/ is a module of its own, so neither `build`
# nor `test` compiles it. Vet and test it here, so an API change in the
# packages it drives fails CI instead of the next benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Determinism gate: a faulty packet-level run (loss + feedback loss +
# go-back-N recovery) executed twice must produce byte-identical output.
determinism:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/packetsim -proto dcqcn -n 4 -horizon 0.02 \
		-loss 1e-3 -ctrl-loss 1e-2 -recovery -seed 7 -fault-seed 42 > "$$tmp/a.tsv"; \
	$(GO) run ./cmd/packetsim -proto dcqcn -n 4 -horizon 0.02 \
		-loss 1e-3 -ctrl-loss 1e-2 -recovery -seed 7 -fault-seed 42 > "$$tmp/b.tsv"; \
	cmp "$$tmp/a.tsv" "$$tmp/b.tsv" && echo "determinism: faulty run reproduces byte-for-byte"

# Observability A/B gate: attaching the full observer (metrics + trace +
# probes + invariants) must not change the simulation — the same seeded
# run with and without the obs flags must print byte-identical results,
# and the observed run must finish with zero invariant violations (a
# non-zero packetsim exit fails the gate).
obs-ab:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/packetsim -proto dcqcn -n 4 -horizon 0.02 -seed 7 > "$$tmp/off.tsv"; \
	$(GO) run ./cmd/packetsim -proto dcqcn -n 4 -horizon 0.02 -seed 7 \
		-metrics "$$tmp/metrics.tsv" -trace "$$tmp/trace.jsonl" \
		-probe "$$tmp/probe.jsonl" -hist "$$tmp/hist.jsonl" -invariants > "$$tmp/on.tsv"; \
	cmp "$$tmp/off.tsv" "$$tmp/on.tsv"; \
	for f in metrics.tsv trace.jsonl probe.jsonl hist.jsonl; do \
		[ -s "$$tmp/$$f" ] || { echo "obs-ab: $$f is empty"; exit 1; }; done; \
	$(GO) run ./cmd/packetsim -topology clos -radix 4 -tiers 3 -n 6 \
		-horizon 0.003 -seed 7 > "$$tmp/clos-off.tsv"; \
	$(GO) run ./cmd/packetsim -topology clos -radix 4 -tiers 3 -n 6 \
		-horizon 0.003 -seed 7 -metrics "$$tmp/clos-metrics.tsv" \
		-trace "$$tmp/clos-trace.jsonl" -invariants > "$$tmp/clos-on.tsv"; \
	cmp "$$tmp/clos-off.tsv" "$$tmp/clos-on.tsv"; \
	echo "obs-ab: observer is invisible to the run (outputs byte-identical, invariants clean)"

# Audit A/B gate, three promises of the control-loop audit trail:
# (1) attaching -audit leaves the run's stdout byte-identical (the trail
# is pure observation); (2) the audit export itself reproduces
# byte-for-byte across reruns (both runs use the same relative -audit
# path from different directories so even the header's flag echo
# matches); (3) ccreport's -require-attributed gate holds — every rate
# cut in a fault-free run names the mark episode that caused it.
audit-ab:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/packetsim" ./cmd/packetsim; \
	$(GO) build -o "$$tmp/ccreport" ./cmd/ccreport; \
	mkdir "$$tmp/a" "$$tmp/b"; \
	$(GO) run ./cmd/packetsim -proto dcqcn -n 4 -horizon 0.02 -seed 7 > "$$tmp/off.tsv"; \
	(cd "$$tmp/a" && ./../packetsim -proto dcqcn -n 4 -horizon 0.02 -seed 7 \
		-audit audit.jsonl > on.tsv); \
	(cd "$$tmp/b" && ./../packetsim -proto dcqcn -n 4 -horizon 0.02 -seed 7 \
		-audit audit.jsonl > on.tsv); \
	cmp "$$tmp/off.tsv" "$$tmp/a/on.tsv" \
		|| { echo "audit-ab: -audit perturbed the run"; exit 1; }; \
	cmp "$$tmp/a/audit.jsonl" "$$tmp/b/audit.jsonl" \
		|| { echo "audit-ab: audit export is not reproducible"; exit 1; }; \
	"$$tmp/ccreport" -audit "$$tmp/a/audit.jsonl" -require-attributed > "$$tmp/report.txt" \
		|| { echo "audit-ab: unattributed rate cuts"; cat "$$tmp/report.txt"; exit 1; }; \
	grep -q ' 0 unattributed; ' "$$tmp/report.txt" \
		|| { echo "audit-ab: report shape unexpected"; cat "$$tmp/report.txt"; exit 1; }; \
	echo "audit-ab: -audit invisible to the run, export reproducible, cuts fully attributed"

# Fabric smoke gate: a tiny 3-tier Clos incast with PFC and the invariant
# checker attached. packetsim exits non-zero if conservation or queue-bound
# invariants are violated anywhere in the 20-switch fabric, and the same
# seeded ECMP run must reproduce byte-for-byte.
topo-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/packetsim -topology clos -radix 4 -tiers 3 -n 6 \
		-horizon 0.003 -seed 7 -pfc-pause 50000 -pfc-resume 25000 \
		-pfc-watchdog 1e-4 -invariants > "$$tmp/a.tsv" \
		|| { echo "topo-smoke: invariant violation on the Clos incast"; exit 1; }; \
	$(GO) run ./cmd/packetsim -topology clos -radix 4 -tiers 3 -n 6 \
		-horizon 0.003 -seed 7 -pfc-pause 50000 -pfc-resume 25000 \
		-pfc-watchdog 1e-4 -invariants > "$$tmp/b.tsv"; \
	cmp "$$tmp/a.tsv" "$$tmp/b.tsv"; \
	grep -q 'pause_storms=' "$$tmp/a.tsv" \
		|| { echo "topo-smoke: watchdog reported no fault summary"; exit 1; }; \
	echo "topo-smoke: Clos incast clean under invariants, ECMP deterministic"

# Coverage gate, two levels. Packages whose whole job is checking other
# code — internal/hybrid (paper-math cross-validation), internal/cli
# (the flag front-end every run command trusts) and cmd/obsreport (the CI
# perf gate itself) — carry hard per-package statement floors. The
# repo-wide figure (measured with -short, the same profile `make race`
# uses) is gated by the checked-in ratchet in coverage_ratchet.txt: it
# must never fall below the recorded value, and a PR that raises
# coverage should bump the file so the floor only ever moves up.
cover:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for spec in ./internal/hybrid:85 ./internal/cli:85 ./cmd/obsreport:85; do \
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
# any check lands outside its documented tolerance, failing CI.
hybrid-gate:
	$(GO) run ./cmd/ecnbench -exp crossval -full

# Perf-trajectory gate: a quick fixed-seed packetsim run must reproduce
# the checked-in golden latency percentiles within 5%. Regenerate the
# golden file with the same packetsim command after an intentional
# distribution change.
obsreport-gate:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/packetsim -proto timely -n 2 -horizon 0.005 -seed 7 \
		-hist "$$tmp/hist.jsonl" > /dev/null; \
	$(GO) run ./cmd/obsreport -base cmd/obsreport/testdata/golden_packetsim_hist.jsonl \
		-new "$$tmp/hist.jsonl" -threshold 0.05 \
		&& echo "obsreport-gate: percentiles match the golden run"
