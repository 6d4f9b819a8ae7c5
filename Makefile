# Convenience targets for the randfill reproduction.

GO ?= go

.PHONY: all build test test-short test-times vet lint lint-fast ci cover bench bench-json bench-compare profile experiments experiments-full digest fuzz fuzz-smoke conformance crash-resume fabric-fault clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain-aware static analysis: determinism, RNG hygiene, simulator
# invariants, and interprocedural taint against the leak manifest (see
# DESIGN.md "Determinism & lint policy" and "Taint analysis & the leak
# manifest").
lint: vet
	$(GO) run ./cmd/rflint ./...

# Incremental lint for the edit loop: the whole module is still loaded and
# analyzed (cross-package taint needs it), but findings are only reported
# for packages with files changed since $(SINCE). Changing the lint rules
# themselves falls back to a full lint. The module checkers (ctflow,
# unused) can find something in a package the diff did not touch, such as
# a function whose last caller was just deleted, and lint-fast does not
# report it there: `make lint` is the gate.
SINCE ?= HEAD
lint-fast:
	$(GO) run ./cmd/rflint -since $(SINCE)

# What CI runs (.github/workflows/ci.yml). The benchmark module under
# _perfbench/ is skipped by ./... patterns, so it is vetted and tested on its
# own.
ci: build lint
	$(GO) test -race -short ./...
	cd _perfbench && GOFLAGS=-mod=mod $(GO) vet ./... && GOFLAGS=-mod=mod $(GO) test ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Tier-1 wall time per package: each package's elapsed seconds and the ten
# slowest tests, from `go test -count=1 -json ./...` (uncached, so every
# package really runs). Not part of tier-1 or CI.
test-times:
	$(GO) test -count=1 -json ./... | $(GO) run scripts/testtimes.go

# Statement-coverage gate (>= 80%) for the packages whose miss-path
# semantics every experiment depends on: internal/hierarchy, internal/sim,
# internal/core. CI runs the same script in its coverage job.
cover:
	sh scripts/cover.sh

bench:
	$(GO) test -bench=. -benchmem .

# Regenerate the committed perf baseline. The baseline uses the -short
# kernel budgets because that is what CI's bench-smoke job re-measures;
# ns/op is only comparable at identical budgets. Each kernel records its
# median of five interleaved rounds.
bench-json:
	$(GO) run ./cmd/rfbench -short -count 5 -out BENCH.json -commit $$(git rev-parse HEAD)

# Re-measure and diff against the committed baseline; exits nonzero when a
# kernel's median of five rounds is >20% slower (see ci.yml bench-smoke).
# The run's own report goes to .bench_build/.
bench-compare:
	mkdir -p .bench_build
	$(GO) run ./cmd/rfbench -short -count 5 -compare BENCH.json -out .bench_build/bench-compare.json

# Capture CPU and heap profiles of one Table III cell (the repo's primary
# hot path); inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) test -run '^$$' -bench 'Table3CellWorkers/1$$' -benchtime 1x \
		-cpuprofile cpu.prof -memprofile mem.prof .

# Regenerate every table and figure at quick scale.
experiments: build
	$(GO) run ./cmd/experiments -run all

# Check that every table and figure at quick scale prints the recorded
# bytes: the sha256 of `experiments -run all` stdout must match
# cmd/experiments/testdata/run_all_quick.sha256 (see ci.yml
# parallel-invariance). A change meant to move output bytes re-records the
# file, as it does a golden:
#   go run ./cmd/experiments -run all | sha256sum > cmd/experiments/testdata/run_all_quick.sha256
digest:
	$(GO) run ./cmd/experiments -run all | sha256sum -c cmd/experiments/testdata/run_all_quick.sha256

# Regenerate the security tables at (near) paper scale. Slow.
experiments-full: build
	$(GO) run ./cmd/experiments -run Table3 -scale full
	$(GO) run ./cmd/experiments -run Figure2 -scale full

# Crash-safety suite: kill the real experiments binary mid-run with
# injected faults and prove -resume reproduces the uninterrupted output
# byte-for-byte (see ci.yml crash-resume).
crash-resume:
	$(GO) test -race -run 'CrashResume|DeadlineExit|InterruptExit|UsageErrors' ./cmd/experiments

# Distributed-fabric fault suite: multi-process coordinator/worker runs of
# the real binary with whole-worker kills, stalls, torn claims, and clock
# skew; every topology must print the single-process bytes (see ci.yml
# fabric-fault). The in-process claim race runs ten times under -race.
fabric-fault:
	$(GO) test -race -run 'Fabric' -timeout 15m ./cmd/experiments
	$(GO) test -race ./internal/fabric/
	$(GO) test -race -count=10 -run 'TestClaimRace' ./internal/fabric/

fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/traceio/
	$(GO) test -fuzz=FuzzEncryptMatchesStdlib -fuzztime=30s ./internal/aes/
	$(GO) test -fuzz=FuzzScatterIndex -fuzztime=30s ./internal/scattercache/
	$(GO) test -fuzz=FuzzMirageEvict -fuzztime=30s ./internal/mirage/
	$(GO) test -fuzz=FuzzTraceCompile -fuzztime=30s ./internal/trace/

# CI's bounded fuzz budget for the design invariants (see ci.yml
# fuzz-smoke): the committed seed corpora always run; the live fuzz loop
# gets a fixed time slice so the job's wall-clock is deterministic.
fuzz-smoke:
	$(GO) test -fuzz=FuzzScatterIndex -fuzztime=20s ./internal/scattercache/
	$(GO) test -fuzz=FuzzMirageEvict -fuzztime=20s ./internal/mirage/
	$(GO) test -fuzz=FuzzTraceCompile -fuzztime=20s ./internal/trace/

# Design-conformance suite: every registered SecureCache design against the
# shared contract, under the race detector (see ci.yml design-conformance).
conformance:
	$(GO) test -race -run 'Conformance' ./internal/securecache/... \
		./internal/core/ ./internal/newcache/ ./internal/plcache/ \
		./internal/rpcache/ ./internal/nomo/ ./internal/scattercache/ \
		./internal/mirage/

clean:
	$(GO) clean ./...
