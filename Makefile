# CI entry points. `make ci` is the gate every change must pass:
# vet + build + the full test suite, then the short tier again under the
# race detector (the parallel runtime's serial≡parallel tests stay enabled
# in short mode precisely so the race pass exercises them), then the
# coverage floor on the fault-injection surface.

GO ?= go
GOFMT ?= gofmt

# Statement-coverage floor for the scenario engine, the trace codec, the
# simulator and its sharded driver, and the learning stack (nn kernels,
# CMA2C, the baselines) — the packages whose tests ARE the regression
# harness (golden digests, fuzz corpora, shard-invariance battery, kernel
# tier bit-identity): uncovered code there is unpinned behavior — plus the
# telemetry registry every layer timer and the benchmark recorder read, and
# the fan-out primitive that sequences the engine, the decide and every Map,
# and the demand model the engine samples requests from.
COVER_PKGS = ./internal/scenario/ ./internal/trace/ ./internal/checkpoint/ ./internal/sim/ ./internal/invariant/ ./internal/serve/ ./internal/nn/ ./internal/core/ ./internal/policy/ ./internal/telemetry/ ./internal/parallel/ ./internal/rng/ ./internal/demand/
COVER_FLOOR = 70

.PHONY: ci fmt vet build cross perfbench test race cover alloc-gate smoke resume-smoke shard-smoke serve-smoke soak battery fuzz-battery fuzz bench

ci: fmt vet build cross perfbench test race cover smoke resume-smoke shard-smoke serve-smoke battery

# Formatting gate: fail when gofmt would rewrite any Go file of the main
# module or of the perfbench module (.bench_build/ holds the benchmark's
# build caches, not source).
fmt:
	@files=$$(find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*' -exec $(GOFMT) -l {} +); \
		if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Cross-build for targets without the amd64 assembly kernels: internal/nn's
# stubs (gemm_fallback.go) and its tests must keep compiling there.
cross:
	GOARCH=arm64 $(GO) vet ./internal/nn/ && GOARCH=arm64 $(GO) build ./... && GOARCH=386 $(GO) build ./...

# perfbench is its own module (it runs against the committed source of the
# main module), so ./... above does not reach it: vet and test it here so a
# change to the API it calls breaks ci, not only the benchmark run.
perfbench:
	cd perfbench && GOWORK=off GOFLAGS= $(GO) vet ./... && GOWORK=off GOFLAGS= $(GO) test ./...

test:
	$(GO) test ./...

# Short tier under the race detector: fast tests plus the worker-invariance
# determinism tests, which fan training and evaluation across goroutines.
# Explicit -timeout: race instrumentation is ~10-20x on the training loops,
# which puts the root package near go's default 10m per-package limit on
# the 2-core CI host.
race:
	$(GO) test -short -race -timeout 1800s ./...

# Enforce the coverage floor per package (committed fuzz seed corpora run
# as ordinary test cases here, so short mode still replays them). Profiles
# go to one mktemp file, removed on exit (a failure included), so a failing
# package leaves nothing in the tree.
cover:
	@prof=$$(mktemp); trap 'rm -f "$$prof"' EXIT; \
	for pkg in $(COVER_PKGS); do \
		$(GO) test -short -cover -coverprofile="$$prof" $$pkg || exit 1; \
		pct=$$($(GO) tool cover -func="$$prof" | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "$$pkg statement coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {exit (p+0 < f) ? 1 : 0}' || \
			{ echo "coverage below floor for $$pkg"; exit 1; }; \
	done

# Allocation-regression gate: warm up every pinned hot-path body
# (testdata/alloc_floors.json names the set), count its allocations over a
# fixed 50 operations, and fail if any exceeds its recorded floor. Floors
# are exact at -benchscale=small — steady-state allocation counts do not
# depend on fleet size — and the gate takes well under a second. `make ci`
# runs it in `test` and again under the race detector in `race`
# (TestAllocGate is an ordinary root-package test); this target runs it
# alone. After a deliberate allocation change, regenerate with
# `make alloc-gate UPDATE=1` and commit the diff so the regression shows
# up in review.
alloc-gate:
ifeq ($(UPDATE),1)
	$(GO) test -run TestAllocGate -update-alloc-floors .
else
	$(GO) test -run TestAllocGate .
endif

# Empty-distribution regression smoke: drive the report CLI through the
# committed zero-trip/zero-charge fixture with telemetry on. A median or
# percentile called on an empty series panics here before it can ship.
smoke:
	$(GO) run ./cmd/benchtab -scale small -gt-only -telemetry \
		-scenario testdata/scenarios/total-blackout.json > /dev/null

# Crash-resume smoke: train with checkpoints, "crash" at the episode-1
# cadence cutoff, resume toward the full total with the identical command,
# and diff the saved policy against an unbroken run's byte for byte. Then
# prove both artifacts load and act alike: eval -load-policy runs each and
# the two reports must match byte for byte. The recipe is one shell over its
# own mktemp directory, removed on exit (a failure included), so concurrent
# runs on one host never share files.
resume-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	set -x; \
	$(GO) run ./cmd/fairmove train -fleet 24 -pretrain 1 -episodes 1 \
		-checkpoint-dir $$dir/ckpt -checkpoint-every 1 > /dev/null; \
	$(GO) run ./cmd/fairmove train -fleet 24 -pretrain 1 -episodes 2 -resume \
		-checkpoint-dir $$dir/ckpt -checkpoint-every 1 \
		-save-policy $$dir/resumed.fmck > /dev/null; \
	$(GO) run ./cmd/fairmove train -fleet 24 -pretrain 1 -episodes 2 \
		-save-policy $$dir/unbroken.fmck > /dev/null; \
	cmp $$dir/resumed.fmck $$dir/unbroken.fmck; \
	$(GO) run ./cmd/fairmove eval -fleet 24 \
		-load-policy $$dir/resumed.fmck > $$dir/resumed.txt; \
	$(GO) run ./cmd/fairmove eval -fleet 24 \
		-load-policy $$dir/unbroken.fmck > $$dir/unbroken.txt; \
	cmp $$dir/resumed.txt $$dir/unbroken.txt; \
	{ set +x; } 2>/dev/null; \
	echo "resume-smoke: resumed run byte-identical to unbroken run, and evaluates identically"

# Online-dispatch service smoke: build the real binaries, start
# `fairmove serve`, replay two slots of recorded events through
# `datagen stream`, assert the served decision digest equals the batch
# engine's, then SIGTERM and require a clean drain (exit 0, digest in the
# drain banner). The short-mode tiers of the same batteries (equivalence,
# hot swap, backpressure) run in `make test` / `make race`.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 .

# Long backpressure soak (not part of ci): the same invariants the short
# soak checks — every batch resolves 202 or 429, no admitted event dropped,
# queue empty after drain — at a quarter-million events against a tiny queue.
soak:
	$(GO) test -run TestServeSoak -soak-events 250000 -timeout 900s -count=1 ./internal/serve/

# Property-based robustness battery: 64 random fault compositions from the
# full scenario zoo, each run at shards=1 and 4, every invariant checked,
# shard-ladder digests byte-compared. Fixed seed, so the CI tier is
# deterministic.
battery:
	$(GO) test -short -run TestRobustnessBattery ./internal/invariant/

# Time-boxed deep battery (not part of ci): fuzz the scenario generator
# beyond its corpus, then quadruple the random-composition count.
fuzz-battery:
	$(GO) test ./internal/scenario/ -fuzz FuzzGenerate -fuzztime 30s
	$(GO) test -run TestRobustnessBattery -timeout 1800s ./internal/invariant/ -battery-n 256

# Explore the fuzz targets beyond the committed corpora (not part of ci;
# run locally when touching the parser or codec).
fuzz:
	$(GO) test ./internal/scenario/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/scenario/ -fuzz FuzzGenerate -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzDecodeEvents -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzEventRoundTrip -fuzztime 30s
	$(GO) test ./internal/checkpoint/ -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzHTTPIngest -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz 'FuzzParseBatch$$' -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzParseBatchMatchesJSON -fuzztime 30s

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Shard-count smoke: one clean short-mode episode plus the shards=1 vs
# shards=N equivalence on the small fixture. The full invariance battery
# (all golden fixtures, every shard count) runs in `make test`.
shard-smoke:
	$(GO) test -short -run 'TestShardSmoke|TestShardCountInvariance' ./internal/shard/ .
