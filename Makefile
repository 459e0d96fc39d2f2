# CI entry points. `make ci` is the gate every change must pass:
# vet + build + the full test suite, then the short tier again under the
# race detector (the parallel runtime's serial≡parallel tests stay enabled
# in short mode precisely so the race pass exercises them), then the
# coverage floor on the fault-injection surface.

GO ?= go

# Statement-coverage floor for the scenario engine, the trace codec, and
# the simulator and its sharded driver — the packages whose tests ARE the
# regression harness (golden digests, fuzz corpora, shard-invariance
# battery): uncovered code there is unpinned behavior.
COVER_PKGS = ./internal/scenario/ ./internal/trace/ ./internal/checkpoint/ ./internal/sim/ ./internal/invariant/ ./internal/serve/
COVER_FLOOR = 70

.PHONY: ci vet build cross test race cover alloc-gate smoke resume-smoke shard-smoke serve-smoke soak battery fuzz-battery bench-record fuzz bench

ci: vet build cross test race cover alloc-gate smoke resume-smoke shard-smoke serve-smoke battery

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Cross-build for targets without the amd64 assembly kernels: internal/nn's
# stubs (gemm_fallback.go) and its tests must keep compiling there.
cross:
	GOARCH=arm64 $(GO) vet ./internal/nn/ && GOARCH=arm64 $(GO) build ./... && GOARCH=386 $(GO) build ./...

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
# as ordinary test cases here, so short mode still replays them).
cover:
	@for pkg in $(COVER_PKGS); do \
		$(GO) test -short -cover -coverprofile=cover.out $$pkg || exit 1; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		rm -f cover.out; \
		echo "$$pkg statement coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {exit (p+0 < f) ? 1 : 0}' || \
			{ echo "coverage below floor for $$pkg"; exit 1; }; \
	done

# Allocation-regression gate: measure allocs/op of every pinned hot-path
# benchmark (testdata/alloc_floors.json names the set) and fail if any
# exceeds its recorded floor. Floors are exact at -benchscale=small —
# steady-state allocation counts do not depend on fleet size, so the gate
# stays cheap in ci. After a deliberate allocation change, regenerate with
# `make alloc-gate UPDATE=1` and commit the diff so the regression shows up
# in review.
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
# prove the artifact actually loads: eval -load-policy must run clean.
resume-smoke:
	@rm -rf /tmp/fairmove-resume-smoke && mkdir -p /tmp/fairmove-resume-smoke
	$(GO) run ./cmd/fairmove train -fleet 24 -pretrain 1 -episodes 1 \
		-checkpoint-dir /tmp/fairmove-resume-smoke/ckpt -checkpoint-every 1 > /dev/null
	$(GO) run ./cmd/fairmove train -fleet 24 -pretrain 1 -episodes 2 -resume \
		-checkpoint-dir /tmp/fairmove-resume-smoke/ckpt -checkpoint-every 1 \
		-save-policy /tmp/fairmove-resume-smoke/resumed.fmck > /dev/null
	$(GO) run ./cmd/fairmove train -fleet 24 -pretrain 1 -episodes 2 \
		-save-policy /tmp/fairmove-resume-smoke/unbroken.fmck > /dev/null
	cmp /tmp/fairmove-resume-smoke/resumed.fmck /tmp/fairmove-resume-smoke/unbroken.fmck
	$(GO) run ./cmd/fairmove eval -fleet 24 \
		-load-policy /tmp/fairmove-resume-smoke/resumed.fmck > /dev/null
	@rm -rf /tmp/fairmove-resume-smoke
	@echo "resume-smoke: resumed run byte-identical to unbroken run"

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
	$(GO) test -run TestRobustnessBattery -battery-n 256 -timeout 1800s ./internal/invariant/

# Explore the fuzz targets beyond the committed corpora (not part of ci;
# run locally when touching the parser or codec).
fuzz:
	$(GO) test ./internal/scenario/ -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/scenario/ -fuzz FuzzGenerate -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzDecodeEvents -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzEventRoundTrip -fuzztime 30s
	$(GO) test ./internal/checkpoint/ -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzHTTPIngest -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzParseBatch -fuzztime 30s

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Shard-count smoke: one clean short-mode episode plus the shards=1 vs
# shards=N equivalence on the small fixture. The full invariance battery
# (all golden fixtures, every shard count) runs in `make test`.
shard-smoke:
	$(GO) test -short -run 'TestShardSmoke|TestShardCountInvariance' ./internal/shard/ .

# Re-measure slot-stepping throughput (the shard ladder, three
# scales, best of three reps each) and rewrite BENCH_sharding.json. Not in
# ci: the full tier steps the paper's 20,130-taxi fleet for ~2 minutes.
bench-record:
	$(GO) test -run TestRecordShardingBench -recordbench -timeout 1800s .
	$(GO) test -run TestRecordBatteryBench -recordbench -timeout 1800s .
	$(GO) test -run TestRecordHotpathBench -recordbench -benchscale=full -timeout 1800s .
	$(GO) test -run TestRecordNNBench -recordbench -benchscale=full -timeout 1800s .
	$(GO) test -run TestRecordServeBench -recordbench -benchscale=full -timeout 1800s .
