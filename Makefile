# Tier-1 gate: everything `make check` runs must stay green on every commit
# (see README.md, "Developing").
GO ?= go

.PHONY: check check-race build vet fmt lint lint-json lint-fixtures test race bench bench-core des-smoke drill-smoke plan-smoke perfbench-check clean

check: build vet fmt lint test

check-race: race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints nonconforming files; fail when it prints anything.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs running on:"; echo "$$out"; exit 1; fi

# Project-specific static analysis: the four intra-procedural v1 analyzers
# (determinism, lock-discipline, float-compare, error-sink) plus the four
# interprocedural v2 analyzers (hotpathalloc, fenceflow, ctxflow,
# atomicdiscipline); see DESIGN.md "Static analysis". The module is clean and
# any finding fails the gate.
lint:
	$(GO) run ./cmd/sblint ./...

# Same gate, rendered as a JSON findings artifact for CI upload. Exit status
# is preserved: the artifact shows what failed.
lint-json:
	$(GO) run ./cmd/sblint -json ./... > sblint-findings.json; \
		status=$$?; cat sblint-findings.json; exit $$status

# The lint suite's own fixture tests (analyzer regression harness).
lint-fixtures:
	$(GO) test -race ./internal/lint/ ./cmd/sblint/...

test:
	$(GO) test ./...

# -short skips the single-threaded LP replays (Table 3, Table 4, ablations:
# about 8 s plain but about 90 s under the race detector on a 2-vCPU VM; they
# exercise no concurrency and the plain `test` target still runs them in
# full) so the race gate finishes in CI-friendly time.
race:
	$(GO) test -race -short -timeout 20m ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Core hot-path perf trajectory: controller placement + kvstore round-trip,
# appended to the BENCH_core.json run history keyed by the current revision
# (see cmd/sbbench). Gating: a >10% ns/op regression on a core benchmark
# fails the target (and CI); export SBBENCH_SKIP_GATE=1 — in CI, apply the
# bench-exempt PR label — when a regression is deliberate.
bench-core:
	$(GO) run ./cmd/sbbench -o BENCH_core.json -rev "$$(git rev-parse --short HEAD)" -gate
	@cat BENCH_core.json

# Deterministic-simulation smoke: a 100k-call dessweep under the race
# detector. sbexp exits non-zero on any dropped event or a seed-stability
# violation (same seed must replay byte-identical, a different seed must
# diverge), and the run's decision trace lands in des-smoke-trace.jsonl —
# span JSONL that cmd/sbtrace renders unchanged (CI uploads it as an
# artifact and does exactly that). Then the plan replays (simfidelity and
# the DC-failure drill) run on des at quick scale, without -race: that run's
# time is LP setup, not concurrency (about 2 s plain, 28 s under -race, on a
# 2-vCPU VM).
des-smoke:
	$(GO) run -race ./cmd/sbexp -exp dessweep -scale quick \
		-des-detect 30s -des-trace des-smoke-trace.jsonl
	$(GO) run ./cmd/sbexp -exp simfidelity,drill -scale quick

# Live-drill smoke: the four store/controller fault drills (chaos,
# partition, shard, reshard) end to end at quick scale, through sbexp's
# printers. Each drill fails the run on a replay error other than a shed
# write (which it re-sends), a failover that never lands or an unreadable
# audit.
drill-smoke:
	$(GO) run ./cmd/sbexp -exp chaos,partition,shard,reshard -scale quick

# Planning smoke: one plan_offline benchmark run (forecast, the provisioning
# LPs with backup, the allocation LPs), which fails unless the run reports
# "correct":true. That includes the plan golden check: the plan's cost,
# cores, Gbps and mean ACL within 1e-6 relative of the recorded values. It
# also includes the stationarity guard, which compares each history's early
# and late solves. The run cycles six histories at about 1.2 s a solve on a
# 2-vCPU VM, so 24 s solves every history at least twice even at 2 s a
# solve; a 2 s run solves only history 0 twice, and that one noisy pair
# decides the guard.
plan-smoke:
	@out="$$(bash perfbench/run.sh --workload plan_offline --seconds 24 --trace 0 --seed 1)"; \
		echo "$$out"; echo "$$out" | grep -q '"correct":true'

# The end-to-end benchmark (perfbench/) is its own module, so the targets
# above never build it: vet and unit-test it here, so an internal API change
# that breaks it fails CI rather than the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

clean:
	$(GO) clean ./...
