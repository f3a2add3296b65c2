GO ?= go

# The committed bench-trajectory document for this PR sequence. CI's bench
# job regenerates the same document and gates on >10% throughput regressions
# against the last committed BENCH_*.json.
BENCH_OUT ?= BENCH_PR36.json

.PHONY: build test vet lint lint-tool bench examples bench-json bench-json-all bench-compare scenarios scenarios-live live-smoke fuzz fuzz-live fuzz-codec no-gob benchmark-smoke leader-crash-smoke cluster-smoke soak clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The determinism lint tool: the four internal/lint analyzers (maporder,
# walltime, nogoroutine, msgswitch) compiled into a vettool.
LINT_TOOL := bin/prestige-lint

# Build the tool and print its absolute path, so callers can run
# `go vet -vettool=$$(make -s lint-tool) ./...` directly.
lint-tool:
	@$(GO) build -o $(LINT_TOOL) ./cmd/prestige-lint
	@echo $(abspath $(LINT_TOOL))

# The full lint gate CI runs: gofmt, standard vet, and the determinism
# suite — over the whole module (./... covers internal/, cmd/, and
# scripts/bench_compare alike). The darwin vet (pure Go, nothing to
# download) keeps the non-Linux half of internal/alarm compiling.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:" $$unformatted; exit 1; fi
	$(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	$(GO) build -o $(LINT_TOOL) ./cmd/prestige-lint
	$(GO) vet -vettool=$(abspath $(LINT_TOOL)) ./...

test: vet
	$(GO) test ./...

# Short wall-clock sanity run (skips the long simulation experiments).
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench DeliverToHandled -benchmem -benchtime 2000x -run '^$$' ./internal/runtime
	$(GO) test -bench Alarm -benchmem -benchtime 20000x -run '^$$' ./internal/alarm
	$(GO) test -bench LoadedHops -benchtime 1x -run '^$$' ./internal/liveharness

# Run every example program; each must exit 0 (kvstore panics if its
# replicas diverge). byzantine-demo simulates 150 s of a 16-server cluster
# and takes about 90 s of wall clock on 2 vCPUs; the rest take seconds.
examples:
	@for ex in quickstart kvstore bank byzantine-demo; do \
		echo "== examples/$$ex"; $(GO) run ./examples/$$ex || exit 1; \
	done

# Regenerate the bench trajectory exactly as CI's bench job runs it:
# fig4c + pipeline sweep + the full chaos-scenario suite, one JSON document.
# Run this before pushing to refresh the committed $(BENCH_OUT) baseline.
bench-json:
	$(GO) run ./cmd/prestige-bench -ci $(BENCH_OUT)

# Diff a fresh trajectory against the committed baseline without committing.
bench-compare:
	$(GO) run ./cmd/prestige-bench -ci /tmp/bench-ci-new.json
	$(GO) run ./scripts -baseline-glob 'BENCH_PR*.json' -new /tmp/bench-ci-new.json

# Full figure set as JSON (slow; every experiment at quick scale).
bench-json-all:
	$(GO) run ./cmd/prestige-bench -experiment all -json bench.json

# Chaos-scenario suite; exits nonzero if any invariant is violated.
scenarios:
	$(GO) run ./cmd/prestige-bench -scenario all

# The same suite against a live loopback-TCP cluster (~4 min, sequential).
scenarios-live:
	$(GO) run ./cmd/prestige-bench -live -scenario all

# The fast live scenarios CI's live-smoke job replays per push; "corpus"
# expands to every committed regression under internal/scenario/corpus/.
live-smoke:
	$(GO) run ./cmd/prestige-bench -live -scenario leader-crash-midview,flaky-network,corpus -json live-verdicts.json

# Seeded chaos fuzzing: FUZZ_N random fault timelines on the sim; on a
# violation the shrunk minimal reproduction lands in fuzz-failures/. To
# replay a nightly CI failure, set FUZZ_SEED to the run's seed (printed in
# the job log) — generation, execution, and shrinking are deterministic.
FUZZ_N ?= 50
FUZZ_SEED ?= 1
fuzz:
	$(GO) run ./cmd/prestige-bench -fuzz $(FUZZ_N) -fuzz-seed $(FUZZ_SEED)

# The same generator against live loopback-TCP clusters (slow, sequential).
fuzz-live:
	$(GO) run ./cmd/prestige-bench -fuzz 5 -fuzz-seed $(FUZZ_SEED) -live

# Coverage-guided fuzzing of the wire codec against itself: anything that
# decodes must re-encode to the same bytes, and generated messages must
# survive Append → Decode unchanged. CI runs this leg on every PR.
FUZZ_CODEC_TIME ?= 30s
fuzz-codec:
	$(GO) test -run '^$$' -fuzz=FuzzCodecRoundTrip -fuzztime=$(FUZZ_CODEC_TIME) ./internal/transport/codec

# There is one wire format. Fails if encoding/gob is imported anywhere in
# the module.
no-gob:
	@if grep -rn '"encoding/gob"' --include='*.go' .; then \
		echo "encoding/gob is imported; the wire format is internal/transport/codec"; exit 1; fi

# The repo benchmark (BENCHMARK.json, benchmark/README.md) as a smoke test:
# one short sat-small run, gated on the exit code only. The exit code is the
# benchmark's correctness gate — committed prefixes agree, every request
# applied exactly once and in order, no acknowledged request lost — and a
# 10 s window on a shared host is far too short for its numbers to mean
# anything: they are advisory. Build output lands in .bench_build/.
benchmark-smoke:
	bash benchmark/run.sh --workload sat-small --seed 1 --seconds 10 --trace 0

# The same correctness gate on the view-change path: the leader-crash
# workload kills the current leader once per quarter of the window, so
# crash → new view → queue reset → client resend and re-notify all run on
# the real stack. Gated on the exit code only, like benchmark-smoke.
leader-crash-smoke:
	bash benchmark/run.sh --workload leader-crash --seed 1 --seconds 20 --trace 0

# The two binaries against each other: four prestige-server processes on
# loopback, /healthz green on each, then prestige-client for 3 s; fails
# unless the client commits something. BASE_PORT=<n> moves every port.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# The nightly soak gate, locally: the soak scenario for SOAK_DUR on a live
# cluster under rolling follower churn, exiting nonzero unless safety and
# every resource-flatness invariant (ledger, heap, goroutines, p99) hold. The
# verdict row and the raw /metrics snapshots (baseline/mid/end) land in
# soak-verdict.json / soak-metrics/.
SOAK_DUR ?= 3m
soak:
	$(GO) run ./cmd/prestige-bench -soak $(SOAK_DUR) \
		-json soak-verdict.json -soak-metrics-dir soak-metrics

clean:
	rm -f bench.json soak-verdict.json
	rm -rf bin fuzz-failures soak-metrics .bench_build
