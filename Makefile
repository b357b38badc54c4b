GO ?= go

.PHONY: ci build vet lint verify lockcheck-mutants test test-procs race bench bench-guard equivalence trace-smoke serve-smoke prof clean

ci: vet lint verify lockcheck-mutants build race test test-procs equivalence bench-guard serve-smoke prof

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis (cmd/ultravet): the host analyzers (see
# `ultravet -list`; lockcheck among them enforces the declared mutex
# discipline module-wide) over every package plus the guest
# coherence/race lint over the shipped assembly examples, diffed against
# the committed .ultravet-baseline.json — the build fails only on NEW
# findings. The annotated tree is expected to be lockcheck-clean, so any
# new unsuppressed lockcheck finding fails this target.
lint:
	$(GO) run ./cmd/ultravet ./... examples/asm/*.s internal/coord/guest/*.s

# Prove the lock-discipline analyzer is live: the three seeded mutants —
# re-creations of the PR 9 review bugs (lost wakeup, interrupt store
# outside the lock, rebuild outside execMu) — must each be flagged. An
# analyzer regression that stops seeing any of them fails CI here even
# though the main tree stays clean.
lockcheck-mutants:
	@out=$$($(GO) run ./cmd/ultravet -enable lockcheck -baseline "" \
		internal/lint/lockcheck/testdata/src/pr9mutants 2>&1); \
	st=$$?; \
	if [ $$st -eq 0 ]; then \
		echo "lockcheck-mutants: expected findings, got a clean run"; exit 1; \
	fi; \
	for f in lostwakeup.go interruptstore.go rebuildrace.go; do \
		echo "$$out" | grep -q "$$f" || { \
			echo "lockcheck-mutants: seeded mutant $$f not flagged"; \
			echo "$$out"; exit 1; }; \
	done; \
	echo "lockcheck-mutants: all 3 seeded PR 9 bugs flagged"

# Exhaustive guest verification (internal/lint/guest/mc): model-check
# every shipped assembly program — the examples and the coord guest
# twins — at 3 PEs, proving the `;mc:` properties plus deadlock and
# lost-update freedom over every interleaving. Wall-clock budget: ~25s
# single-threaded (queue.s at N=3 explores ~980k states in ~13s, rw.s
# ~690k in ~8s; everything else is milliseconds — dotproduct.s caps
# itself at N=2 via `;mc: bound`). `make lint` already runs the same
# checker at the cheap N=2 bound as part of the default analyzer set.
verify:
	$(GO) run ./cmd/ultravet -enable guestmc -mc-pes 3 \
		examples/asm/*.s internal/coord/guest/*.s

# The whole tree runs under the race detector: the lock-free
# coordination layers and, since the live telemetry server, the
# copy-on-sample hand-off between the simulation loop and HTTP handlers.
race:
	$(GO) test -race ./...

test:
	$(GO) test ./...

# Tier-1 must pass on every core count, not just the one CI happens to
# have: the whole suite at GOMAXPROCS 1, 2 and 4, then the packages
# whose tests run real goroutines (the ultraserve scheduler and
# sessions, the coordination primitives on the host paracomputer)
# twenty times at 2, where scheduling-order assumptions show up.
test-procs:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -count=1 ./... || exit 1; done
	GOMAXPROCS=2 $(GO) test -count=20 ./internal/serve ./internal/coord

# Simulator performance benchmark: the Figure 7 candidate switch shapes
# under fixed seeded loads, request-tracing overhead rows (tracer off /
# attached-at-rate-0 / sampled-1%), guest-profiler overhead rows
# (bare / attached-but-disabled / enabled, on both the synthetic driver
# and a real 8-PE machine run), ultraserve session scaling and one
# 256-port row, written as JSON for commit-over-commit comparison (the
# file records host_cpus).
bench:
	$(GO) run ./cmd/netperf -bench BENCH_PR9.json

# Output determinism: every artifact of the machine and synthetic-traffic
# fixtures (Chrome trace, metrics, report, spans, flight recorder, final
# state, guest profiles) must match the committed sha256 digests, and
# engines that split phases must not change a byte. Run under the race
# detector and again pinned to a single P, so the bytes cannot depend
# on the host's scheduling.
equivalence:
	$(GO) test -race -count=1 -run 'GoldenDigests|EngineEquivalence' ./internal/machine/ ./internal/trace/
	GOMAXPROCS=1 $(GO) test -count=1 -run 'GoldenDigests|EngineEquivalence' ./internal/machine/ ./internal/trace/

# Guard the observability contract: a disabled (nil) probe must add zero
# allocations to the hot paths, an enabled ring recorder must not
# allocate per event, and an attached request tracer at sampling rate 0
# must keep Machine.Step allocation-free.
bench-guard:
	$(GO) test ./internal/obs/ -run 'ZeroAlloc' -count=1 -v
	$(GO) test ./internal/machine/ -run 'ZeroAlloc' -count=1 -v

# Guest-profiler smoke: profile queue.s end to end in both export
# formats, then validate each round-trips non-empty through its own
# reader (the pprof path re-parses the gzipped protobuf wire format go
# tool pprof consumes).
prof: build
	$(GO) run ./cmd/ultrasim -pes 8 -reqtrace 1 \
		-prof-out /tmp/ultraprof.pb.gz examples/asm/queue.s > /dev/null
	$(GO) run ./cmd/ultrasim -pes 8 -reqtrace 1 \
		-prof-out /tmp/ultraprof.jsonl examples/asm/queue.s > /dev/null
	$(GO) run ./cmd/tables -prof /tmp/ultraprof.pb.gz -prof-check
	$(GO) run ./cmd/tables -prof /tmp/ultraprof.jsonl -prof-check

# Multi-tenant service smoke (internal/serve): start ultraserve on a
# loopback port, drive two concurrent sessions through the full API
# lifecycle (create+stage, §4.1 dry-run, commit, start), wait for both,
# and require each session's /report bytes to be identical to a
# standalone in-process run of the same config — the session-isolation
# and determinism guarantee, checked end to end over real HTTP.
serve-smoke: build
	$(GO) run ./cmd/ultraserve -smoke

# End-to-end smoke: produce a Chrome trace and a metrics series from the
# shipped examples (outputs land in /tmp).
trace-smoke: build
	$(GO) run ./cmd/ultrasim -pes 8 -trace /tmp/ultrasim-trace.json \
		-metrics /tmp/ultrasim-metrics.jsonl examples/asm/queue.s
	$(GO) run ./cmd/netperf -simports 64 -hot 0.05 -rate 0.2 \
		-metrics /tmp/netperf-hotspot.jsonl

clean:
	rm -f /tmp/ultrasim-trace.json /tmp/ultrasim-metrics.jsonl /tmp/netperf-hotspot.jsonl \
		/tmp/ultraprof.pb.gz /tmp/ultraprof.jsonl
