# Developer entry points. `make ci` is the gate every change must pass and
# includes `make test`, the full suite (tier-1); `make bench` regenerates
# the DES kernel microbenchmark numbers.

GO ?= go

.PHONY: ci vet build bench-module lint lint-fix-list loc test-short test race fuzz-smoke selfcheck test-full bench kernelbench databench databench-smoke repbench repbench-smoke chaos chaos-smoke clean

ci: vet build bench-module lint test race fuzz-smoke selfcheck databench-smoke repbench-smoke chaos-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The whole-system benchmark (BENCHMARK.json) is a nested module, so the
# root `./...` patterns above and below never reach it: vet and test it
# here, or an internal/ API change that breaks its imports is first seen by
# the acceptance driver.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# Determinism + memory-contract lint suite (DESIGN.md §8, §10): nodeterm,
# maporder, procctx, wirecheck, borrowcheck, scratchflow, hotalloc over
# every package in the module. Zero unsuppressed findings is the gate;
# malformed //lint:allow directives (unknown analyzer, no justification)
# are themselves findings, so unjustified suppressions fail here too.
lint:
	$(GO) run ./cmd/linefs-lint ./...

# Suppression audit: every //lint:allow directive in the module with its
# file:line and justification, for reviewing what the lint gate is not
# seeing.
lint-fix-list:
	$(GO) run ./cmd/linefs-lint -allows ./...

# The size ROADMAP tracks (item 3, "Recent"): non-test Go lines of internal/
# and cmd/, and the public facade. Every simplicity PR reports these two
# numbers, counted this way.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@wc -l linefs.go

# Fast development loop: skips the TencentSort workload, the baseline
# cross-check suites and the lint self-run. Not the gate: `ci` runs `test`,
# so what tier-1 runs and what the gate runs cannot drift apart.
test-short:
	$(GO) test -short ./...

# The simulation kernel hands control between goroutines; the race detector
# guards the handoff protocol. The detector slows the simulator about
# tenfold, so this gate runs -short; only tests costing over 10 s under it
# are -short-gated.
race:
	$(GO) test -race -short ./...

# Ten seconds of native fuzzing on each wire decoder that has a target: the
# replication frame (sub-block table, payload, declared length), the LZW
# codec under it, and the log wire format inside it (one entry, the ingress
# gate over a range, and the range readers over a ring that wraps). `go test`
# alone only replays the seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatchChunk -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLZWRoundTrip -fuzztime 10s ./internal/compress
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntryInto -fuzztime 10s ./internal/fs
	$(GO) test -run '^$$' -fuzz FuzzVerifyWire -fuzztime 10s ./internal/fs
	$(GO) test -run '^$$' -fuzz FuzzVisitRangeWrap -fuzztime 10s ./internal/fs

# Runtime determinism gate (DESIGN.md §8): run every experiment twice with
# the sim-sanitizer enabled and fail on digest or output divergence.
selfcheck:
	$(GO) run ./cmd/linefs-bench -selfcheck -exp all

# Full suite (what the roadmap calls tier-1): about 30 s from a cold test
# cache, no test process above 0.9 GB (internal/core).
test:
	$(GO) test ./...

# DES kernel microbenchmarks (Go benchmark form, with allocation counts).
kernelbench:
	$(GO) test -bench=Kernel -benchmem -run='^$$' ./internal/sim/

# Regenerate BENCH_kernel.json (baseline vs current events/sec).
bench:
	$(GO) build -o linefs-bench ./cmd/linefs-bench
	./linefs-bench -kernelbench

# Regenerate BENCH_dataplane.json (current LZW / log codec / PM throughput
# against the recorded seed column).
databench:
	$(GO) build -o linefs-bench ./cmd/linefs-bench
	./linefs-bench -databench -databench-time 2s

# CI smoke: tiny measurement windows, but the same harness — it still
# asserts the steady-state compress/decompress/encode/decode/PM-write
# paths run at 0 allocs/op. The report itself goes to a scratch file.
databench-smoke:
	$(GO) run ./cmd/linefs-bench -databench -databench-time 25ms -databench-out /tmp/BENCH_dataplane_smoke.json

# Regenerate BENCH_replication.json (the recorded seed per-chunk column vs
# the chain protocol down the 3-replica chain, plus the pooled-path
# allocation gate). The chain numbers are simulated time, so they are
# deterministic; only the allocs/op loop is wall clock.
repbench:
	$(GO) build -o linefs-bench ./cmd/linefs-bench
	./linefs-bench -repbench -repbench-time 2s

# CI smoke: same harness, tiny allocation window. Still asserts the pooled
# replication hot path runs at 0 allocs/op, that the chain workloads
# complete, that an fsync which forms its own chunk costs less than the
# value recorded before it stopped waiting for local publication, and that a
# large fsync costs a quarter less than the value recorded before its range
# went down the chain in pieces; prints the fan-in row (2 and 4 clients'
# small fsyncs per second) beside them. The report goes to a scratch file.
repbench-smoke:
	$(GO) run ./cmd/linefs-bench -repbench -repbench-time 25ms -repbench-out /tmp/BENCH_replication_smoke.json

# Seeded fault-schedule explorer (DESIGN.md §12): 200 generated schedules
# of drops, duplicates, corruption, delays, partitions, and host crashes
# against a full cluster, each run twice; fails on any invariant violation
# (acked durability, replica convergence, clean drain, digest
# reproducibility) and prints a -chaos-seed reproducer.
chaos:
	$(GO) run ./cmd/linefs-bench -chaos

# CI smoke: same harness and invariants, 25 schedules — after the control
# schedule (no faults: no robustness counter may move), which is what checks
# that the configuration under chaos and the fault-free one are one.
chaos-smoke:
	$(GO) run ./cmd/linefs-bench -chaos -chaos-n 25

clean:
	rm -f linefs-bench
