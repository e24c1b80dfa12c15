# Developer entry points. `make ci` is the gate every change must pass and
# includes `make test`, the full suite (tier-1); `make bench` regenerates
# the DES kernel microbenchmark numbers.

GO ?= go

.PHONY: ci vet build bench-module lint lint-fix-list loc prodcover test-short test race fuzz-smoke explore selfcheck test-full bench kernelbench databench databench-smoke repbench repbench-smoke chaos clean

ci: vet build bench-module lint test race fuzz-smoke selfcheck databench-smoke repbench-smoke chaos

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

# The size ROADMAP tracks ("Open items", "Recent"): non-test Go lines of internal/
# and cmd/, and the public facade. Every simplicity PR reports these two
# numbers, counted this way.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@wc -l linefs.go

# Does any harness run this? Builds linefs-bench, linefs-check and the
# benchmark with count-mode coverage of every linefs package into a temporary
# directory (never the checkout), runs every experiment, the ablations,
# chaos and one chaos reproducer, a selfcheck of fig5, the kernel bench, the
# repbench/databench smokes, linefs-check on the five systems and the six
# benchmark workloads for a second each, merges the counters, and
# writes the functions no run reached (internal/lint aside: only its tests
# drive it) to unreached.txt, as file:function. It diffs that list against
# the committed UNREACHED.txt, one function and its owner a line (a ROADMAP
# item number, observer, tool, or fig8a -full): it prints what is new or
# gone, and fails on a new function, which has no owner yet, or a line
# without one. The merged count profile stays in the printed directory for
# per-block questions. Not part of `ci`: 5 minutes on a 2-core, 7 GB
# machine, and 4.1 GB in its largest process (-exp all, for fig4).
prodcover:
	@set -e; d=$$(mktemp -d); mkdir $$d/cov; \
	cover="-cover -covermode=count -coverpkg=linefs/..."; \
	$(GO) build $$cover -o $$d/linefs-bench ./cmd/linefs-bench; \
	$(GO) build $$cover -o $$d/linefs-check ./cmd/linefs-check; \
	(cd benchmark && $(GO) build $$cover -o $$d/benchmark .); \
	export GOCOVERDIR=$$d/cov; \
	$$d/linefs-bench -exp all -j 1 >/dev/null; \
	$$d/linefs-bench -exp ablations -j 1 >/dev/null; \
	$$d/linefs-bench -chaos >/dev/null; \
	$$d/linefs-bench -chaos -chaos-seed 1 >/dev/null; \
	$$d/linefs-bench -selfcheck -exp fig5 -j 1 >/dev/null; \
	$$d/linefs-bench -kernelbench -kernelbench-out $$d/kernel.json >/dev/null; \
	$$d/linefs-bench -repbench -repbench-time 25ms -repbench-out $$d/rep.json >/dev/null; \
	$$d/linefs-bench -databench -databench-time 25ms -databench-out $$d/data.json >/dev/null; \
	for s in linefs linefs-np assise assise-bg assise-hl; do $$d/linefs-check -system $$s >/dev/null; done; \
	$$d/benchmark -seed 1 -seconds 1 >/dev/null; \
	$(GO) tool covdata textfmt -i=$$d/cov -o=$$d/all.out; \
	grep -v '^linefs/benchmark/' $$d/all.out >$$d/count.out; \
	$(GO) tool cover -func=$$d/count.out | awk '$$NF == "0.0%" && $$1 !~ /^linefs\/internal\/lint\// { \
		sub(/^linefs\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1 ":" $$2 }' >$$d/unreached.txt; \
	echo "prodcover: count profile in $$d/count.out, $$(wc -l <$$d/unreached.txt) unreached in $$d/unreached.txt"; \
	awk 'FILENAME == ARGV[1] { owned[$$1] = 1; names[++k] = $$1; if (NF < 2) { print "prodcover: no owner: " $$1; bad = 1 }; next } \
		{ now[$$1] = 1; if (!($$1 in owned)) { print "prodcover: new: " $$1; bad = 1 } } \
		END { for (i = 1; i <= k; i++) if (!(names[i] in now)) print "prodcover: gone: " names[i]; exit bad }' \
		UNREACHED.txt $$d/unreached.txt

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
# gate over a range, and the range readers over a ring that wraps); and on the
# chain protocol's two machines, driven by arbitrary event sequences
# (FuzzChainProto). `go test` alone only replays the seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatchChunk -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzChainProto -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLZWRoundTrip -fuzztime 10s ./internal/compress
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntryInto -fuzztime 10s ./internal/fs
	$(GO) test -run '^$$' -fuzz FuzzVerifyWire -fuzztime 10s ./internal/fs
	$(GO) test -run '^$$' -fuzz FuzzVisitRangeWrap -fuzztime 10s ./internal/fs

# The chain protocol's explorer (DESIGN.md §12 "Survival layers") past the
# one fault per interleaving tier-1 walks: two faults over up to three frames
# (every class assignment; four frames in the two fsync shapes), then three
# over up to two. About two minutes on a 2-core machine; not part of `ci`.
explore:
	$(GO) test -count=1 -run '^TestChainExplore$$' -v ./internal/core -args -chainproto.k=2 -chainproto.n=3
	$(GO) test -count=1 -run '^TestChainExplore$$' -v ./internal/core -args -chainproto.k=3 -chainproto.n=2

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
# large fsync costs at least 45 % less than the value recorded before its
# range went down the chain in pieces; prints the fan-in row (2 and 4 clients'
# small fsyncs per second) beside them. The report goes to a scratch file.
repbench-smoke:
	$(GO) run ./cmd/linefs-bench -repbench -repbench-time 25ms -repbench-out /tmp/BENCH_replication_smoke.json

# Seeded fault-schedule explorer (DESIGN.md §12): a fault-free control
# schedule (no robustness counter may move — what checks that the
# configuration under chaos and the fault-free one are one), then 200
# generated schedules of drops, duplicates, corruption, delays, partitions,
# and host crashes against a full cluster, each run twice; fails on any
# invariant violation (acked durability, replica convergence, clean drain,
# digest reproducibility) and prints a -chaos-seed reproducer. CI runs all
# 200: about 7 s, so the pass rate the docs quote is the gate's own number.
chaos:
	$(GO) run ./cmd/linefs-bench -chaos

clean:
	rm -f linefs-bench
