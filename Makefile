# Verification tiers. Tier 1 is the fast always-green gate; tier 2 adds
# go vet and the race detector — required since internal/runner introduced
# real concurrency (the worker pool that fans simulation points across
# CPUs); tier 3 runs simlint, the project's own static analyzers: the
# determinism and unit-safety rules, the flow-aware kernel-contract
# checks (hotalloc, poolsafe, globalstate) and the dead-code check
# (unused: production code no main reaches — see DESIGN.md §10); tier 4 runs the physical-
# invariant sweep (internal/invariant: conservation, roofline sandwich,
# metamorphic monotonicity over hundreds of configurations) plus a short
# native-fuzz smoke of every pure-kernel fuzz target; tier 5 is the
# crash-consistency harness (DESIGN.md §11): the fault-point enumerator
# replaying a full config with the power cut at every FTL op boundary,
# the metamorphic fault-free equivalence check, the seeded 200-config
# mixed-fault sweep pinned byte-identical across pool widths, and a
# quick fault-storm experiment whose recovery-time table lands in
# out/recovery_table.csv (uploaded as a CI artifact); tier 6 checks the
# declarative experiment layer and the design-space autotuner (DESIGN.md
# §12): the spec-vs-seed golden-equivalence test (the migrated registry
# renders byte-identical to the pre-refactor output at pool widths 1 and
# 8), the search determinism/soundness/pruning tests, a small
# deterministic autotune whose frontier lands in out/frontier.csv
# (uploaded as a CI artifact), and the five-system comparison table
# (experiment F1 at quick scale) rendered to out/comparison_table.csv
# (also uploaded as a CI artifact). The three out/ tables are committed,
# and tier 5 and tier 6 fail when they regenerate differently (git diff
# --exit-code); a deliberate change commits the new tables. trace-verify
# re-runs the tracing layer's contract tests by name (byte-identical
# Chrome files across pool widths, zero disabled-tracer allocations,
# trace/utilization reconciliation — DESIGN.md §8) so a verify log shows
# their verdict explicitly; examples runs every program under examples/
# end to end, so one that compiles but fails at run time breaks the
# build, and so does one whose output differs from its committed golden
# (examples/testdata); bench-smoke runs every Benchmark* once; bench-gate
# runs the wall-clock benchmark's four workloads (wallbench/, BENCHMARK.json)
# three times each and fails on an incorrect run, a failed op, a changed
# sim_digest or a median end-to-end metric past its bound against
# BENCH_BASELINE.json. Run `make verify` before sending changes.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify vet tier1 tier2 tier3 tier4 tier5 tier6 fuzz-smoke trace-verify examples bench bench-gate bench-smoke

verify: tier1 tier2 tier3 tier4 tier5 tier6 trace-verify examples bench-smoke bench-gate

# wallbench is its own module, so ./... never reaches it; vetting it
# compiles the benchmark and its tests against the current API.
vet:
	$(GO) vet ./...
	cd wallbench && $(GO) vet ./...

tier1:
	$(GO) build ./...
	$(GO) test ./...

tier2: vet
	$(GO) test -race ./...

tier3:
	$(GO) run ./cmd/simlint ./...

tier4: fuzz-smoke
	$(GO) test ./internal/invariant/...

tier5:
	$(GO) test -run 'TestCrashPointEnumeration|TestFaultFreeEquivalence|TestFaultSweepDeterminism' -v ./internal/invariant/
	$(GO) test -run 'TestBoundaryHookContract|TestRecover|TestBlockRetirement' -v ./internal/ssd/
	mkdir -p out
	$(GO) run ./cmd/optimstore -exp F20 -quick -format csv > out/recovery_table.csv
	git diff --exit-code -- out/recovery_table.csv

tier6:
	$(GO) test -run 'TestSpecGoldenEquivalence' -v ./internal/experiments/
	$(GO) test -run 'TestSearch' -v ./internal/search/
	mkdir -p out
	$(GO) run ./cmd/tune -units 256 -budget 32 -csv out/frontier.csv
	$(GO) run ./cmd/optimstore -exp F1 -quick -format csv > out/comparison_table.csv
	git diff --exit-code -- out/frontier.csv out/comparison_table.csv

trace-verify:
	$(GO) test -run 'TestGoldenTraceDeterminism' -v ./internal/experiments/
	$(GO) test -run 'TestTracedSweepDeterministicAcrossWidths' -v ./cmd/sweep/
	$(GO) test -run 'TestDisabledTracerAddsNoAllocations|TestTracerObservesEngineAndResource' -v ./internal/sim/
	$(GO) test -run 'TestTracedRunMatchesUntraced|TestTraceReconcilesWithReportedLinkUtil' -v ./internal/core/
	$(GO) test -run 'TestCacheTrackTracesWriteSlots' -v ./internal/ssd/

# Each example prints its study to stdout, which regenerates its committed
# golden under examples/testdata; the target fails when a program exits
# non-zero or its output differs from the committed copy (git diff
# --exit-code, as tier5 and tier6 check their tables).
EXAMPLES = gpt_offload layout_study quickstart ssd_explorer train_demo

examples:
	for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e > examples/testdata/$$e.golden || exit 1; \
	done
	git diff --exit-code -- examples/testdata

# One `go test -fuzz` invocation per target: the fuzz engine accepts a
# single fuzz pattern per run. -run='^$$' skips the unit tests each time;
# the committed seed corpora under testdata/fuzz/ run as part of tier 1.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzBitsRoundTrip   -fuzztime=$(FUZZTIME) ./internal/fp16/
	$(GO) test -run='^$$' -fuzz=FuzzRoundProperties -fuzztime=$(FUZZTIME) ./internal/fp16/
	$(GO) test -run='^$$' -fuzz=FuzzSchemeProperties -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -run='^$$' -fuzz=FuzzRetireTracker    -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -run='^$$' -fuzz=FuzzFTLOps          -fuzztime=$(FUZZTIME) ./internal/ssd/
	$(GO) test -run='^$$' -fuzz=FuzzEngineOrdering  -fuzztime=$(FUZZTIME) ./internal/sim/

# bench runs the wall-clock benchmark's workloads three times each and
# rewrites the committed baseline, BENCH_BASELINE.json, from the medians;
# bench-gate runs them the same way and checks the medians against it
# with BENCHMARK.json's bounds (cmd/bench).
# `go test -bench` remains available for ad-hoc runs of individual
# benchmarks (e.g. -bench BenchmarkDeviceUpdateGC ./internal/ssd/).
bench:
	$(GO) run ./cmd/bench -write

bench-gate:
	$(GO) run ./cmd/bench

# bench-smoke runs every Benchmark* once, so a benchmark whose own
# assertions break fails the build instead of rotting unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
