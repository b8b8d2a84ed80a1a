# Developer workflow for the clgen reproduction. `make check` is the
# tier-1 gate: build, vet, formatting, and the race-enabled test suite,
# which includes the end-to-end gates of gates_test.go.

GO ?= go

.PHONY: check build vet vet-stages fmt test race bench bench-snapshot

check: build vet vet-stages fmt race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-local vet pass: journal stage names must be the typed constants,
# never string literals (tools/vet/journalstages).
vet-stages:
	$(GO) run ./tools/vet/journalstages ./...

# gofmt -l prints offending files; fail if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The determinism suite builds whole worlds at several worker counts; give
# the race detector's overhead generous headroom.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench=. -benchmem

# Records BENCH_parallel.json: serial-vs-parallel wall times of the
# worker-pool fan-outs (workers=1,2,4) with outputs verified identical.
# BENCH_analysis.json adds the static analyzer's cost/payoff: rejection-
# filter throughput with strict mode off vs on, and the dynamic-checker
# executions the pre-screen eliminates.
# BENCH_cache.json records the content-addressed stage caches' payoff:
# cold- vs warm-cache corpus build and Figure 9 wall times, with output
# equality verified (warm must be >= 2x faster and byte-identical).
# BENCH_model.json records learning-loop throughput: LSTM training
# tokens/s, Grewe LOOCV predictions/s, and the journal cost per audited
# prediction (the number that licenses leaving -journal on in CI).
# Stale snapshots are removed first so a failed run cannot leave a
# previous baseline masquerading as fresh (idempotent re-runs).
bench-snapshot:
	rm -f BENCH_parallel.json BENCH_analysis.json BENCH_cache.json BENCH_model.json
	BENCH_PARALLEL=1 $(GO) test -run=TestParallelBenchSnapshot .
	BENCH_ANALYSIS=1 $(GO) test -run=TestAnalysisBenchSnapshot -timeout 30m .
	BENCH_CACHE=1 $(GO) test -run=TestCacheBenchSnapshot -timeout 30m .
	BENCH_MODEL=1 $(GO) test -run=TestModelBenchSnapshot -timeout 30m .
