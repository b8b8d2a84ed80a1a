# Developer workflow for the clgen reproduction. `make check` is the
# tier-1 gate: build, vet, formatting, and the race-enabled test suite,
# which includes the end-to-end gates of gates_test.go.

GO ?= go

.PHONY: check build vet vet-stages fmt test race bench

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
