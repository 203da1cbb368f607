# Development and CI entry points. `make ci` is what every CI matrix cell
# runs: vet + build + full test suite, plus the race detector over the
# packages with concurrent code (the parallel search engines, the
# spill-to-disk store, and the core they drive) and the packages whose
# tests exercise them (the POR ignoring-proviso matrix, the cyclic
# protocol generators, the eval cells that run spill-backed parallel
# searches, and the liveness layer whose oracle pins the parallel nested
# DFS). `make fuzz` runs the native fuzz targets — the cross-engine
# differential harness and the fingerprint pin — for FUZZTIME each (CI
# smokes them at 30s, with the corpus cached across runs so coverage
# accumulates). `make bench-ci` is the perf trajectory: a fixed-work
# mpbench run whose report (BENCH_ci.json) is gated against the committed
# BENCH_baseline.json and uploaded as a CI artifact; regenerate the
# baseline with `make bench-baseline` after an intentional perf or
# state-count change. `make lint` runs the in-repo mplint suite
# (internal/lint: the determinism/soundness contract analyzers, closure
# roots extendable with ENTRYPOINTS=func:p.N,iface:p.N,struct:p.N) and
# then staticcheck when it is on PATH (CI installs it; mplint itself is
# dependency-free and always runs). `make vet` runs plain `go vet` plus
# `go vet -vettool` with mplint, so every CI cell enforces the contracts
# with full build caching. `make lint-fix` inserts idempotent
# //lint:<marker> TODO annotations above findings; `make lint-abs`
# prints findings as absolute file:line:col paths for editor jump.
# `make lint-sarif` writes SARIF 2.1.0 reports from both drivers
# (mplint.sarif standalone, mplint-vet.sarif merged from the vet run's
# per-unit fragments); it is reporting-only, so findings do not fail it.
# `make perfbench-vet` vets the nested benchmark module (perfbench/, its
# own go.mod with a replace onto this checkout), which type-checks it
# against the current internals: the root `./...` patterns never enter a
# nested module, so nothing else notices when a change breaks its build.

GO ?= go
FUZZTIME ?= 30s
# The bench smoke's fixed work cap: every cell stops at this many states
# (or the budget), so baseline and CI runs compare like against like.
BENCH_MAX_STATES ?= 20000
BENCH_BUDGET ?= 30s

.PHONY: all vet build test race fuzz bench bench-smoke bench-ci bench-baseline lint lint-fix lint-abs lint-sarif mplint perfbench-vet ci

all: ci

# The mplint binary go vet loads as its -vettool. Built into bin/ (not
# `go run`) because vet needs a stable executable to fingerprint via
# -V=full for its result cache.
MPLINT := bin/mplint
mplint:
	$(GO) build -o $(MPLINT) ./cmd/mplint

vet: mplint
	$(GO) vet ./...
	$(GO) vet -vettool=$(MPLINT) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/explore/ ./internal/core/ ./internal/por/ ./internal/mptest/ ./internal/eval/ ./internal/liveness/ ./internal/dpor/

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineAgreement$$' -fuzztime $(FUZZTIME) ./internal/explore/
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint128$$' -fuzztime $(FUZZTIME) ./internal/explore/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# One iteration of every benchmark with a tight per-cell budget: keeps the
# benchmark suites compiling and runnable in CI without paying for real
# measurements.
bench-smoke:
	MPBASSET_BENCH_BUDGET=2s $(GO) test -bench . -benchtime 1x -run '^$$' . ./internal/explore/ ./internal/core/ ./internal/por/

# The CI perf gate: run both tables under the fixed work cap, write the
# machine-readable report, and fail on >BENCH_REGRESS_PCT% per-cell
# wall-clock regression (or any determinism drift) against the committed
# baseline. Wall-clock only compares like against like when the baseline
# came from the same machine class: after the first green CI run, download
# its BENCH_ci artifact and commit it as BENCH_baseline.json so the gate
# measures runner-to-runner drift, not laptop-vs-runner drift.
BENCH_REGRESS_PCT ?= 25
bench-ci:
	$(GO) run ./cmd/mpbench -budget $(BENCH_BUDGET) -max-states $(BENCH_MAX_STATES) -regress-pct $(BENCH_REGRESS_PCT) -out BENCH_ci.json -baseline BENCH_baseline.json

bench-baseline:
	$(GO) run ./cmd/mpbench -budget $(BENCH_BUDGET) -max-states $(BENCH_MAX_STATES) -out BENCH_baseline.json

lint:
	$(GO) run ./cmd/mplint $(if $(ENTRYPOINTS),-entrypoints '$(ENTRYPOINTS)') ./...
	@command -v staticcheck >/dev/null && staticcheck ./... || echo "staticcheck not installed; skipped"

# Insert //lint:<marker> TODO annotations above findings. Idempotent:
# re-running never stacks duplicate markers; findings without an escape
# hatch (statsmask) are listed and left for a real fix.
lint-fix:
	$(GO) run ./cmd/mplint -fix ./...

# Editor-jump helper: mplint findings with absolute file:line:col paths.
lint-abs:
	$(GO) run ./cmd/mplint -abs ./...

# SARIF 2.1.0 reports from both drivers: the standalone run writes
# mplint.sarif directly; the vet run drops one fragment per build unit
# into MPLINT_SARIF_DIR (a fresh temp dir, which busts vet's result
# cache via the -V=full fingerprint) and -merge-sarif unions them into
# mplint-vet.sarif. Reporting-only: findings do not fail the target —
# `make lint` and `make vet` are the enforcing entry points.
lint-sarif: mplint
	$(GO) run ./cmd/mplint -sarif ./... > mplint.sarif || true
	@dir=$$(mktemp -d); \
	MPLINT_SARIF_DIR=$$dir $(GO) vet -vettool=$(MPLINT) ./... || true; \
	$(GO) run ./cmd/mplint -merge-sarif $$dir > mplint-vet.sarif; \
	rm -rf $$dir

perfbench-vet:
	cd perfbench && $(GO) vet ./...

ci: vet build test race
