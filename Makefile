# Build and verification entry points. Tier-1 is the fast gate every
# change must pass; tier-2 adds vet and the race detector (short mode, so
# the heavyweight experiment corpus and benchmarks stay out of the loop).

GO ?= go

.PHONY: build test test-race bench bench-smoke bench-baseline bench-gate serve-smoke trace-smoke har-smoke lint leak-report ci fmt-check clean

build:
	$(GO) build ./...

# Tier-1: the full functional suite.
test: build
	$(GO) test ./...

# Tier-2: static checks plus the race detector. Short mode skips the
# slow experiment-context tests and benchmark warmups but keeps every
# unit and determinism test — including the Workers=1 vs Workers=8
# study-invariance test in internal/core.
test-race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration per benchmark, with the heavyweight experiment corpus
# skipped (-short): a fast liveness check that every benchmark still
# runs. CI parses the output into BENCH_ci.json via cmd/benchjson.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -short -run=^$$ .

# Benchmarks run at -benchtime=1x so the heavyweight study benchmarks
# execute a single op; -count=$(BENCH_COUNT) repeats the whole suite and
# benchjson keeps the best (lowest-ns/op) sample per benchmark, which
# tames single-iteration noise on the sub-millisecond benchmarks.
BENCH_COUNT ?= 3

# Regression-gate tolerances. ns/op is noisy — machine, load, and CPU
# count all move it — so the gate is generous there. allocs/op is
# deterministic for identical code on any machine, so it is held tight:
# an allocation regression is a code change, not noise. Custom metrics
# (retained-B/op from the StreamStudy benchmark) are deterministic
# counts too, but byte totals move with runtime internals like map
# bucket growth, so they get a middle-ground tolerance.
BENCH_TOL ?= 0.25
BENCH_TOL_ALLOCS ?= 0.05
BENCH_TOL_EXTRA ?= 0.20

# Re-record the committed benchmark baseline (run on a quiet machine,
# inspect the diff, commit BENCH_baseline.json — see README).
bench-baseline:
	$(GO) test -bench=. -benchtime=1x -count=$(BENCH_COUNT) -benchmem -short -run=^$$ . > bench.txt
	cat bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_baseline.json bench.txt

# The CI perf gate: run bench-smoke, convert to BENCH_ci.json, and diff
# against the committed baseline. Fails when any benchmark regresses
# beyond tolerance on ns/op or allocs/op; BENCH_delta.txt always holds
# the full comparison table for the artifact upload.
bench-gate:
	$(GO) test -bench=. -benchtime=1x -count=$(BENCH_COUNT) -benchmem -short -run=^$$ . > bench.txt
	cat bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_ci.json bench.txt
	$(GO) run ./cmd/benchjson -old BENCH_baseline.json -new BENCH_ci.json \
		-tol $(BENCH_TOL) -tol-allocs $(BENCH_TOL_ALLOCS) \
		-tol-extra $(BENCH_TOL_EXTRA) -o BENCH_delta.txt; \
		status=$$?; cat BENCH_delta.txt; exit $$status

# End-to-end serving smoke: boot the hisparserve control plane on an
# ephemeral port and drive a seeded 12k-request zipf load against it.
# Fails on any transport error or status outside {2xx, 304}; prints
# throughput, latency percentiles, and the conditional-hit ratio.
serve-smoke:
	$(GO) run ./cmd/hisparserve smoke -seed 42 -loadseed 1 -n 12000 -clients 8

# Trace determinism smoke: stream the same 120-site study once serial
# and once parallel, both with full-detail tracing, then require
# tracecheck to accept both Chrome trace files and find them
# byte-identical — the tracer's worker-invariance contract, end to end
# through the real CLI. The warm arm holds the cold→warm revisit study
# to the same contract.
trace-smoke:
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -fetches 3 -workers 1 \
		-trace trace_w1.json -trace-detail phases > /dev/null
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -fetches 3 \
		-trace trace_wN.json -trace-detail phases > /dev/null
	$(GO) run ./cmd/tracecheck trace_w1.json trace_wN.json
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -warm -workers 1 \
		-trace trace_warm_w1.json -trace-detail phases > /dev/null
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -warm \
		-trace trace_warm_wN.json -trace-detail phases > /dev/null
	$(GO) run ./cmd/tracecheck trace_warm_w1.json trace_warm_wN.json

# HAR round-trip smoke: write one HAR file per page of a 10-site study
# with webmeasure, analyze the directory with haranalyze, and fail
# unless it prints one CSV row per file and reports both landing and
# internal pages — the HAR-only analysis path, end to end through the
# real CLIs.
har-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/webmeasure -sites 10 -persite 5 -fetches 1 -har "$$dir/hars"; \
	$(GO) run ./cmd/haranalyze -dir "$$dir/hars" > "$$dir/pages.csv"; \
	files=$$(ls "$$dir"/hars/*.har.json | wc -l); \
	rows=$$(awk 'NR > 1' "$$dir/pages.csv" | wc -l); \
	landing=$$(awk -F, 'NR > 1 && $$2 == "landing"' "$$dir/pages.csv" | wc -l); \
	internal=$$(awk -F, 'NR > 1 && $$2 == "internal"' "$$dir/pages.csv" | wc -l); \
	echo "har-smoke: $$files HAR files, $$rows rows ($$landing landing, $$internal internal)"; \
	if [ "$$rows" -ne "$$files" ] || [ "$$landing" -eq 0 ] || [ "$$internal" -eq 0 ]; then \
		echo "har-smoke: FAIL"; exit 1; fi

# Determinism lint: cmd/detlint type-checks every package in the module
# and enforces the invariants the seeded pipeline depends on (no wall
# clock, no global RNG, no order-dependent map emission, no untracked
# source→sink taint, ...). Any finding fails: fix it, or justify it with
# a //detlint:allow directive. detlint.sarif feeds GitHub code scanning
# and detlint.json is the CI artifact.
lint:
	$(GO) run ./cmd/detlint -format sarif -o detlint.sarif
	$(GO) run ./cmd/detlint -format json -o detlint.json

# Resource-lifecycle report: every tracked acquisition (files, sockets,
# response bodies, cancel funcs, tickers, profile stops) with how each
# path disposes of it, leaks first, hot functions ranked on top. The JSON
# is the CI artifact; the text rendering is for humans.
leak-report:
	$(GO) run ./cmd/detlint -leaks -format json -o detlint-leaks.json
	$(GO) run ./cmd/detlint -leaks

# Fail (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The full local gate, mirroring CI: formatting, vet, lint, tier-1,
# tier-2.
ci: fmt-check
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) test
	$(MAKE) test-race
	$(MAKE) serve-smoke
	$(MAKE) trace-smoke
	$(MAKE) har-smoke

clean:
	$(GO) clean ./...
