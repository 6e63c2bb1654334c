# Build and verification entry points. Tier-1 is the fast gate every
# change must pass; tier-2 adds vet and the race detector (short mode, so
# the heavyweight experiment corpus and benchmarks stay out of the loop).

GO ?= go

.PHONY: build bench-build test test-race bench bench-smoke bench-baseline bench-gate serve-smoke trace-smoke har-smoke fuzz-smoke examples-smoke lint leak-report ci fmt-check clean

build:
	$(GO) build ./...

# bench/ is its own module, so go build ./... never compiles it. Vetting
# it type-checks the repo benchmark against this tree's packages: a
# change to an API it calls fails here, not at benchmark time.
bench-build:
	$(GO) -C bench vet ./...

# Tier-1: the full functional suite.
test: build
	$(GO) test ./...

# Tier-2: static checks plus the race detector. Short mode skips the
# slow experiment-context tests and benchmark warmups but keeps every
# unit and determinism test — including the Workers=1 vs Workers=8
# study-invariance test in internal/core. The serving path and the
# metrics registry run ten times more: their lock-free lookups and
# one-lock commits race only under an unlucky schedule.
test-race:
	$(GO) vet ./...
	$(GO) test -race -short ./...
	$(GO) test -race -count=10 ./internal/hisparserve ./internal/runstats

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
# (retained-B/op from the InMemoryStudy benchmarks) are deterministic
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

# Trace determinism smoke: run the same 120-site study once serial and
# once parallel, both with full-detail tracing, then require tracecheck
# to accept both Chrome trace files and find them byte-identical, and
# cmp to find the two measurement CSVs byte-identical — the engine's
# worker-invariance contract, end to end through the real CLI. The warm
# arm holds the cold→warm revisit study to the same contract.
trace-smoke:
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -fetches 3 -workers 1 \
		-trace trace_w1.json -trace-detail phases > trace_w1.csv
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -fetches 3 \
		-trace trace_wN.json -trace-detail phases > trace_wN.csv
	$(GO) run ./cmd/tracecheck trace_w1.json trace_wN.json
	cmp trace_w1.csv trace_wN.csv
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -warm -workers 1 \
		-trace trace_warm_w1.json -trace-detail phases > trace_warm_w1.csv
	$(GO) run ./cmd/webmeasure -sites 120 -persite 5 -warm \
		-trace trace_warm_wN.json -trace-detail phases > trace_warm_wN.csv
	$(GO) run ./cmd/tracecheck trace_warm_w1.json trace_warm_wN.json
	cmp trace_warm_w1.csv trace_warm_wN.csv
	$(GO) run ./cmd/papereval -exp fig2a,fig8a -sites 120 -persite 5 -fetches 3 \
		-trace trace_pe.json > trace_pe.txt
	$(GO) run ./cmd/tracecheck trace_pe.json

# HAR bundle smoke: one 10-site webmeasure run writes its CSV and, with
# -har, the logs behind it plus the study's Easylist. haranalyze over
# the bundle must print one row per HAR file, report both landing and
# internal pages, and agree with the study CSV, joined by URL, on every
# column the two share. The HAR-only analysis path, end to end through
# the real CLIs, reproduces the study's own numbers.
HAR_SHARED = bytes objects plt_ms onload_ms noncacheable cdn_bytes domains handshakes trackers depth2plus

har-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/webmeasure -sites 10 -persite 5 -fetches 1 -har "$$dir/hars" > "$$dir/study.csv"; \
	$(GO) run ./cmd/haranalyze -dir "$$dir/hars" -filters "$$dir/hars/easylist.txt" > "$$dir/pages.csv"; \
	files=$$(ls "$$dir"/hars/*.har.json | wc -l); \
	rows=$$(awk 'NR > 1' "$$dir/pages.csv" | wc -l); \
	study=$$(awk 'NR > 1' "$$dir/study.csv" | wc -l); \
	landing=$$(awk -F, 'NR > 1 && $$2 == "landing"' "$$dir/pages.csv" | wc -l); \
	internal=$$(awk -F, 'NR > 1 && $$2 == "internal"' "$$dir/pages.csv" | wc -l); \
	echo "har-smoke: $$files HAR files, $$rows rows ($$landing landing, $$internal internal), $$study study rows"; \
	if [ "$$rows" -ne "$$files" ] || [ "$$rows" -ne "$$study" ] || [ "$$landing" -eq 0 ] || [ "$$internal" -eq 0 ]; then \
		echo "har-smoke: FAIL"; exit 1; fi; \
	awk -F, -v cols="$(HAR_SHARED)" ' \
		BEGIN { n = split(cols, c, " ") } \
		FNR == 1 { split("", h); for (i = 1; i <= NF; i++) h[$$i] = i; next } \
		NR == FNR { for (j = 1; j <= n; j++) want[$$h["url"], c[j]] = $$h[c[j]]; next } \
		{ for (j = 1; j <= n; j++) if (!(($$h["url"], c[j]) in want) || want[$$h["url"], c[j]] != $$h[c[j]]) { \
			print "har-smoke: " $$h["url"] " " c[j] " = " $$h[c[j]] " from the HAR, " want[$$h["url"], c[j]] " in the study CSV"; bad++ } } \
		END { exit bad > 0 }' "$$dir/study.csv" "$$dir/pages.csv" || { echo "har-smoke: FAIL"; exit 1; }; \
	echo "har-smoke: every shared column matches the study CSV"

# Fuzz smoke: run every fuzz target for a bounded 10 s each. The go
# tool fuzzes one target per package invocation. A crasher lands in that
# package's testdata/fuzz directory; commit it together with its fix so
# the plain test run replays it from then on.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMeasureHAR$$' -fuzztime 10s -fuzzminimizetime 5s
	$(GO) test ./internal/adblock -run '^$$' -fuzz '^FuzzAdblockMatch$$' -fuzztime 10s
	$(GO) test ./internal/psl -run '^$$' -fuzz '^FuzzETLDPlusOne$$' -fuzztime 10s
	$(GO) test ./internal/detrand -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 10s
	$(GO) test ./internal/urlx -run '^$$' -fuzz '^FuzzHost$$' -fuzztime 10s
	$(GO) test ./internal/httpsem -run '^$$' -fuzz '^FuzzFormatDate$$' -fuzztime 10s
	$(GO) test ./internal/httpsem -run '^$$' -fuzz '^FuzzParseCacheControl$$' -fuzztime 10s
	$(GO) test ./internal/httpsem -run '^$$' -fuzz '^FuzzParseHTTPDate$$' -fuzztime 10s
	$(GO) test ./internal/httpsem -run '^$$' -fuzz '^FuzzAcceptEncoding$$' -fuzztime 10s
	$(GO) test ./internal/httpsem -run '^$$' -fuzz '^FuzzETagMatch$$' -fuzztime 10s
	$(GO) test ./internal/depgraph -run '^$$' -fuzz '^FuzzDepthCounts$$' -fuzztime 10s
	$(GO) test ./internal/hisparserve -run '^$$' -fuzz '^FuzzRoute$$' -fuzztime 10s

# Examples smoke: run the two example programs end to end. Each must
# exit 0 and print exactly the bytes pinned here by SHA-256 (seed 2020).
QUICKSTART_SHA256 = 444d98056f2fd7e55b7418d8e1980bfa439992cb3b06583c2eabbbf04b61c4f4
COMPAREPAGES_SHA256 = 42b05b321fe4dd0121a35ca023c2f2d8c9a9521da1cd1b3440ec830eb4d35eeb

examples-smoke:
	@set -e; for ex in quickstart:$(QUICKSTART_SHA256) comparepages:$(COMPAREPAGES_SHA256); do \
		name=$${ex%%:*}; want=$${ex#*:}; \
		got=$$($(GO) run ./examples/$$name | sha256sum | cut -d' ' -f1); \
		if [ "$$got" != "$$want" ]; then \
			echo "examples-smoke: $$name printed sha256 $$got, want $$want"; exit 1; fi; \
		echo "examples-smoke: $$name ok"; \
	done

# Determinism lint: cmd/detlint type-checks every package in the module
# and enforces the invariants the seeded pipeline depends on (no wall
# clock, no global RNG, no order-dependent map emission, no untracked
# source→sink taint, ...). Any finding fails: fix it, or justify it with
# a //detlint:allow directive. detlint.sarif, which lists the checks
# that ran and every finding, feeds GitHub code scanning and is the CI
# artifact; one run, so the module loads once.
lint:
	$(GO) run ./cmd/detlint -format sarif -o detlint.sarif

# Resource-lifecycle report: every tracked acquisition (files, sockets,
# response bodies, tickers, profile stops) with how each
# path disposes of it, leaks first, hot functions ranked on top. The JSON
# is the CI artifact; the text rendering is for humans.
leak-report:
	$(GO) run ./cmd/detlint -leaks -format json -o detlint-leaks.json
	$(GO) run ./cmd/detlint -leaks

# Fail (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The full local gate, mirroring CI: formatting, vet, the bench module's
# build, lint, tier-1, tier-2.
ci: fmt-check
	$(GO) vet ./...
	$(MAKE) bench-build
	$(MAKE) lint
	$(MAKE) test
	$(MAKE) test-race
	$(MAKE) serve-smoke
	$(MAKE) trace-smoke
	$(MAKE) har-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) examples-smoke

clean:
	$(GO) clean ./...
