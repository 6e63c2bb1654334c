#!/bin/sh
# Builds the benchmark from this checkout and runs it with the given
# flags. Run it from the repository root:
#
#	bash bench/run.sh -workload h1k-cold -seed 42
#
# The Go build cache, temporary build files and the binary all live in
# .bench_build/ at the root, so a run reads and writes nothing outside the
# checkout. The first run compiles the standard library into that cache.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$(dirname "$0")" build -o "$out/bench" .
exec "$out/bench" "$@"
