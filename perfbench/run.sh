#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root, for example:
#
#	bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, module cache) stays under
# .bench_build in the checkout; the Go toolchain's own files (GOROOT) are
# only read. Build output goes to standard error, so the result JSON stays
# the last line of standard output.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
