#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload durable-json --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories, span files) stays under
# .bench_build in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOTELEMETRY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
