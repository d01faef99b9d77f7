#!/bin/sh
# Entry point named by BENCHMARK.json. Keeps every byte the go toolchain
# writes inside the checkout (.bench_build/), builds the harness as its own
# module, and runs it from the checkout root with the caller's arguments.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd "$root/bench" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
