#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash servebench/run.sh --workload exact-cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build, the Go build cache and every
# file the benchmark writes stay under .bench_build/ in the working
# directory; the toolchain is the installed one and nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/servebench" build -o "$out/servebench" .
exec "$out/servebench" "$@"
