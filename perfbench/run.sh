#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything the build and the run write stays under
# .bench_build/ at the checkout root: the Go build cache, HOME (so the Go
# toolchain writes no user config elsewhere), the binary, and the scratch
# directories the workloads create.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/home/go"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOTELEMETRY=off
cd "$root/perfbench"
go build -trimpath -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
