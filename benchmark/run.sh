#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Every byte the toolchain writes (build cache, temp files, telemetry
# counters) is pointed into .bench_build/ so nothing outside the
# checkout is touched; the benchmark keeps its state dirs there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/spiced ]; then
	echo "benchmark/run.sh: $root is not a spice checkout (no go.mod or cmd/spiced)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C benchmark build -o "$build/bin/spicebench" .
exec "$build/bin/spicebench" "$@"
