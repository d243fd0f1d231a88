#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with every
# argument passed through, e.g.
#
#   bash perfbench/run.sh --workload news --seed 7 --seconds 16 --trace 0
#
# Run it from the repository root. Build products, the Go build cache
# and run records stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
