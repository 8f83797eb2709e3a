#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (see main.go). Everything it writes stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/fairbench" && go build -o "$out/fairbench-bin" .)
cd "$root"
exec "$out/fairbench-bin" --out "$out/fairbench" "$@"
