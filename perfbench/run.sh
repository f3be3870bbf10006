#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload approx --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, data directories and traces all stay
# under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
