#!/usr/bin/env bash
# Builds the perfbench program and wbserved from the checkout in the
# current directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload deliver-64 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and traces stay under .bench_build.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its config and telemetry under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"
# With telemetry on (its default, "local"), the first go command of a day
# starts a detached upload process that outlives this script. "go telemetry
# off" starts none itself and keeps every later go command from starting one.
go telemetry off

go build -o "$out/wbserved" ./cmd/wbserved
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -wbserved "$out/wbserved" "$@"
