#!/usr/bin/env bash
# Builds the ledger benchmark and the acqd/acqrouter servers from this
# checkout, then runs one workload:
#
#   bash ledger/run.sh --workload read-distinct --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, generated inputs, server
# data directories, logs and results all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go toolchain's caches, module path and config (telemetry included)
# all point inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -C ledger -o "$out/bin/ledger" .
go build -o "$out/bin/acqd" ./cmd/acqd
go build -o "$out/bin/acqrouter" ./cmd/acqrouter
exec "$out/bin/ledger" -root "$root" "$@"
