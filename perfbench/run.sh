#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#   bash perfbench/run.sh --workload fig9_serial --seed 1 --seconds 30 --trace 0
# The build cache, the binary, scratch stores and trace files all stay
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off \
		go build -o "$out/perfbench-bin" .
)
cd "$root"
PERFBENCH_T0_NS="$(date +%s%N)" exec "$out/perfbench-bin" "$@"
