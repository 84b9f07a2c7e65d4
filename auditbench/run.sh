#!/usr/bin/env bash
# Builds the diffaudit server and the benchmark from source, then runs one
# benchmark workload. Run it from anywhere; it works in the checkout that
# holds it. Every file it writes (binaries, Go caches, scratch data,
# traces) stays under .bench_build/ in that checkout.
#
#   bash auditbench/run.sh --workload paper-corpus --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# With telemetry on, the go command forks a detached upload child that can
# outlive this script; the mode file turns it off for this config dir.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/diffaudit" ]; then
	echo "auditbench: no diffaudit source next to auditbench/ in $root" >&2
	exit 3
fi
if ! go build -buildvcs=false -o "$build/bin/diffaudit" ./cmd/diffaudit >&2; then
	echo "auditbench: building the diffaudit server failed" >&2
	exit 3
fi
if ! (cd "$root/auditbench" && go build -buildvcs=false -o "$build/bin/auditbench" .) >&2; then
	echo "auditbench: building the benchmark failed" >&2
	exit 3
fi
exec "$build/bin/auditbench" --server-bin "$build/bin/diffaudit" --work "$build/work" "$@"
