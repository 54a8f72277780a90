#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload diff-cold --seed 1 --seconds 25 --trace 0
#
# All build state (Go build cache, temporary build files, the binary)
# lives under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
# The go command's local telemetry lives under the user config dir.
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
