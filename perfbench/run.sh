#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload callctl_mem --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under the checkout's build
# directory ($CARGO_TARGET_DIR, or .bench_build when unset).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomod" "$out/gotmp" "$out/config"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomod
export GOPATH=$out/gopath
export GOTMPDIR=$out/gotmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans "$out/spans" "$@"
