#!/usr/bin/env bash
# Builds the benchmark, oicd and oicd-router from this checkout, then runs
# one workload. Run from the checkout root:
#
#   bash oicbench/run.sh --workload fleet-kappa --seed 1 --seconds 45 --trace 0
#
# Everything it builds or writes stays under .bench_build in the checkout.
set -euo pipefail
bench=$(dirname "$0")
out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" TMPDIR="$PWD/$out/tmp" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$bench" && go build -o "../$out/bin/" . oic/cmd/oicd oic/cmd/oicd-router) >&2
exec "$out/bin/oicbench" -bench "$bench" -bin "$out/bin" -work "$out" "$@"
