#!/usr/bin/env bash
# Builds ddgms and the benchmark driver from the source tree this script
# sits in, then runs the driver with the given arguments. Run it from the
# root of the repository:
#
#   bash ddbench/run.sh --workload explore-1x --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes lives under .bench_build/ at the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ddgms" || ! -f "$root/ddbench/go.mod" ]]; then
	echo "ddbench: run from the repository root (need go.mod, cmd/ddgms and ddbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS="-buildvcs=false -mod=mod" GOWORK=off

go build -o "$out/bin/ddgms" ./cmd/ddgms >&2
(cd "$root/ddbench" && go build -o "$out/bin/ddbench" .) >&2

commit=unknown
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
export DDBENCH_COMMIT="$commit"
exec "$out/bin/ddbench" -root "$root" "$@"
