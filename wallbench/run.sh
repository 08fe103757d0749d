#!/usr/bin/env bash
# Builds the wall-clock benchmark from the sources of this checkout and runs
# it with the given flags, from the root of the checkout:
#
#   bash wallbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's Chrome trace all stay
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout. The
# build fails, and nothing is printed on stdout, when the repository's own
# sources (the parent module) are missing.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd wallbench && go build -o "$out/wallbench" .)
# The Go runtime hands freed heap pages back with MADV_DONTNEED by default,
# so the next allocation of them page-faults: about 700 faults per sweep
# op, a third of its time on a VM, where a fault's cost drifts with the
# host's load. MADV_FREE leaves them mapped until the kernel needs them.
GODEBUG=madvdontneed=0 exec "$out/wallbench" -outdir "$out" "$@"
