#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through to
# main.exe (--workload NAME --seed N --seconds S --trace 0|1).
# [--selftest] runs the benchmark's own tests instead.
set -euo pipefail
cd "$(dirname "$0")/.."
# Build inside the checkout only: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./perfbench/selftest.exe 1>&2
if [ "${1:-}" = "--selftest" ]; then
  exec ./_build/default/perfbench/selftest.exe
fi
exec ./_build/default/perfbench/main.exe "$@"
