#!/usr/bin/env bash
# Build the benchmark and the rexspeed binary from this checkout, then
# run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; stdout ends with the result line. All
# files the run writes stay inside the checkout (_build/ and
# .perfbench_run/).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
mkdir -p .perfbench_run/tmp
export TMPDIR="$root/.perfbench_run/tmp"
dune build --root . --profile release ./perfbench/main.exe ./bin/rexspeed.exe 1>&2
exec ./_build/default/perfbench/main.exe --exe ./_build/default/bin/rexspeed.exe "$@"
