#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs the
# benchmark with the caller's NBTI_* overrides removed. Run from the
# repo root:
#   bash agingbench/run.sh --workload repeat_named --seed 1 --seconds 10 --trace 0
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Build output goes to stderr: the last stdout line is the result.
dune build --root . ./bin/nbti_tool.exe ./agingbench/agingbench.exe 1>&2
exec env -u NBTI_JOBS -u NBTI_INCREMENTAL -u NBTI_FAULTS \
  ./_build/default/agingbench/agingbench.exe "$@"
