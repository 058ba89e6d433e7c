#!/usr/bin/env bash
# Builds hartbench from source in this checkout and runs it; every
# argument is passed on (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display quiet ./benchmark/hartbench.exe >&2
exec ./_build/default/benchmark/hartbench.exe "$@"
