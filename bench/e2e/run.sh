#!/usr/bin/env bash
# Builds the end-to-end benchmark runner (Release, in build-e2e/ at the root
# of the checkout) and runs it with the given flags, e.g.
#   bash bench/e2e/run.sh --workload fig3_flooding_10k --seed 7 --seconds 25 --trace 0
# Build output goes to build-e2e/build.log; it is shown only if the build fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../build-e2e"
mkdir -p "$build"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j4; } >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  exit 1
fi
exec "$build/locaware_e2e" "$@"
