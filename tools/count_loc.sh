#!/usr/bin/env bash
# Counts non-blank, non-comment-only lines per library (the per-library
# LoC figures changes are tracked by, and the methodology behind the
# rounded TCB table in src/cio/tcb.cc). Run from the repository root:
#
#   tools/count_loc.sh

set -euo pipefail

count() {
  # shellcheck disable=SC2068
  grep -hvE '^\s*(//.*)?$' $@ 2>/dev/null | wc -l
}

echo "library LoC (non-blank, non-comment-only):"
for dir in src/base src/crypto src/tee src/tls src/net src/virtio \
           src/cio src/serve src/blockio src/prof src/hostsim src/fuzz \
           src/study; do
  printf '  %-14s %6d\n' "$(basename "$dir")" \
    "$(count "$dir"/*.h "$dir"/*.cc)"
done
printf '  %-14s %6d\n' "tests" "$(count tests/*.cc tests/*.h)"
printf '  %-14s %6d\n' "bench" "$(count bench/*.cc bench/*.h)"
printf '  %-14s %6d\n' "examples" "$(count examples/*.cpp)"
