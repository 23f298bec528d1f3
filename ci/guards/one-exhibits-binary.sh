#!/usr/bin/env bash
# CI step "One exhibits binary"
#
# DESIGN.md §2 "crates/bench": every table and figure is a
# subcommand of src/bin/exhibits.rs; benchmark/ is the frozen
# BENCHMARK.json package, not a bin of cusp-bench.
extra=$(ls -A crates/bench/src/bin | grep -vxE 'exhibits\.rs|benchmark' || true)
if [ -n "$extra" ]; then
  echo "crates/bench/src/bin holds exhibits.rs and benchmark/ only, found: $extra" >&2
  exit 1
fi
