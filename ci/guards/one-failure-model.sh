#!/usr/bin/env bash
# CI step "One failure model"
#
# DESIGN.md §7: the simulated fabric keeps only what a host can
# observe: one abort cell that names why the run ends, delay and
# duplicate faults (no drop that is delivered anyway), and no
# heartbeat table. Test modules are cut off at `#[cfg(test)]`.
for f in $(find crates/net/src -name '*.rs'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" \
       | grep -nE 'dropped_attempts|drop_prob|reorder_window|stale_in|remote_lost|cluster poisoned'; then
    echo "$f: one abort cell, no drop fault, no heartbeat table" >&2
    exit 1
  fi
done
