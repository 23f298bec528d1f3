#!/usr/bin/env bash
# CI step "Allocation consumes its input"
#
# DESIGN.md §2 "phases/alloc.rs": allocate takes the edge-assignment
# outcome by value and frees each part once read, row counts go
# straight into the offsets (no degree array beside them), and the
# full and delta drivers keep only to_receive from the outcome. Test
# modules are cut off at `#[cfg(test)]`.
alloc=crates/core/src/phases/alloc.rs
if sed '/#\[cfg(test)\]/,$d' "$alloc" | grep -nE '\blet (mut )?degrees\b'; then
  echo "$alloc: row counts go straight into offsets[l + 1]; no degrees vector" >&2
  exit 1
fi
if ! sed '/#\[cfg(test)\]/,$d' "$alloc" | sed -n '/pub fn allocate(/,/) -> AllocOutcome/p' \
     | grep -qE ': EdgeAssignOutcome,'; then
  echo "$alloc: allocate takes the EdgeAssignOutcome by value" >&2
  exit 1
fi
for f in crates/core/src/phases/driver.rs crates/core/src/phases/delta.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | sed -n '/allocate(/,$p' | grep -nE '\bea\.'; then
    echo "$f: allocate consumes the outcome; read what construction needs before the call" >&2
    exit 1
  fi
done
