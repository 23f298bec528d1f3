#!/usr/bin/env bash
# CI step "One orientation and one counting sort"
#
# DESIGN.md §2 "csr.rs" and §"Delta repartitioning": CSC is one
# transpose at the pipeline's edges (construction's freeze, and
# construct::source_rows for a previous CSC partition), so the delta
# path knows rows keyed by source only; and one counting-sort
# scatter (`pack`) builds every CSR, edge lists and transposes alike.
# Test modules are cut off at `#[cfg(test)]`.
delta=crates/core/src/phases/delta.rs
if sed '/#\[cfg(test)\]/,$d' "$delta" | grep -nE 'Csc|csc'; then
  echo "$delta: the delta path fills source rows; the freeze transposes them" >&2
  exit 1
fi
csr=crates/graph/src/csr.rs
scatters=$(sed '/#\[cfg(test)\]/,$d' "$csr" | grep -cE 'cursor\[[^]]*\] \+= 1')
if [ "$scatters" -ne 1 ] || sed '/#\[cfg(test)\]/,$d' "$csr" | grep -n 'in_degree'; then
  echo "$csr: one counting-sort scatter (pack) builds every CSR; found $scatters" >&2
  exit 1
fi
