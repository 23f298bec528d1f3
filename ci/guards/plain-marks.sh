#!/usr/bin/env bash
# CI step "Plain marks"
#
# DESIGN.md §8 "Bitset mirrors": a mark is one unconditional `|=`
# into the marking worker's own rows (`bitset::ThreadRows`), ORed
# together once the walk has joined, so no node-set mark takes a
# locked read-modify-write: no `fetch_or(` anywhere in non-test
# crates/core/src, and no atomic in `NodeBitRows`. Test modules are
# cut off at `#[cfg(test)]`.
for f in $(find crates/core/src -name '*.rs'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'fetch_or('; then
    echo "$f: marks are plain stores into per-thread rows; no fetch_or" >&2
    exit 1
  fi
done
bitset=crates/core/src/phases/bitset.rs
rows=$(sed '/#\[cfg(test)\]/,$d' "$bitset" | sed -n '/struct NodeBitRows/,/^}/p')
if [ -z "$rows" ]; then
  echo "$bitset: NodeBitRows not found" >&2
  exit 1
fi
if echo "$rows" | grep -n 'Atomic'; then
  echo "$bitset: NodeBitRows holds plain words, not atomics" >&2
  exit 1
fi
