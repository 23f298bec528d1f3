#!/usr/bin/env bash
# CI step "One edge walk (delta.rs composes the full phases, never its own copy)"
#
# delta.rs also keeps no exchange of its own (it hands its tally to
# edge_assign::exchange) and no writer into allocation's buffers
# (alloc::Slots is the one); the index is one zeroed table. Test
# modules are cut off at `#[cfg(test)]`.
if grep -n 'get_edge_owner(' crates/core/src/phases/delta.rs; then
  echo "phases/delta.rs must call tally_edges/construct, not getEdgeOwner" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/phases/delta.rs | grep -nE 'TAG_EDGE_META|send_bytes|recv_any|unsafe'; then
  echo "phases/delta.rs sends through edge_assign::exchange and writes through alloc::Slots" >&2
  exit 1
fi
if grep -rnE 'DestPtr|DataPtr|slot_ptrs|reserve_slots|index_keys|NO_PROXY' crates/core/src --include='*.rs'; then
  echo "allocation's buffers have one writer (alloc::Slots) and one global->local index" >&2
  exit 1
fi
for f in crates/core/src/phases/*.rs; do
  case "$f" in */alloc.rs|*/bitset.rs) continue ;; esac
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'unsafe'; then
    echo "$f: the phases' unsafe lives in alloc.rs and bitset.rs" >&2
    exit 1
  fi
done
