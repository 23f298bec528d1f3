#!/usr/bin/env bash
# CI step "One Gluon exchange"
#
# DESIGN.md §2 "crates/dgalois": every app synchronizes through
# SyncPlan::reduce / SyncPlan::broadcast, one exchange in plan.rs
# that encodes and decodes the pair message. Test modules are cut
# off at `#[cfg(test)]`.
for f in crates/dgalois/src/*.rs; do
  [ "$f" = crates/dgalois/src/plan.rs ] && continue
  if sed '/#\[cfg(test)\]/,$d' "$f" \
       | grep -nE '\b(TAG_REDUCE|TAG_BCAST|WireWriter|WireReader|send_bytes|recv_from)\b'; then
    echo "$f: synchronize through SyncPlan::reduce / SyncPlan::broadcast (plan.rs)" >&2
    exit 1
  fi
done
