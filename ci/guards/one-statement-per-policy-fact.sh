#!/usr/bin/env bash
# CI step "One statement per policy fact"
#
# DESIGN.md §2 "policy.rs": a pure master rule is its range starts
# (`MasterRule::pure_starts`), from which the resolver, a host's
# owned range and the delta path's master shifts are derived, and
# a partition's Table I class is its edge rule's `EdgeRule::CLASS`.
# No second statement of either comes back. Test modules are cut
# off at `#[cfg(test)]`.
for f in $(find crates/core/src examples -name '*.rs'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" \
       | grep -nE 'pure_owned_range|fn pure_master\b|MasterSpec|has_streaming_masters|fn class\(self\)'; then
    echo "$f: a policy fact is stated once, by the rule that decides it" >&2
    exit 1
  fi
done
for f in crates/core/src/policy.rs $(find crates/core/src/policies -name '*.rs'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'is_pure'; then
    echo "$f: a master rule's purity is its pure_starts" >&2
    exit 1
  fi
done
