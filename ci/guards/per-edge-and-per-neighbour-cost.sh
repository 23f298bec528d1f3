#!/usr/bin/env bash
# CI step "The edge walk keeps its per-edge cost and the master phase its per-neighbour cost"
#
# DESIGN.md §8: no boxed closure under the master lookup, no atomic
# read-modify-write and no mirror branch per edge in the tally, no
# division in a grid rule's `get_edge_owner` (the rules divide on
# locals, in their table builders only), no zero-filled output buffer
# in allocation. DESIGN.md §10: the delta path's kept-edge tally and
# copy work by previous local id — no per-thread scratch run, no
# sequential grouped walk, no per-edge `insert_record` (a `local_of`
# per edge) and no `local2global` gather per edge. DESIGN.md §8,
# round three: no hash map under a neighbour lookup or a sync answer,
# no second constructor that sorts what was just inserted, no score
# or count vector of a rule's own (the scored rules share
# `neighbor_counts`), and one `powf` behind the Fennel size penalty
# (`paper_alpha`'s two run once per rule). DESIGN.md §4: construction
# sorts no row (a full run's row is one record, in input order), and
# a part's fingerprint takes each row as a multiset, never its
# destinations in order. DESIGN.md §8, round four: a stored master
# is one `u16` table — no `RemoteMasters`, no window or sparse-search
# fallback, no `u32` master store in the round loop. Test modules,
# which keep the naive forms as references, are cut off at
# `#[cfg(test)]`.
if grep -rn 'Box<dyn Fn(Node)' crates/core/src/phases/; then exit 1; fi
if grep -n 'fetch_add(' crates/core/src/phases/edge_assign.rs; then exit 1; fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/phases/edge_assign.rs | grep -n 'if h != dm'; then exit 1; fi
if grep -n 'vec!\[0 as Node\|vec!\[0u32; total' crates/core/src/phases/alloc.rs; then exit 1; fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/policies/edges.rs | grep -n ' % self\.\| / self\.'; then exit 1; fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/phases/delta.rs | grep -n 'PerThread\|for_each_kept_edge\|insert_record(\|local2global\[other as usize\]'; then exit 1; fi
for f in crates/core/src/phases/master.rs crates/core/src/policy.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'HashMap'; then exit 1; fi
done
if grep -rn 'from_map(' crates/core/src; then exit 1; fi
for f in crates/core/src/policies/masters.rs crates/core/src/policies/extensions.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'vec!\[0\.0f64;\|vec!\[0u64; k'; then exit 1; fi
done
test "$(sed '/#\[cfg(test)\]/,$d' crates/core/src/policies/masters.rs | grep -c 'powf(self\.gamma')" -eq 1
if grep -rn --include='*.rs' 'sort_adjacency' crates/ src/; then exit 1; fi
for f in crates/core/src/phases/construct.rs crates/core/src/phases/delta.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'sort_unstable'; then exit 1; fi
done
if grep -nF 'h.array(p.graph.dests())' crates/core/src/verify.rs; then exit 1; fi
for f in $(find crates/core/src -name '*.rs'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'RemoteMasters\|window_lo\|fn search'; then echo "in $f"; exit 1; fi
done
if sed '/#\[cfg(test)\]/,$d' crates/core/src/phases/master.rs | grep -n 'AtomicU32'; then exit 1; fi
