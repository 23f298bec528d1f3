#!/usr/bin/env bash
# CI step "One byte layer (formats keep field lists; the slice codec, the record and crc32 live in cusp_graph::wire)"
#
# DESIGN.md "Bytes": no format codec moves an integer by hand, there
# is one checksum routine, and the pipeline has one encoder. Test
# modules, which build corrupt inputs by hand, are cut off at
# `#[cfg(test)]`.
for f in crates/graph/src/wal.rs crates/graph/src/file.rs \
         crates/core/src/storage.rs crates/core/src/checkpoint.rs \
         crates/serve/src/protocol.rs crates/serve/src/cache.rs \
         crates/net/src/serialize.rs crates/net/src/transport/tcp.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'to_le_bytes\|from_le_bytes'; then
    echo "$f: encode and decode through cusp_graph::wire, not by hand" >&2
    exit 1
  fi
done
if grep -rn 'fn crc32' crates src --include='*.rs' | grep -v '^crates/graph/src/wire.rs:'; then
  echo "crc32 is defined once, in crates/graph/src/wire.rs" >&2
  exit 1
fi
if grep -rn 'scalar_codec' crates src --include='*.rs'; then
  echo "the construct phase has one encoder: the slice codec" >&2
  exit 1
fi
# One content hash too: `wire::Fingerprint`. FNV survives only as
# `fault.rs::fnv1a`, which keys seeded kill/fault decisions by
# phase name and must keep its values.
if grep -rnE '0100_0000_01b3|cbf2_9ce4_8422_2325' crates src tests --include='*.rs' \
     | grep -v '^crates/net/src/fault.rs:'; then
  echo "fingerprints hash through cusp_graph::wire::Fingerprint; FNV stays in crates/net/src/fault.rs" >&2
  exit 1
fi
for f in $(grep -rlE 'struct Fnv|for +[a-z_&]+ +in +.*\.to_(le|be|ne)_bytes\(\)' crates src --include='*.rs' \
             | grep -v '/tests/'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" \
      | grep -nE 'struct Fnv|for +[a-z_&]+ +in +.*\.to_(le|be|ne)_bytes\(\)'; then
    echo "$f: no byte-at-a-time hash; absorb values through cusp_graph::wire::Fingerprint" >&2
    exit 1
  fi
done
