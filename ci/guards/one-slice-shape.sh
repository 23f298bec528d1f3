#!/usr/bin/env bash
# CI step "One slice shape"
#
# DESIGN.md "Chunking memory model": a host's range is always a
# ChunkedSlice, and chunk_edges: None is its one-chunk case, so no
# second slice type comes back, read_phase builds every range through
# ChunkedSlice (no direct range read or window), and a Mem stream
# splits over the graph's own offsets instead of a copy of them. Test
# modules are cut off at `#[cfg(test)]`.
if grep -rnE '\b(SliceData|expect_whole)\b' crates src tests examples --include='*.rs' \
     | grep -v '^crates/bench/src/bin/benchmark/'; then
  echo "a host's range is a cusp_graph::ChunkedSlice; chunk_edges: None is its one-chunk case" >&2
  exit 1
fi
read=crates/core/src/phases/read.rs
if sed '/#\[cfg(test)\]/,$d' "$read" | grep -nE 'read_range\(|GraphSlice::window\('; then
  echo "$read: build the range with ChunkedSlice::from_file / ChunkedSlice::from_csr" >&2
  exit 1
fi
chunk=crates/graph/src/chunk.rs
if sed '/#\[cfg(test)\]/,$d' "$chunk" | sed -n '/pub fn from_csr/,/^    }$/p' \
     | grep -nE 'collect|to_vec|to_owned|extend|Vec::from|clone\(\)'; then
  echo "$chunk: from_csr computes its boundaries over csr.offsets() itself, not a copy" >&2
  exit 1
fi
