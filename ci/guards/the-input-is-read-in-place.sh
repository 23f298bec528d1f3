#!/usr/bin/env bash
# CI step "The input is read in place"
#
# DESIGN.md "Chunking memory model": a host's slice of an in-memory
# source is a window over the caller's Arc<Csr>, the splits are
# computed over the graph's own offsets, and a Mem chunk is a window
# too. Nothing copies the input. Test modules are cut off at
# `#[cfg(test)]`.
read=crates/core/src/phases/read.rs
chunk=crates/graph/src/chunk.rs
if sed '/#\[cfg(test)\]/,$d' "$read" | grep -nE '\.to_vec\(\)|GraphSlice::from_csr'; then
  echo "$read: window the caller's graph (GraphSlice::window) and split over &graph.offsets()[1..]" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' "$chunk" | grep -n 'fill_from_csr'; then
  echo "$chunk: a Mem chunk is a GraphSlice::window, not a copy" >&2
  exit 1
fi
