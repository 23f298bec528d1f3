#!/usr/bin/env bash
# CI step "The substrate is std"
#
# DESIGN.md §5 "Dependencies": locks are std::sync, the one-receiver
# queues std::sync::mpsc, the simulator's mailbox and `Bytes` are
# cusp-net's own. vendor/{bytes,crossbeam,parking_lot} stay only as
# empty stubs because the benchmark package's frozen manifest still
# patches their paths.
if grep -nE '^[^#]*\b(bytes|crossbeam|parking_lot)\b' Cargo.toml crates/*/Cargo.toml; then
  echo "the workspace builds on std: no manifest names bytes, crossbeam or parking_lot" >&2
  exit 1
fi
if grep -rnE '\b(crossbeam|parking_lot|bytes)::' crates src tests examples --include='*.rs' \
     | grep -v '^crates/bench/src/bin/benchmark/'; then
  echo "locks are std::sync, single-consumer queues std::sync::mpsc, payloads cusp_net::Bytes" >&2
  exit 1
fi
for c in bytes crossbeam parking_lot; do
  if grep -nvE '^\s*//' "vendor/$c/src/lib.rs"; then
    echo "vendor/$c is an empty stub kept for the benchmark package's patch path" >&2
    exit 1
  fi
done
