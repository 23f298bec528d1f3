#!/usr/bin/env bash
# CI step "One construction stream"
#
# DESIGN.md "Determinism contract": construction's records leave
# through one SendBuffers per host, in block order, so its messages
# are a function of the input at every thread count and nothing in
# the library or the CLI pins a run to one thread. The benchmark
# package, a frozen caller, is left out; test modules are cut off
# at `#[cfg(test)]`.
construct=crates/core/src/phases/construct.rs
if sed '/#\[cfg(test)\]/,$d' "$construct" | tr '\n' ' ' \
     | grep -oE 'PerThread(::new\(|<)[^;]*SendBuffers'; then
  echo "$construct: one SendBuffers per host, never one per thread" >&2
  exit 1
fi
for f in $(grep -rl 'deterministic_for_comparison(' crates/*/src src --include='*.rs' \
             | grep -v '^crates/bench/src/bin/benchmark/'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'deterministic_for_comparison(' \
       | grep -v 'fn deterministic_for_comparison('; then
    echo "$f: runs keep their threads_per_host; nothing pins one thread" >&2
    exit 1
  fi
done
