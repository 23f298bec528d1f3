#!/usr/bin/env bash
# CI step "Every wait ends on an event (cusp-net keeps no poll timer; only a handshake read has a timeout)"
#
# DESIGN.md §7 and §11 "One peer link": a TCP reader blocks in its socket's
# read until the peer's bytes, its close, or this host shutting the socket
# down; a receive under a FaultPlan is woken when an envelope is held back
# for its host. No wait in cusp-net polls a flag on a timer. Test modules
# are cut off at `#[cfg(test)]`.
for f in $(find crates/net/src -name '*.rs'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '\b(const|static) +[A-Z0-9_]*_POLL\b'; then
    echo "$f: no poll timer; a wait ends on the event it waits for" >&2
    exit 1
  fi
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'set_read_timeout(' \
       | grep -vE 'set_read_timeout\((Some\(HANDSHAKE_TIMEOUT\)|None)\)'; then
    echo "$f: only a handshake read has a timeout (HANDSHAKE_TIMEOUT); a data read ends when its socket shuts" >&2
    exit 1
  fi
done
