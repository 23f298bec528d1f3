#!/usr/bin/env bash
# CI step "One peer link"
#
# DESIGN.md §11 "One peer link": what a TCP peer's FIN, LOST, failure,
# silence, HELLO (first or rejoin) or dial answer means is decided by
# transport::link::PeerLink; tcp.rs keeps no per-peer state beside it
# and no timer that guesses. Test modules are cut off at `#[cfg(test)]`.
tcp=crates/net/src/transport/tcp.rs
if sed '/#\[cfg(test)\]/,$d' "$tcp" | grep -nE 'conn_gen|down_since|fin_received|peer_incarnation'; then
  echo "$tcp: a peer's connection state is its PeerLink, under the peer's one lock" >&2
  exit 1
fi
if grep -rnE 'rejoin_window|dial_backoff|dial_timeout|handshake_timeout' crates src tests; then
  echo "a down peer's fate is the supervisor's, a dial is tried once, the handshake bound is a constant" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' "$tcp" | grep -n 'thread::sleep'; then
  echo "$tcp: nothing sleeps; every wait is on an event" >&2
  exit 1
fi
if [ "$(sed '/#\[cfg(test)\]/,$d' "$tcp" | grep -c 'fabric\.abort(')" != 1 ]; then
  echo "$tcp: one fabric.abort(, in drive's MarkLost arm: what a LOST or a loss means is the link's" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' "$tcp" | grep -n 'LinkState::'; then
  echo "$tcp: the driver asks its PeerLink (awaiting, finned, watched) and matches no LinkState" >&2
  exit 1
fi
if grep -rnE 'accept_timeout|ACCEPT_POLL|AcceptTimeout|accept_peers' crates src tests \
     --include='*.rs'; then
  echo "one acceptor: every HELLO, first or rejoin, is a PeerLink step; no accept deadline" >&2
  exit 1
fi
