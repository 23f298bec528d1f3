#!/usr/bin/env bash
# CI step "One replay layer"
#
# DESIGN.md "Replay and dedup": one send log above the transport line
# (crates/net/src/replay.rs), written by Comm::send_bytes and read by
# both recoveries through SendLog::replay; replayed bytes are recorded
# there only. Test modules are cut off at `#[cfg(test)]`.
cluster=crates/net/src/cluster.rs
tcp=crates/net/src/transport/tcp.rs
if sed '/#\[cfg(test)\]/,$d' "$cluster" | grep -nE 'BTreeMap<\(u8, usize, u64\)|fn log_send|send_hw'; then
  echo "$cluster: the send log and its high-water marks live in replay.rs" >&2
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' "$tcp" | grep -nE '^\s*(pub(\([a-z]+\))? )?log:|p\.log\b'; then
  echo "$tcp: an admission replays the fabric's send log; a peer keeps none" >&2
  exit 1
fi
for f in "$cluster" "$tcp"; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'record_replayed('; then
    echo "$f: replayed bytes are recorded in replay.rs only" >&2
    exit 1
  fi
done
