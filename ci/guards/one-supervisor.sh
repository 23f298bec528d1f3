#!/usr/bin/env bash
# CI step "One supervisor (budget, backoff, respawn, give up and finish are decided in recovery.rs only)"
#
# DESIGN.md §11 "One supervisor": the thread fabric and `cusp-part
# launch` detect and act; neither compares a restart budget,
# computes a backoff or keeps its own respawn queue. Test code
# (`tests/` directories, and modules cut off at `#[cfg(test)]`) may.
for f in $(grep -rlE 'max_restarts|restart_backoff|backoff_base' crates src --include='*.rs' \
             | grep -v '/tests/' | grep -v '^crates/net/src/recovery.rs$'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" \
      | grep -nE '([<>]=?|[=!]=) *([a-z_.]+\.)?max_restarts|max_restarts *([<>]|[=!]=)'; then
    echo "$f: the restart budget is compared once, in recovery::Supervisor::step" >&2
    exit 1
  fi
  if sed '/#\[cfg(test)\]/,$d' "$f" \
      | grep -nE '(restart_backoff|backoff_base) *\*|\* *([a-z_.]+\.)?(restart_backoff|backoff_base)'; then
    echo "$f: the backoff is computed once, by RecoveryOptions::backoff" >&2
    exit 1
  fi
done
if grep -rnE 'pending_respawn|restart-backoff-ms' crates src; then
  echo "a due respawn is a Supervisor state (Backoff), and the launch backoff is a constant" >&2
  exit 1
fi
