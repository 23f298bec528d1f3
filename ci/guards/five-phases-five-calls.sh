#!/usr/bin/env bash
# CI step "Five phases, five calls (no Phase trait, snapshot mirrors, second phase table or second batch codec)"
if grep -rnE 'trait Phase|Phase for|EdgeAssignSnapshot|MastersSnapshot|KILL_PHASES|EV_ADD' crates --include='*.rs'; then
  echo "call the phase functions under PhaseCtx::run_phase, checkpoint the phase outputs themselves, take phase names from PhaseTimes::NAMES, and encode mutation batches with wal::encode_batch" >&2
  exit 1
fi
