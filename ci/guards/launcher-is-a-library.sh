#!/usr/bin/env bash
# CI step "Launcher is a library (src/bin parses flags, calls cusp::distributed and prints)"
#
# DESIGN.md §11 "The cross-process oracle": the process driver, the
# worker half and their line protocol live in one library module,
# behind a typed report; nothing reads a transport knob out of the
# environment.
if grep -rnE 'process::Command|Supervisor|CUSP-WORKER-' src/bin/; then
  echo "src/bin: launch and worker are cusp::distributed::{launch, worker}" >&2
  exit 1
fi
if grep -rn 'CUSP_TCP_' crates src tests .github --include='*.rs' --include='*.yml' \
     | grep -v 'grep -rn'; then
  echo "the launcher passes --heartbeat-ms; the transport reads no environment" >&2
  exit 1
fi
