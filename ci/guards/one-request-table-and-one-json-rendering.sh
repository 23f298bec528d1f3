#!/usr/bin/env bash
# CI step "One request table and one JSON rendering"
#
# DESIGN.md "Serving layer": HTTP and `cusp-part client` build
# requests through cusp_serve::api::VERBS and print
# Response::to_json; http.rs is an adapter over them. Test modules
# are cut off at `#[cfg(test)]`.
http=crates/serve/src/http.rs
lines=$(sed '/#\[cfg(test)\]/,$d' "$http" | wc -l)
if [ "$lines" -gt 150 ]; then
  echo "$http: $lines lines; the HTTP front end is an adapter over api::VERBS and Response::to_json (at most 150)" >&2
  exit 1
fi
if grep -nE 'Request::[A-Z]|let Response::|\.label\(\)' src/bin/cusp-part.rs; then
  echo "cusp-part client builds requests through cusp_serve::VERBS and prints Response::to_json" >&2
  exit 1
fi
if grep -rnE 'fn (escape|json_error|render|quoted)\b' crates/serve/src src/bin --include='*.rs' \
     | grep -v '^crates/serve/src/api.rs:'; then
  echo "a response is rendered as JSON once, by Response::to_json in crates/serve/src/api.rs" >&2
  exit 1
fi
