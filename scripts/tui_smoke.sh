#!/usr/bin/env bash
# intersect-top smoke test: boots `intersect-serve --listen`, runs the
# dashboard headless against the live plane, and verifies a non-empty
# frame plus clean exits.
# Run from anywhere; operates on the workspace that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BIN=${INTERSECT_SERVE_BIN:-target/debug/intersect-serve}
TOP_BIN=${INTERSECT_TOP_BIN:-target/debug/intersect-top}
if [[ ! -x "$SERVE_BIN" || ! -x "$TOP_BIN" ]]; then
  echo "==> building intersect-serve and intersect-top"
  cargo build -q --bin intersect-serve --bin intersect-top
fi

fetch() { # fetch <url> -> body on stdout
  curl -sS --max-time 5 "$1"
}

wait_for_addr() { # wait_for_addr <stderr-file> -> prints host:port
  local file=$1 addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's/^telemetry: listening on //p' "$file" | head -n1)
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "telemetry server never announced its address" >&2
    cat "$file" >&2
    return 1
  fi
  echo "$addr"
}

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"; kill %1 2>/dev/null || true' EXIT

echo "==> happy path: headless dashboard against a live plane"
"$SERVE_BIN" --batch 24 --listen 127.0.0.1:0 --linger-ms 5000 --quiet \
  >/dev/null 2>"$tmpdir/serve.err" &
addr=$(wait_for_addr "$tmpdir/serve.err")

# Buffer bodies before grepping: `fetch | grep -q` lets grep close the
# pipe at first match, curl exits 23, and pipefail calls that a failure.
fetch "http://$addr/version" >"$tmpdir/body" \
  && grep -q '"version"' "$tmpdir/body" \
  || { echo "/version missing version field"; exit 1; }
fetch "http://$addr/metrics" >"$tmpdir/body" \
  && grep -q '^build_info{' "$tmpdir/body" \
  || { echo "/metrics missing build_info gauge"; exit 1; }

"$TOP_BIN" --endpoint "$addr" --frames 3 --interval-ms 200 --width 100 \
  >"$tmpdir/frames.out" 2>"$tmpdir/top.err" \
  || { echo "intersect-top exited nonzero"; cat "$tmpdir/top.err"; exit 1; }
[[ -s "$tmpdir/frames.out" ]] || { echo "dashboard frame is empty"; exit 1; }
grep -q '^intersect-top — intersect ' "$tmpdir/frames.out" \
  || { echo "frame missing identity header"; head -5 "$tmpdir/frames.out"; exit 1; }
grep -q '^throughput ' "$tmpdir/frames.out" \
  || { echo "frame missing throughput panel"; exit 1; }
grep -q '^recent sessions' "$tmpdir/frames.out" \
  || { echo "frame missing recent-sessions panel"; exit 1; }
grep -q 'tick 3' "$tmpdir/frames.out" \
  || { echo "dashboard did not reach tick 3"; exit 1; }

wait %1 || { echo "healthy run exited nonzero"; cat "$tmpdir/serve.err"; exit 1; }

echo "==> tui smoke passed"
