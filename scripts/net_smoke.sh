#!/usr/bin/env bash
# Network-transport smoke test: boots `intersect-serve --transport` on a
# free TCP port, drives it with a loadgen burst from a separate process,
# and verifies nonzero completed sessions, a SIGTERM drain that reports
# every session served, and clean exits on both sides.
# Run from anywhere; operates on the workspace that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BIN=${INTERSECT_SERVE_BIN:-target/debug/intersect-serve}
LOADGEN_BIN=${INTERSECT_LOADGEN_BIN:-target/debug/loadgen}
if [[ ! -x "$SERVE_BIN" || ! -x "$LOADGEN_BIN" ]]; then
  echo "==> building intersect-serve and loadgen"
  cargo build -q --bin intersect-serve --bin loadgen
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"; kill %1 2>/dev/null || true' EXIT

echo "==> boot transport server on a free port"
"$SERVE_BIN" --transport tcp:127.0.0.1:0 2>"$tmpdir/serve.err" &

addr=""
for _ in $(seq 1 50); do
  addr=$(sed -n 's/^transport: listening on //p' "$tmpdir/serve.err" | head -n1)
  [[ -n "$addr" ]] && break
  sleep 0.1
done
if [[ -z "$addr" ]]; then
  echo "transport server never announced its address" >&2
  cat "$tmpdir/serve.err" >&2
  exit 1
fi
echo "    listening on $addr"

echo "==> loadgen burst: 64 sessions, 6 workers, 2 connections"
# The human summary goes to stderr; --json puts exactly one parseable
# line on stdout — both contracts are asserted here.
"$LOADGEN_BIN" --endpoint "$addr" --sessions 64 --concurrency 6 \
  --connections 2 --k 64 --json \
  >"$tmpdir/loadgen.json" 2>"$tmpdir/loadgen.err"
cat "$tmpdir/loadgen.err"

[[ $(wc -l <"$tmpdir/loadgen.json") == "1" ]] \
  || { echo "--json must emit exactly one stdout line"; cat "$tmpdir/loadgen.json"; exit 1; }
grep -q '"completed":64' "$tmpdir/loadgen.json" \
  || { echo "expected 64 completed sessions:"; cat "$tmpdir/loadgen.json"; exit 1; }
grep -q '"failed":0' "$tmpdir/loadgen.json" \
  || { echo "loadgen reported failures"; cat "$tmpdir/loadgen.json"; exit 1; }
completed=$(sed -n 's/^completed=\([0-9]*\) .*/\1/p' "$tmpdir/loadgen.err")
[[ "$completed" == "64" ]] \
  || { echo "human summary missing from stderr, got: ${completed:-none}"; exit 1; }
grep -q '"streams":0' "$tmpdir/loadgen.json" \
  || { echo "one-shot burst must report streams=0"; cat "$tmpdir/loadgen.json"; exit 1; }

echo "==> loadgen streamed burst: 64 sessions over 4 pair streams"
"$LOADGEN_BIN" --endpoint "$addr" --sessions 64 --concurrency 6 \
  --connections 2 --k 64 --streams 4 --json \
  >"$tmpdir/loadgen_stream.json" 2>"$tmpdir/loadgen_stream.err"
cat "$tmpdir/loadgen_stream.err"

grep -q '"completed":64' "$tmpdir/loadgen_stream.json" \
  || { echo "streamed burst must complete all sessions:"; cat "$tmpdir/loadgen_stream.json"; exit 1; }
grep -q '"streams":4' "$tmpdir/loadgen_stream.json" \
  || { echo "streamed burst must report streams=4:"; cat "$tmpdir/loadgen_stream.json"; exit 1; }
grep -q '"amortized_bits_per_session":[0-9]' "$tmpdir/loadgen_stream.json" \
  || { echo "streamed burst must report amortized bits/session:"; cat "$tmpdir/loadgen_stream.json"; exit 1; }
grep -q 'amortized_bits_per_session=[0-9]' "$tmpdir/loadgen_stream.err" \
  || { echo "human summary must carry amortized bits/session"; cat "$tmpdir/loadgen_stream.err"; exit 1; }

echo "==> loadgen multiparty burst: 16 four-party sessions"
"$LOADGEN_BIN" --endpoint "$addr" --sessions 16 --concurrency 4 \
  --connections 2 --k 64 --players 4 --json \
  >"$tmpdir/loadgen_mp.json" 2>"$tmpdir/loadgen_mp.err"
cat "$tmpdir/loadgen_mp.err"

grep -q '"completed":16' "$tmpdir/loadgen_mp.json" \
  || { echo "multiparty burst must complete all sessions:"; cat "$tmpdir/loadgen_mp.json"; exit 1; }
grep -q '"failed":0' "$tmpdir/loadgen_mp.json" \
  || { echo "multiparty burst reported failures"; cat "$tmpdir/loadgen_mp.json"; exit 1; }
grep -q '"players":4' "$tmpdir/loadgen_mp.json" \
  || { echo "--json must echo players=4:"; cat "$tmpdir/loadgen_mp.json"; exit 1; }
grep -q 'players=4' "$tmpdir/loadgen_mp.err" \
  || { echo "human summary must echo players=4"; cat "$tmpdir/loadgen_mp.err"; exit 1; }

echo "==> loadgen multiplexed burst: 40000 pinned sessions, 8 workers, 1 connection"
# Gates what the per-session server threads used to break — their
# unjoined handles exhausted the process's memory maps near 32 000
# sessions on one connection — and the multiplexer's two failure modes
# under load: a frame routed before its session's inbox exists fails the
# session (`unknown session id`), a lost hand-over of the read role
# stalls sessions for 30 s each, far past the wall-clock bound.
burst_started=$SECONDS
"$LOADGEN_BIN" --endpoint "$addr" --sessions 40000 --concurrency 8 \
  --connections 1 --k 16 --protocol trivial --json \
  >"$tmpdir/loadgen_mux.json" 2>"$tmpdir/loadgen_mux.err"
burst_took=$((SECONDS - burst_started))
cat "$tmpdir/loadgen_mux.err"

grep -q '"completed":40000' "$tmpdir/loadgen_mux.json" \
  || { echo "multiplexed burst must complete all sessions:"; cat "$tmpdir/loadgen_mux.json"; exit 1; }
grep -q '"failed":0' "$tmpdir/loadgen_mux.json" \
  || { echo "multiplexed burst reported failures"; cat "$tmpdir/loadgen_mux.json"; exit 1; }
(( burst_took <= 60 )) \
  || { echo "multiplexed burst took ${burst_took}s (bound 60s; ~2s on release binaries)"; exit 1; }

echo "==> SIGTERM must drain and exit cleanly"
kill -TERM %1
if ! wait %1; then
  echo "server exited nonzero after SIGTERM"; cat "$tmpdir/serve.err"; exit 1
fi
grep -q 'transport summary: connections=7 served=40144 failed=0 rejected=0' \
  "$tmpdir/serve.err" \
  || { echo "unexpected drain summary:"; cat "$tmpdir/serve.err"; exit 1; }

echo "==> network transport smoke passed"
