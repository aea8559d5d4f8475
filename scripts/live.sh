#!/usr/bin/env bash
# Live serve, scrape, graceful shutdown, warm restart: drive a built
# forecache binary over real HTTP and assert what an operator would see.
#
#   go build -o forecache-cli ./cmd/forecache && scripts/live.sh ./forecache-cli
#
# CI runs it against the plain binary; scripts/reachability.sh runs it
# against a -cover binary (coverage counters are written at normal exit, so
# both servers are stopped with SIGTERM by PID and waited on; either
# exiting non-zero fails the script). Listens on :18080 and :18081.
set -eu

BIN=${1:?usage: scripts/live.sh <forecache binary>}
WORK=$(mktemp -d)
STATE_DIR="$WORK/state"
SERVE_PID= SERVE2_PID= STREAM_PID= BSTREAM_PID=
cleanup() {
  for pid in $STREAM_PID $BSTREAM_PID $SERVE_PID $SERVE2_PID; do
    kill "$pid" 2> /dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

"$BIN" serve -size 128 -addr :18080 -pprof -shards 4 -push -binary-tiles -state-dir "$STATE_DIR" &
SERVE_PID=$!
for i in $(seq 1 60); do
  curl -sf "http://localhost:18080/meta" > /dev/null && break
  sleep 1
done
# Attach a push stream for the ci session before it requests any
# tiles; completed prefetches must arrive as framed SSE events.
curl -sN "http://localhost:18080/stream?session=ci" > "$WORK/stream.out" &
STREAM_PID=$!
sleep 1
curl -sf "http://localhost:18080/tile?level=0&y=0&x=0&session=ci" > /dev/null
curl -sf "http://localhost:18080/tile?level=1&y=0&x=0&session=ci" > /dev/null
for i in $(seq 1 30); do
  grep -q 'event: tile' "$WORK/stream.out" && break
  sleep 1
done
grep -q 'event: tile' "$WORK/stream.out"
# A second session negotiates binary framing on its stream the way
# it would on /tile: the answer names the frame-stream type and the
# frames arrive as bytes around the FCT1 bodies.
curl -sN -D "$WORK/bstream-headers.out" -H 'Accept: application/x-forecache-tile' \
  "http://localhost:18080/stream?session=ci-bin" > "$WORK/bstream.out" &
BSTREAM_PID=$!
sleep 1
grep -qi 'content-type: application/x-forecache-stream' "$WORK/bstream-headers.out"
curl -sf "http://localhost:18080/tile?level=0&y=0&x=0&session=ci-bin" > /dev/null
curl -sf "http://localhost:18080/tile?level=1&y=0&x=0&session=ci-bin" > /dev/null
for i in $(seq 1 30); do
  grep -q 'FCT1' "$WORK/bstream.out" && break
  sleep 1
done
grep -q 'FCT1' "$WORK/bstream.out"
kill "$BSTREAM_PID" 2> /dev/null || true
wait "$BSTREAM_PID" 2> /dev/null || true
# A fleet of session ids must spread over the 4 shards: at least
# two shards end up owning live sessions.
for s in a b c d e f g h; do
  curl -sf "http://localhost:18080/tile?level=0&y=0&x=0&session=fleet-$s" > /dev/null
done
SPREAD=$(curl -sf "http://localhost:18080/stats" \
  | grep -o '"shard_sessions":\[[^]]*\]' | tr -dc '0-9,' | tr ',' '\n' | grep -cv '^0$')
echo "shards with live sessions: $SPREAD"
test "$SPREAD" -ge 2
"$BIN" scrape -url "http://localhost:18080/metrics"
curl -sf "http://localhost:18080/metrics" | grep -q 'forecache_shards 4'
curl -sf "http://localhost:18080/metrics" | grep -q 'forecache_prefetch_shard_queued_total{shard="0"}'
# Scrapes that several greps read go to a file first: `curl | tee f | grep -q`
# lets grep exit on its first match and SIGPIPE tee before f is whole.
curl -sf "http://localhost:18080/metrics" > "$WORK/metrics.out"
grep -q 'forecache_push_streams 1' "$WORK/metrics.out"
grep -q 'forecache_push_tiles_total' "$WORK/metrics.out"
grep -q 'forecache_push_bytes_total' "$WORK/metrics.out"
curl -sf "http://localhost:18080/stats?session=ci" | grep -q '"push"'
# Content negotiation: the binary codec + gzip must be honored and
# the encoded-cache metric families must reach the scrape.
curl -sfD "$WORK/tile-headers.out" \
  -H 'Accept: application/x-forecache-tile' -H 'Accept-Encoding: gzip' \
  "http://localhost:18080/tile?level=0&y=0&x=0&session=nego" > "$WORK/tile-body.bin"
grep -qi 'content-type: application/x-forecache-tile' "$WORK/tile-headers.out"
grep -qi 'content-encoding: gzip' "$WORK/tile-headers.out"
curl -sf "http://localhost:18080/metrics" > "$WORK/metrics-enc.out"
grep -q 'forecache_tile_encode_misses_total' "$WORK/metrics-enc.out"
grep -q 'forecache_tile_encode_cache_hits_total' "$WORK/metrics-enc.out"
grep -q 'forecache_tile_encoded_cache_bytes' "$WORK/metrics-enc.out"
grep -q 'forecache_tile_encode_duration_seconds_bucket' "$WORK/metrics-enc.out"
grep -q 'forecache_tile_response_bytes_bucket' "$WORK/metrics-enc.out"
"$BIN" scrape -url "http://localhost:18080/metrics"
# Every served /tile trace attributes its encode + header + body write.
curl -sf "http://localhost:18080/debug/traces?n=5" > "$WORK/traces.out"
grep -q '"traces"' "$WORK/traces.out"
grep -q '"write"' "$WORK/traces.out"
curl -sf "http://localhost:18080/stats" | grep -q '"snapshot"'
# SIGTERM must drain, snapshot and exit 0 even with the push
# stream still attached (the old ListenAndServe path skipped the
# deferred Close entirely; a stream Close must not deadlock on).
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=
kill "$STREAM_PID" 2> /dev/null || true
wait "$STREAM_PID" 2> /dev/null || true
test -f "$STATE_DIR/snapshot.json"
if ls "$STATE_DIR"/*.tmp > /dev/null 2>&1; then
  echo "orphan temp file left behind:" && ls "$STATE_DIR" && exit 1
fi
# A second server over the same state dir must report the learned
# state restored, not cold.
"$BIN" serve -size 128 -addr :18081 -state-dir "$STATE_DIR" &
SERVE2_PID=$!
for i in $(seq 1 60); do
  curl -sf "http://localhost:18081/meta" > /dev/null && break
  sleep 1
done
curl -sf "http://localhost:18081/stats" > "$WORK/warm-stats.json"
grep -q '"feedback":"restored"' "$WORK/warm-stats.json"
grep -q '"allocation":"restored"' "$WORK/warm-stats.json"
grep -q '"hotspot":"restored"' "$WORK/warm-stats.json"
# The default one-shard deployment is the same scheduler with N=1:
# its per-shard families render as a single shard="0" series.
curl -sf "http://localhost:18081/tile?level=0&y=0&x=0&session=warm" > /dev/null
curl -sf "http://localhost:18081/metrics" | grep -q 'forecache_prefetch_shard_queued_total{shard="0"}'
kill -TERM "$SERVE2_PID"
wait "$SERVE2_PID"
SERVE2_PID=
echo "live: ok"
