#!/usr/bin/env bash
# cluster_smoke.sh — CI's cluster-smoke gate for the dist backend.
#
# Builds cmd/snaple-worker, spawns a 3-process worker fleet on loopback,
# runs the equivalence harness's wire rows under the race detector against
# that fleet (SNAPLE_WORKER_ADDRS points the tests at it), then exercises
# both CLI paths: -addrs against the running fleet and -spawn, where the CLI
# forks its own workers. The chaos legs run the in-process fault suite under
# -race, the harness's replica rows against the fleet, and SIGKILL a
# replicated worker mid-run, asserting the failover
# output is byte-identical to the healthy run's. The final resident leg
# packs a 3-shard set, pins it on a 2x-replicated standing fleet, fronts it
# with two snaple-serve processes sharing the same workers, and SIGKILLs a
# resident worker mid-traffic: requests must keep answering 200 and /statsz
# must record the death. The trap tears every worker down even when a step
# fails, and asserts no stragglers survived the sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
pids=()
cleanup() {
  status=$?
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  # Leak sweep: every worker this script started — directly or via a -spawn
  # run that resolved the binary from $workdir — must be gone by now. A
  # straggler means some teardown path (coordinator reap, trap kill) broke.
  if pgrep -f "$workdir/snaple-worker" >/dev/null 2>&1; then
    echo "straggler snaple-worker processes survived teardown:" >&2
    pgrep -af "$workdir/snaple-worker" >&2 || true
    pkill -9 -f "$workdir/snaple-worker" 2>/dev/null || true
    [ $status -eq 0 ] && status=1
  fi
  if [ $status -ne 0 ]; then
    echo "--- worker logs ---" >&2
    cat "$workdir"/worker*.err 2>/dev/null >&2 || true
  fi
  rm -rf "$workdir"
  exit $status
}
trap cleanup EXIT INT TERM

echo "==> building worker and CLI"
go build -o "$workdir/snaple-worker" ./cmd/snaple-worker
go build -o "$workdir/snaple" ./cmd/snaple

echo "==> spawning 3 workers on loopback"
addrs=()
for i in 1 2 3; do
  "$workdir/snaple-worker" -listen 127.0.0.1:0 \
    >"$workdir/worker$i.out" 2>"$workdir/worker$i.err" &
  pids+=($!)
done
for i in 1 2 3; do
  line=""
  for _ in $(seq 1 100); do
    line="$(head -n1 "$workdir/worker$i.out" 2>/dev/null || true)"
    [ -n "$line" ] && break
    sleep 0.1
  done
  case "$line" in
    "listening "*) addrs+=("${line#listening }") ;;
    *) echo "worker $i never announced its address (got: '$line')" >&2; exit 1 ;;
  esac
done
addr_list="$(IFS=,; echo "${addrs[*]}")"
echo "    fleet: $addr_list"

echo "==> the equivalence harness's wire rows under -race against the external fleet"
SNAPLE_WORKER_ADDRS="$addr_list" \
  go test -race -count=1 -run 'TestBackendEquivalence/^dist-(w|hash|greedy)' \
  ./internal/engine/

echo "==> CLI end-to-end against the running fleet (-addrs)"
plain_out="$("$workdir/snaple" -dataset gowalla -scale 0.3 -engine dist -addrs "$addr_list" -eval)"
echo "$plain_out"

echo "==> CLI auto-spawn path (-spawn forks its own workers)"
PATH="$workdir:$PATH" "$workdir/snaple" -dataset gowalla -scale 0.3 -engine dist -spawn 2 -eval

echo "==> a listener that is not a v3 worker must fail the run with the protocol-mismatch error"
# One-shot stand-in for an older build or a stray service on the worker port:
# it answers the coordinator's hello with bytes that are not a v3 frame.
# (python3 rather than `nc -l`: it can bind port 0 and announce the address
# the way the workers do.)
python3 -c '
import socket
s = socket.socket(); s.bind(("127.0.0.1", 0)); s.listen(1)
print("listening %s:%d" % s.getsockname(), flush=True)
c, _ = s.accept(); c.recv(4096); c.sendall(b"HTTP/1.1 400 Bad Request\r\n\r\n"); c.recv(4096)
' >"$workdir/stranger.out" &
pids+=($!)
stranger_addr=""
for _ in $(seq 1 100); do
  line="$(head -n1 "$workdir/stranger.out" 2>/dev/null || true)"
  case "$line" in
    "listening "*) stranger_addr="${line#listening }"; break ;;
  esac
  sleep 0.1
done
if [ -z "$stranger_addr" ]; then
  echo "non-v3 listener never announced its address" >&2
  exit 1
fi
if mismatch_out="$("$workdir/snaple" -dataset gowalla -scale 0.3 -engine dist \
    -addrs "$stranger_addr" -eval 2>&1)"; then
  echo "run against a non-v3 listener unexpectedly succeeded" >&2
  exit 1
fi
case "$mismatch_out" in
  *"protocol mismatch"*"rebuild worker and coordinator from the same tree"*) ;;
  *) echo "non-v3 listener failure lacks a clear diagnosis: $mismatch_out" >&2; exit 1 ;;
esac

echo "==> -wire-compress shrinks the measured cross-node traffic"
zip_out="$("$workdir/snaple" -dataset gowalla -scale 0.3 -engine dist \
  -addrs "$addr_list" -wire-compress -eval)"
echo "$zip_out"
# The dist stats line carries the raw byte count for exactly this check:
# "engine: dist wall=...s cross=1.2MiB (1234567 B) msgs=...".
cross_bytes() { sed -n 's/.*cross=[^(]*(\([0-9][0-9]*\) B).*/\1/p' <<<"$1"; }
plain_bytes="$(cross_bytes "$plain_out")"
zip_bytes="$(cross_bytes "$zip_out")"
if [ -z "$plain_bytes" ] || [ -z "$zip_bytes" ]; then
  echo "could not parse measured cross_bytes from the CLI output" >&2
  exit 1
fi
if [ "$zip_bytes" -ge "$plain_bytes" ]; then
  echo "compression did not shrink traffic: $plain_bytes B plain vs $zip_bytes B compressed" >&2
  exit 1
fi
echo "    cross-node traffic: $plain_bytes B plain -> $zip_bytes B compressed"

echo "==> in-process chaos suite under -race (failover equivalence, partition loss, cancellation)"
go test -race -count=1 \
  -run 'TestDistChaos|TestDistPartitionLost|TestDistCancel' \
  ./internal/engine/

echo "==> the equivalence harness's replica rows under -race against the external fleet"
SNAPLE_WORKER_ADDRS="$addr_list" \
  go test -race -count=1 -run 'TestBackendEquivalence/^dist-r' ./internal/engine/

echo "==> chaos: SIGKILL a replicated worker mid-run, output must be byte-identical"
"$workdir/snaple-worker" -listen 127.0.0.1:0 \
  >"$workdir/worker4.out" 2>"$workdir/worker4.err" &
pids+=($!)
extra_addr=""
for _ in $(seq 1 100); do
  line="$(head -n1 "$workdir/worker4.out" 2>/dev/null || true)"
  case "$line" in
    "listening "*) extra_addr="${line#listening }"; break ;;
  esac
  sleep 0.1
done
if [ -z "$extra_addr" ]; then
  echo "4th worker never announced its address" >&2
  exit 1
fi
fleet4="$addr_list,$extra_addr"
# With -replicas 2 the 4 workers form 2 replica groups; -dump writes every
# prediction as an exact hex float, so cmp(1) is a bit-identity check.
"$workdir/snaple" -dataset gowalla -scale 0.3 -engine dist -addrs "$fleet4" \
  -replicas 2 -step-timeout 30s -dump "$workdir/healthy.tsv" >/dev/null
# Kill worker 1 the instant the chaos run launches: the SIGKILL lands while
# the coordinator is still generating, dialing, shipping or stepping — every
# landing point must end the same way, with the death recorded (dead=1) and
# the surviving replica producing byte-identical output.
"$workdir/snaple" -dataset gowalla -scale 0.3 -engine dist -addrs "$fleet4" \
  -replicas 2 -step-timeout 30s -dump "$workdir/chaos.tsv" \
  >"$workdir/chaos.out" &
run_pid=$!
kill -9 "${pids[0]}" 2>/dev/null || true
wait "$run_pid"
cat "$workdir/chaos.out"
grep -q "fleet: replicas=2 dead=1" "$workdir/chaos.out"
cmp "$workdir/healthy.tsv" "$workdir/chaos.tsv"
echo "    failover output byte-identical ($(wc -l <"$workdir/healthy.tsv") prediction lines)"

echo "==> resident fleet: pack 3 shards, pin them on 6 workers (2 replicas each)"
go build -o "$workdir/graphgen" ./cmd/graphgen
go build -o "$workdir/snaple-serve" ./cmd/snaple-serve
"$workdir/graphgen" -dataset gowalla -scale 0.3 -seed 7 -o "$workdir/g0.sgr"
"$workdir/snaple" pack -in "$workdir/g0.sgr" -out "$workdir/g.sgr" -shards 3 -seed 7
res_pids=()
res_addrs=()
n=0
for s in 0 1 2; do
  for _ in 1 2; do
    n=$((n + 1))
    "$workdir/snaple-worker" -shard "$workdir/g.sgr.$s" -listen 127.0.0.1:0 \
      >"$workdir/resident$n.out" 2>"$workdir/resident$n.err" &
    pids+=($!)
    res_pids+=($!)
  done
done
for i in $(seq 1 $n); do
  line=""
  for _ in $(seq 1 100); do
    line="$(head -n1 "$workdir/resident$i.out" 2>/dev/null || true)"
    [ -n "$line" ] && break
    sleep 0.1
  done
  case "$line" in
    "listening "*) res_addrs+=("${line#listening }") ;;
    *) echo "resident worker $i never announced its address (got: '$line')" >&2; exit 1 ;;
  esac
done
# Shard-major ordering: addrs[s*replicas + r] are the replicas of shard s.
res_list="$(IFS=,; echo "${res_addrs[*]}")"
echo "    resident fleet: $res_list"

echo "==> two serve front-ends attach to the same standing fleet"
serve_addrs=()
for s in 1 2; do
  "$workdir/snaple-serve" -in "$workdir/g0.sgr" -manifest "$workdir/g.sgr.manifest" \
    -addrs "$res_list" -replicas 2 -step-timeout 30s -listen 127.0.0.1:0 \
    >"$workdir/resserve$s.out" 2>"$workdir/resserve$s.err" &
  pids+=($!)
done
for s in 1 2; do
  line=""
  for _ in $(seq 1 100); do
    line="$(head -n1 "$workdir/resserve$s.out" 2>/dev/null || true)"
    [ -n "$line" ] && break
    sleep 0.1
  done
  case "$line" in
    "serving "*) serve_addrs+=("${line#serving }") ;;
    *) echo "serve front-end $s never announced its address (got: '$line')" >&2
       cat "$workdir/resserve$s.err" >&2 || true
       exit 1 ;;
  esac
done

echo "==> both front-ends report the same fleet topology in /v1/info"
info1="$(curl -sf "http://${serve_addrs[0]}/v1/info")"
info2="$(curl -sf "http://${serve_addrs[1]}/v1/info")"
echo "    $info1"
echo "$info1" | grep -q '"shards":3'
echo "$info1" | grep -q '"replicas":2'
echo "$info1" | grep -q '"workers":6'
fleet_fp() { sed -n 's/.*"fleet":{[^}]*"fingerprint":"\([0-9a-f]*\)".*/\1/p' <<<"$1"; }
fp1="$(fleet_fp "$info1")"
fp2="$(fleet_fp "$info2")"
if [ -z "$fp1" ] || [ "$fp1" != "$fp2" ]; then
  echo "front-ends disagree on the fleet fingerprint: '$fp1' vs '$fp2'" >&2
  exit 1
fi

echo "==> scoped queries through both front-ends"
curl -sf -X POST "http://${serve_addrs[0]}/v1/predict" -d '{"ids":[1,2,3],"k":5}' \
  | grep -q '"predictions":'
curl -sf -X POST "http://${serve_addrs[1]}/v1/predict" -d '{"ids":[4,5],"k":5}' \
  | grep -q '"predictions":'

echo "==> SIGKILL one resident worker mid-traffic; 200s must continue"
kill -9 "${res_pids[0]}" 2>/dev/null || true
# Distinct uncached ids so every request after the kill is a real fleet run,
# not an LRU hit.
for id in 10 11 12 13; do
  code="$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST "http://${serve_addrs[0]}/v1/predict" -d "{\"ids\":[$id],\"k\":5}")"
  if [ "$code" != "200" ]; then
    echo "front-end 1 returned $code after the worker death" >&2
    cat "$workdir/resserve1.err" >&2 || true
    exit 1
  fi
done
curl -sf -X POST "http://${serve_addrs[1]}/v1/predict" -d '{"ids":[20,21],"k":5}' >/dev/null

echo "==> /statsz on both front-ends records the dead worker"
for s in 1 2; do
  res_stats="$(curl -sf "http://${serve_addrs[$((s - 1))]}/statsz")"
  echo "    front-end $s: $res_stats"
  grep -Eq '"workers_dead":[1-9]' <<<"$res_stats" || {
    echo "front-end $s /statsz shows no dead worker after the SIGKILL" >&2
    exit 1
  }
  grep -q '"workers_total":6' <<<"$res_stats"
done

echo "==> cluster smoke OK"
