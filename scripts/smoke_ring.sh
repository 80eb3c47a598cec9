#!/usr/bin/env bash
# Sharded-ring smoke: start a 3-daemon ring on concrete loopback ports (the
# member list must be known up front), drive it with oaload, kill one daemon
# mid-run, and assert the run still completes with every chunk report
# bit-identical to serial evaluation (oaload's exit status and verification
# line) — plus the ring gauges on the survivors' /metrics: the dead peer
# marked down and at least one campaign adopted from its WAL replica. CI runs this (.github/workflows/ci.yml), and it works
# identically from a checkout:
#
#   ./scripts/smoke_ring.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
pids=()
cleanup() {
  status=$?
  for pid in "${pids[@]:-}"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  if [ "$status" -ne 0 ]; then
    for i in 0 1 2; do
      if [ -f "$workdir/daemon$i.log" ]; then
        echo "--- daemon $i log ---" >&2
        cat "$workdir/daemon$i.log" >&2
      fi
    done
    [ -f "$workdir/oaload.log" ] && { echo "--- oaload log ---" >&2; cat "$workdir/oaload.log" >&2; }
  fi
  rm -rf "$workdir"
  exit "$status"
}
trap cleanup EXIT

go build -o "$workdir/oarun" ./cmd/oarun
go build -o "$workdir/oaload" ./cmd/oaload

# Ring membership needs concrete addresses before any daemon starts, so the
# ports are reserved (bound, read back, released) rather than ephemeral.
read -r p0 p1 p2 <<<"$(python3 -c '
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks:
    s.close()
')"
members="127.0.0.1:$p0,127.0.0.1:$p1,127.0.0.1:$p2"
ports=("$p0" "$p1" "$p2")
echo "smoke: ring members $members"

for i in 0 1 2; do
  "$workdir/oarun" -daemon -addr "127.0.0.1:${ports[$i]}" -metrics 127.0.0.1:0 \
    -seds 2 -cprocs 30 -state "$workdir/state$i" \
    -ring "$members" -ring-hb 100ms >"$workdir/daemon$i.log" 2>&1 &
  pids+=("$!")
done

for i in 0 1 2; do
  ok=""
  for _ in $(seq 1 100); do
    if grep -q "^ring member " "$workdir/daemon$i.log" 2>/dev/null; then
      ok=1
      break
    fi
    if ! kill -0 "${pids[$i]}" 2>/dev/null; then
      echo "smoke: daemon $i exited before joining the ring" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$ok" ]; then
    echo "smoke: daemon $i never joined the ring" >&2
    exit 1
  fi
done

# Drive the ring, and kill daemon 2 mid-run: its streams break, its admitted
# campaigns are re-attached by oaload's multi-addr clients and adopted by
# the failover owners — the run must still complete and verify.
"$workdir/oaload" -addr "$members" -campaigns 30 -rate 10 -ns 4 -months 12 \
  >"$workdir/oaload.log" 2>&1 &
load_pid=$!
sleep 1.5
victim_pid="${pids[2]}"
victim_addr="127.0.0.1:${ports[2]}"
echo "smoke: killing ring member $victim_addr mid-run"
kill -9 "$victim_pid" 2>/dev/null || true
wait "$victim_pid" 2>/dev/null || true
pids[2]=""

if ! wait "$load_pid"; then
  echo "smoke: oaload failed against the degraded ring" >&2
  exit 1
fi
grep -q "verification: every chunk report bit-identical to serial evaluation" "$workdir/oaload.log"

# Survivors' /metrics: ring size 3, the victim marked dead, and its journaled
# campaigns adopted at least once across the survivors. Adoption runs on the
# membership tick after the death deadline, so the scrape retries briefly.
metrics_addrs=()
for i in 0 1; do
  ma="$(sed -n 's|^metrics endpoint on http://\([^/]*\)/metrics.*|\1|p' "$workdir/daemon$i.log" | head -n1)"
  if [ -z "$ma" ]; then
    echo "smoke: daemon $i never announced its metrics endpoint" >&2
    exit 1
  fi
  metrics_addrs+=("$ma")
done
ok=""
for _ in $(seq 1 100); do
  adopted=0
  dead_seen=""
  for ma in "${metrics_addrs[@]}"; do
    curl -fsS "http://$ma/metrics" >"$workdir/metrics.txt" || continue
    grep -q '^oagrid_ring_size 3$' "$workdir/metrics.txt"
    if grep -q "oagrid_ring_peer_alive{peer=\"$victim_addr\"} 0" "$workdir/metrics.txt"; then
      dead_seen=1
    fi
    a="$(sed -n 's/^oagrid_ring_adopted_total \([0-9]*\)$/\1/p' "$workdir/metrics.txt")"
    adopted=$((adopted + ${a:-0}))
  done
  if [ -n "$dead_seen" ] && [ "$adopted" -ge 1 ]; then
    ok=1
    break
  fi
  sleep 0.1
done
if [ -z "$ok" ]; then
  echo "smoke: survivors never reported the dead peer and an adoption (adopted=$adopted)" >&2
  curl -fsS "http://${metrics_addrs[0]}/metrics" >&2 || true
  exit 1
fi

echo "ring smoke: ok (adopted=$adopted)"
