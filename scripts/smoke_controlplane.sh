#!/usr/bin/env bash
# Control-plane smoke: start a real daemon on ephemeral ports, drive the
# oasched submit/-list/-info/-cancel verbs against it, then scrape the
# /metrics endpoint and assert the per-tenant fairness gauges. CI runs this
# (.github/workflows/ci.yml), and it works identically from a checkout:
#
#   ./scripts/smoke_controlplane.sh
#
# The daemon picks its own ports (-addr/-metrics 127.0.0.1:0) and the script
# parses them from its startup log, so parallel runs never collide.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
  status=$?
  if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  if [ "$status" -ne 0 ] && [ -f "$workdir/daemon.log" ]; then
    echo "--- daemon log ---" >&2
    cat "$workdir/daemon.log" >&2
  fi
  rm -rf "$workdir"
  exit "$status"
}
trap cleanup EXIT

# Real binaries, not `go run`: the PID we signal must be the daemon itself.
go build -o "$workdir/oarun" ./cmd/oarun
go build -o "$workdir/oasched" ./cmd/oasched

"$workdir/oarun" -daemon -addr 127.0.0.1:0 -metrics 127.0.0.1:0 -seds 2 \
  -tenant-weights ocean=2,atmos=1 >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^scheduler daemon listening on \([^ ]*\).*/\1/p' "$workdir/daemon.log" | head -n1)"
  [ -n "$addr" ] && break
  if ! kill -0 "$daemon_pid" 2>/dev/null; then
    echo "smoke: daemon exited before announcing its address" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "smoke: daemon never announced its address" >&2
  exit 1
fi
metrics_addr="$(sed -n 's|^metrics endpoint on http://\([^/]*\)/metrics.*|\1|p' "$workdir/daemon.log" | head -n1)"
if [ -z "$metrics_addr" ]; then
  echo "smoke: daemon never announced its metrics endpoint" >&2
  exit 1
fi
echo "smoke: daemon on $addr, metrics on $metrics_addr"

for _ in $(seq 1 50); do
  "$workdir/oasched" -addr "$addr" -list >/dev/null 2>&1 && break
  sleep 0.2
done

# Submit with per-campaign options, then the -list / -info / -cancel verbs.
# Verb output lands in files first: under pipefail, `| grep -q` would turn
# grep's early exit into a SIGPIPE failure of the verb itself.
"$workdir/oasched" -addr "$addr" -ns 4 -nm 12 -priority 5 -labels team=ocean,tier=gold
"$workdir/oasched" -addr "$addr" -list
"$workdir/oasched" -addr "$addr" -list -status done -labels team=ocean >"$workdir/list.txt"
grep -q "^1\b" "$workdir/list.txt"
"$workdir/oasched" -addr "$addr" -info 1 >"$workdir/info.txt"
grep -q done "$workdir/info.txt"
"$workdir/oasched" -addr "$addr" -cancel 1 >"$workdir/cancel.txt"
grep -q "campaign 1: done" "$workdir/cancel.txt"

# A peer that does not speak the frame protocol (here: an HTTP client on the
# wire port) is closed without an answer — and counted, asserted below.
curl -s -m 5 "http://$addr/" >/dev/null 2>&1 || true

# /metrics: Prometheus text with the queue, per-tenant and SeD families.
# The completed counter settles just after the campaign's result frame, so
# the first assertion retries briefly.
metrics_out="$workdir/metrics.txt"
ok=""
for _ in $(seq 1 50); do
  curl -fsS "http://$metrics_addr/metrics" >"$metrics_out"
  if grep -q 'oagrid_tenant_completed_total{tenant="ocean"} 1' "$metrics_out"; then
    ok=1
    break
  fi
  sleep 0.1
done
if [ -z "$ok" ]; then
  echo "smoke: /metrics never reported the ocean tenant's completion" >&2
  cat "$metrics_out" >&2
  exit 1
fi
grep -q '^oagrid_queue_depth ' "$metrics_out"
grep -q 'oagrid_tenant_weight{tenant="ocean"} 2' "$metrics_out"
grep -q 'oagrid_tenant_admitted_total{tenant="ocean"} 1' "$metrics_out"
grep -q 'oagrid_tenant_queue_wait_seconds_count{tenant="ocean"} 1' "$metrics_out"
grep -q '^oagrid_sed_alive' "$metrics_out"
grep -q '^oagrid_wire_tx_bytes_total ' "$metrics_out"
grep -q '^oagrid_wire_refused_total 1$' "$metrics_out"
# Daemon-to-daemon exchanges ride kept-alive connections: by now the SeDs'
# heartbeats and the campaign's exec have each reused one.
grep -q '^oagrid_wire_dials_total [1-9]' "$metrics_out"
grep -q '^oagrid_wire_reused_total [1-9]' "$metrics_out"
grep -q '^oagrid_wire_idle_conns [1-9]' "$metrics_out"
curl -fsSI "http://$metrics_addr/metrics" >"$workdir/headers.txt"
grep -qi '^content-type: text/plain' "$workdir/headers.txt"

echo "control-plane smoke: ok"
