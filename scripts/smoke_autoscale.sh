#!/usr/bin/env bash
# Elastic-fleet smoke: start a real oarun daemon with -autoscale 1:5 and one
# base SeD, drive oaload against it over the wire faster than one SeD keeps
# up with, and assert via /metrics that the queue stayed deep enough to judge
# (else it fails as "load too light to judge"), that the fleet scaled up to
# at least 4 SeDs, spawned each within 2s, drained back to the base fleet
# afterwards, and never requeued a chunk. oaload also verifies every campaign
# bit-identical client-side, replaying each chunk serially. CI runs this
# (.github/workflows/ci.yml), and it works identically from a checkout:
#
#   ./scripts/smoke_autoscale.sh
#
# The daemon picks its own ports (-addr/-metrics 127.0.0.1:0) and the script
# parses them from its startup log, so parallel runs never collide.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
daemon_pid=""
sampler_pid=""
cleanup() {
  status=$?
  for pid in "$sampler_pid" "$daemon_pid"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  if [ "$status" -ne 0 ]; then
    for log in daemon.log load.log; do
      if [ -f "$workdir/$log" ]; then
        echo "--- $log ---" >&2
        cat "$workdir/$log" >&2
      fi
    done
  fi
  rm -rf "$workdir"
  exit "$status"
}
trap cleanup EXIT

# Real binaries, not `go run`: the PID we signal must be the daemon itself.
go build -o "$workdir/oarun" ./cmd/oarun
go build -o "$workdir/oaload" ./cmd/oaload

# One base SeD, elastic to 5, every other spawn at half speed. The scarce
# dispatcher/in-flight budget is what makes the burst actually queue; -hb
# 100ms also sets the autoscaler's sampling pace.
"$workdir/oarun" -daemon -addr 127.0.0.1:0 -metrics 127.0.0.1:0 \
  -seds 1 -autoscale 1:5 -sed-speeds 1,0.5 \
  -queue 512 -inflight 1 -dispatchers 4 -hb 100ms \
  >"$workdir/daemon.log" 2>&1 &
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
grep -q '^autoscale: elastic fleet 1\.\.5' "$workdir/daemon.log"
echo "smoke: daemon on $addr, metrics on $metrics_addr"

# Record the fleet size and the queue depth /metrics reports while the load
# runs, one "fleet queue" line per sample: the scale-UP witness has to be
# sampled live, the fleet is back down by the end.
: >"$workdir/samples.txt"
(
  while :; do
    curl -fsS "http://$metrics_addr/metrics" 2>/dev/null |
      awk '$1 == "oagrid_autoscale_fleet_size" { f = $2 } $1 == "oagrid_queue_depth" { q = $2 }
        END { if (f != "" && q != "") print f, q }' >>"$workdir/samples.txt" || true
    sleep 0.05
  done
) &
sampler_pid=$!

# The load: one uniform rate, well past what the base SeD serves, so the
# queue builds and the controller spawns. Its size is in months, so a
# faster executor shrinks it; the precondition below says when it has.
"$workdir/oaload" -addr "$addr" -campaigns 400 -rate 300 -ns 30 -months 1080 \
  >"$workdir/load.log" 2>&1
grep -q 'verification: every chunk report bit-identical' "$workdir/load.log"

kill "$sampler_pid" 2>/dev/null || true
wait "$sampler_pid" 2>/dev/null || true
sampler_pid=""

# Precondition: the policy scales up at a queue depth of 4 (upQueue in
# internal/autoscale), one step per 5 of its 100ms ticks, so reaching 4
# SeDs takes three steps and at least 1 s of pressure. Unless /metrics saw
# the queue that deep for 20 samples (>= 1 s at the 50ms sampling pace),
# the load, not the autoscaler, is what a low peak would measure.
deep="$(awk '$2 >= 4' "$workdir/samples.txt" | wc -l)"
if [ "$deep" -lt 20 ]; then
  echo "smoke: load too light to judge: queue depth >= 4 in $deep of $(wc -l <"$workdir/samples.txt") /metrics samples, want >= 20" >&2
  exit 1
fi
echo "smoke: queue depth >= 4 in $deep /metrics samples"

peak="$(awk '{ print $1 }' "$workdir/samples.txt" | sort -n | tail -n1)"
if [ -z "$peak" ] || [ "$peak" -lt 4 ]; then
  echo "smoke: /metrics never showed the fleet scaling up (peak ${peak:-none}, want >= 4)" >&2
  exit 1
fi
echo "smoke: fleet peaked at $peak SeDs under load"

# Scale-down: poll /metrics until the fleet is back to the base SeD with
# nothing draining and at least one completed scale-down on the counter.
metrics_out="$workdir/metrics.txt"
ok=""
for _ in $(seq 1 120); do
  curl -fsS "http://$metrics_addr/metrics" >"$metrics_out"
  if grep -q '^oagrid_autoscale_fleet_size 1$' "$metrics_out" &&
    grep -q '^oagrid_autoscale_draining 0$' "$metrics_out" &&
    ! grep -q '^oagrid_autoscale_scale_downs_total 0$' "$metrics_out"; then
    ok=1
    break
  fi
  sleep 0.5
done
if [ -z "$ok" ]; then
  echo "smoke: fleet never drained back to the base SeD" >&2
  cat "$metrics_out" >&2
  exit 1
fi

# The invariants the scale-down must not have broken, plus the new families.
grep -q '^oagrid_requeues_total 0$' "$metrics_out"
grep -q '^oagrid_autoscale_scale_ups_total ' "$metrics_out"
latency="$(sed -n 's/^oagrid_autoscale_scale_up_latency_ms_max //p' "$metrics_out")"
if [ -z "$latency" ] || ! awk -v ms="$latency" 'BEGIN { exit !(ms <= 2000) }'; then
  echo "smoke: worst spawn-to-registered latency ${latency:-missing} ms, want <= 2000" >&2
  exit 1
fi
echo "smoke: worst spawn-to-registered latency $latency ms"
grep -q 'oagrid_sed_speed{cluster=' "$metrics_out"
grep -q 'oagrid_sed_draining{cluster=' "$metrics_out"

echo "autoscale smoke: ok"
