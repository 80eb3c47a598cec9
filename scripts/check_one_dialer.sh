#!/usr/bin/env bash
# One-dialer guard: every exchange of this repository's protocol — daemon to
# daemon, and client to daemon (campaign streams included) — goes through the
# kept-alive transport (internal/diet/transport.go), which owns dialing,
# pooling, the stale-retry and the never-pool-after-abort rules. A net.Dial*
# call anywhere else is a dial-per-request call site creeping back in. Tests
# and bench/ may dial as they like. CI runs this in the lint job; from a
# checkout:
#
#   ./scripts/check_one_dialer.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sites="$(grep -rnE --include='*.go' --exclude='*_test.go' 'net\.(Dial|Dialer)' . |
  grep -v -e '^\./bench/' -e '^\./internal/diet/transport\.go:' || true)"

if [ -n "$sites" ]; then
  echo "one-dialer: dial sites outside internal/diet/transport.go:" >&2
  echo "$sites" >&2
  echo "one-dialer: route the exchange through diet.Transport (kept-alive) or diet.RoundTripContext (one-shot)" >&2
  exit 1
fi
