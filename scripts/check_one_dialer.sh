#!/usr/bin/env bash
# One-dialer guard: daemons talk to each other over the kept-alive transport
# (internal/diet/transport.go), which owns dialing, pooling, the stale-retry
# and the never-pool-after-abort rules. A net.Dial* call anywhere else is a
# dial-per-request call site creeping back in. The one exception is the
# client's streaming submit/attach connection, grid.Client.openStreamAt: a
# submit must never be replayed, so it keeps a connection of its own. Tests
# and bench/ may dial as they like. CI runs this in the lint job; from a
# checkout:
#
#   ./scripts/check_one_dialer.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sites="$(grep -rnE --include='*.go' --exclude='*_test.go' 'net\.(Dial|Dialer)' . |
  grep -v -e '^\./bench/' -e '^\./internal/diet/transport\.go:' || true)"

# Exactly one site may remain, and the function around it is openStreamAt.
ok=""
if [ "$(grep -c . <<<"$sites")" -eq 1 ] && [[ "$sites" == ./internal/grid/client.go:* ]]; then
  line="${sites#./internal/grid/client.go:}"
  line="${line%%:*}"
  fn="$(awk -v n="$line" 'NR <= n && /^func / { f = $0 } END { print f }' internal/grid/client.go)"
  [[ "$fn" == *" openStreamAt("* ]] && ok=1
fi
if [ -z "$ok" ]; then
  echo "one-dialer: dial sites outside internal/diet/transport.go; want only grid.Client.openStreamAt:" >&2
  echo "${sites:-(none: openStreamAt no longer dials?)}" >&2
  echo "one-dialer: route the exchange through diet.Transport (daemons) or diet.RoundTripContext (one-shot clients)" >&2
  exit 1
fi
