#!/usr/bin/env bash
# One-dialer guard: every exchange of this repository's protocol — daemon to
# daemon, and client to daemon (campaign streams included) — goes through the
# kept-alive transport (internal/diet/transport.go), which owns dialing,
# pooling, the stale-retry and the never-pool-after-abort rules. A net.Dial*
# call anywhere else is a dial-per-request call site creeping back in. On
# the client side, every exchange reaches the ring members through one walk
# (grid.Client.walk in internal/grid/client.go), so outside tests only walk
# may call candidates. Tests and bench/ may dial as they like. CI runs this
# in the lint job; from a checkout:
#
#   ./scripts/check_one_dialer.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

sites="$(grep -rnE --include='*.go' --exclude='*_test.go' 'net\.(Dial|Dialer)' . |
  grep -v -e '^\./bench/' -e '^\./internal/diet/transport\.go:' || true)"
if [ -n "$sites" ]; then
  echo "one-dialer: dial sites outside internal/diet/transport.go:" >&2
  echo "$sites" >&2
  echo "one-dialer: route the exchange through diet.Transport (kept-alive) or diet.RoundTripContext (one-shot)" >&2
  status=1
fi

walks="$(find . -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 awk '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    /\.candidates\(/ && !(FILENAME == "./internal/grid/client.go" && fn ~ /^func \(c \*Client\) walk\(/) {
      print FILENAME ":" FNR ": " $0
    }')"
if [ -n "$walks" ]; then
  echo "one-dialer: ring walks outside grid.Client.walk (internal/grid/client.go):" >&2
  echo "$walks" >&2
  echo "one-dialer: reach the members through walk, with a try that says whether the member answered" >&2
  status=1
fi

exit "$status"
