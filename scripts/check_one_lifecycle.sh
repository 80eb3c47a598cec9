#!/usr/bin/env bash
# One-lifecycle guard: the campaign lifecycle — journal records, claim,
# cancel, pause, recovery — lives in internal/grid and nowhere else. The
# public runners (root package) drive it through grid.Client / grid.Local
# and hold no campaign state, so the root package's own code must not
# import the journal, and no non-test code outside internal/grid and
# internal/store may build a journal record. Tests may forge journals. CI
# runs this in the lint job; from a checkout:
#
#   ./scripts/check_one_lifecycle.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in ./*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -q '"oagrid/internal/store"' "$f"; then
    echo "one-lifecycle: ${f#./} imports oagrid/internal/store; journaling belongs to internal/grid" >&2
    status=1
  fi
done

literals="$(grep -rn --include='*.go' --exclude='*_test.go' 'store\.Record{' . |
  grep -v -e '^\./internal/grid/' -e '^\./internal/store/' || true)"
if [ -n "$literals" ]; then
  echo "one-lifecycle: journal records built outside internal/grid and internal/store:" >&2
  echo "$literals" >&2
  status=1
fi
exit "$status"
