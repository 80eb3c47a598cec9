#!/usr/bin/env bash
# One-lifecycle guard: the campaign lifecycle — journal records, claim,
# cancel, pause, recovery — lives in internal/grid and nowhere else. The
# public runners (root package) drive it through grid.Client / grid.Local
# and hold no campaign state, so the root package's own code must not
# import the journal, and no non-test code outside internal/grid and
# internal/store may build a journal record. Inside it there is one fold:
# what a record does to a campaign is said by campaign.apply
# (internal/grid/campaign.go) and nowhere else, so no other non-test file
# outside internal/store may branch on a record kind, and internal/store —
# which groups records without interpreting them — may not mention a
# progress frame at all. The Figure-9 pipeline has one home too: outside
# tests and bench/, Algorithm 1 (core.Repartition) runs only in the
# lifecycle's round and in Distribute, so a figure or command that wants a
# grid makespan runs a campaign. Tests may forge journals. CI runs this in
# the lint job; from a checkout:
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

folds="$(grep -rnE --include='*.go' --exclude='*_test.go' '(case|==|!=) *store\.Kind' . |
  grep -v -e '^\./internal/grid/campaign\.go:' -e '^\./internal/store/' || true)"
if [ -n "$folds" ]; then
  echo "one-lifecycle: journal records interpreted outside campaign.apply (internal/grid/campaign.go):" >&2
  echo "$folds" >&2
  status=1
fi

repartitions="$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'core\.Repartition(' . |
  grep -v -e '^\./internal/grid/lifecycle\.go:' -e '^\./oagrid\.go:' || true)"
if [ -n "$repartitions" ]; then
  echo "one-lifecycle: Algorithm 1 called outside the lifecycle's round (internal/grid/lifecycle.go) and Distribute (oagrid.go):" >&2
  echo "$repartitions" >&2
  status=1
fi

frames="$(grep -rn --include='*.go' 'ProgressUpdate' ./internal/store || true)"
if [ -n "$frames" ]; then
  echo "one-lifecycle: internal/store mentions progress frames; it groups records, campaign.apply interprets them:" >&2
  echo "$frames" >&2
  status=1
fi
exit "$status"
