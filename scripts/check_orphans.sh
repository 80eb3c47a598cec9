#!/usr/bin/env bash
# Orphan check: every internal/... package must be imported by at least one
# other package of the module, not counting its own tests — a package nothing
# imports is dead weight that still costs review, CI time and refactors. CI
# runs this in the lint job; from a checkout:
#
#   ./scripts/check_orphans.sh
set -euo pipefail
cd "$(dirname "$0")/.."

module="$(go list -m)"
# Every import edge of the module, tests included, as "importer imported";
# an internal package's own tests (in-package and _test) are not importers.
edges="$(go list -test -f '{{$p := .ImportPath}}{{range .Imports}}{{$p}} {{.}}{{"\n"}}{{end}}' ./... |
  sed -E 's/ \[[^]]*\]//g; s/^([^ ]*)(_test|\.test) /\1 /' |
  awk '$1 != $2' | sort -u)"

status=0
while IFS= read -r pkg; do
  if ! grep -q " $pkg\$" <<<"$edges"; then
    echo "orphan: ${pkg#"$module"/} has no importer outside its own tests" >&2
    status=1
  fi
done < <(go list ./internal/...)
exit "$status"
