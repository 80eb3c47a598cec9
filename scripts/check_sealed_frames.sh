#!/usr/bin/env bash
# Sealed-golden-frames guard: the files under internal/diet/testdata/frames
# are the wire. Each is written once, by the codec of the change that adds
# it, and never regenerated. A field added to a wire layout without a
# version gate changes the bytes of a version peers already speak; the
# golden test would catch it, and rewriting the files to make that test pass
# is exactly the mistake this guard refuses. So against the merge base with
# BASE (default origin/main), a golden file that existed there may not be
# modified, nor deleted while its version is at or above the protocol floor
# (diet.ProtocolFloor). New files are always fine. Uncommitted changes
# count. CI runs this in the lint job (which needs the full history); from
# a checkout:
#
#   ./scripts/check_sealed_frames.sh [BASE]
set -euo pipefail
cd "$(dirname "$0")/.."

frames=internal/diet/testdata/frames
ref="${1:-origin/main}"
if ! base="$(git merge-base HEAD "$ref")"; then
  echo "sealed-frames: no merge base between HEAD and $ref (fetch the full history)" >&2
  exit 1
fi

floor="$(sed -n 's/^[[:space:]]*ProtocolFloor = ProtocolV\([0-9][0-9]*\)$/\1/p' internal/diet/protocol.go)"
if [ -z "$floor" ]; then
  echo "sealed-frames: cannot read ProtocolFloor from internal/diet/protocol.go" >&2
  exit 1
fi

bad=""
while IFS=$'\t' read -r status path; do
  [ -n "$status" ] || continue
  case "$status" in
    A) ;;
    D)
      ver="${path##*.v}"
      ver="${ver%.hex}"
      if ! [[ "$ver" =~ ^[0-9]+$ ]] || [ "$ver" -ge "$floor" ]; then
        bad+="  deleted  $path (v$ver is at or above the v$floor floor)"$'\n'
      fi
      ;;
    *) bad+="  $status        $path"$'\n' ;;
  esac
done < <(git diff --no-renames --name-status "$base" -- "$frames")

if [ -n "$bad" ]; then
  echo "sealed-frames: golden frames committed at $(git rev-parse --short "$base") changed:" >&2
  printf '%s' "$bad" >&2
  echo "sealed-frames: a released version's bytes never change; gate the new field behind the next ProtocolVN and add that version's frames instead" >&2
  exit 1
fi
