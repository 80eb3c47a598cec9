#!/usr/bin/env bash
# Fused multiply-add check: the Go spec lets a compiler fuse x*y + z into one
# instruction that rounds once instead of twice. arm64 and ppc64le do, amd64
# does not, so an unrounded product on the result path makes a campaign's
# numbers depend on the GOARCH that computed them. Only an explicit
# conversion, float64(x*y) + z, forbids the fusion. This cross-compiles the
# result-path packages, the figures' statistics and the ablation baselines,
# with the module packages they import, and fails on any fused instruction in
# their assembly. -S is
# scoped to oagrid/internal/... because package math fuses on purpose.
# The compiler's output is replayed from the build cache, so a warm run sees
# it too. CI runs this in the lint job; from a checkout:
#
#   ./scripts/check_no_fma.sh
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/exec ./internal/core ./internal/platform ./internal/engine ./internal/knapsack ./internal/stats ./internal/baseline)
status=0
for arch in arm64 ppc64le; do
  asm="$(GOARCH="$arch" go build -gcflags='oagrid/internal/...=-S' "${pkgs[@]}" 2>&1)"
  if fused="$(grep -E '\bFN?M(ADD|SUB)[SD]?\b' <<<"$asm")"; then
    echo "fused multiply-add on $arch:" >&2
    echo "$fused" >&2
    status=1
  fi
done
exit "$status"
