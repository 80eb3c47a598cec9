#!/usr/bin/env bash
# Runs oaperf and prints the environment next to the result, so a number is
# never read without the machine it came from. Arguments pass through:
#
#   bench/run.sh -seed 1                   # the untraced suite
#   bench/run.sh -seed 2 -trace out.jsonl  # a second seed confirms a claim
#   bench/run.sh -selfcheck
set -euo pipefail
cd "$(dirname "$0")/.."

cores=$(nproc)
if [ "$cores" -lt 2 ]; then
	echo "bench/run.sh: nproc=$cores; the benchmark needs at least 2 cores (pacer + system under test)" >&2
	exit 1
fi
mkdir -p bench/out
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="$commit+dirty"
fi
echo "# nproc=$cores GOMAXPROCS=${GOMAXPROCS:-unset} $(go version)"
echo "# state dir filesystem: $(df --output=fstype bench/out | tail -1) commit=$commit"
exec go run ./bench/oaperf "$@"
