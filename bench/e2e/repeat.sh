#!/usr/bin/env bash
# Runs N full sets of the benchmark back to back and reports how well they
# agree: per workload and end-to-end metric the spread (max-min)/median and
# the interquartile spread against the metric's bound in BENCHMARK.json, and
# per per-layer metric whether it repeated exactly or with what spread.
#
#   bench/e2e/repeat.sh [N=3] [--vary-seed]
#
# With --vary-seed set i runs on seed i (the benchmark driver's own
# steadiness test does that); otherwise every set runs on the default seed.
# Exits non-zero when a spread exceeds its bound or a run was not correct.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
sets="${1:-3}"
vary="${2:-}"
if ! [[ "$sets" =~ ^[0-9]+$ ]] || [ "$sets" -lt 2 ]; then
    echo "usage: repeat.sh [N>=2] [--vary-seed]" >&2
    exit 2
fi

files=()
for i in $(seq 1 "$sets"); do
    echo "== set $i of $sets ==" >&2
    if [ "$vary" = "--vary-seed" ]; then
        "$here/run.sh" --seed "$i" >/dev/null
    else
        "$here/run.sh" >/dev/null
    fi
    cp "$here/out/result.json" "$here/out/repeat-$i.json"
    files+=("$here/out/repeat-$i.json")
done

"$here/run.sh" spread "${files[@]}"
