#!/usr/bin/env bash
# A/B of the end-to-end benchmark: the working tree against a base commit,
# judged by the rule a performance claim has to meet (choosing-metrics §8).
#
#   ci/ab.sh [-n pairs] [-s first-seed] [-w workdir] <base-ref> [workload…]
#
# Unpacks <base-ref> with `git archive` into <workdir>/base (no worktree is
# registered, so there is nothing to prune afterwards), builds both trees
# with their own `bench/e2e/run.sh --check` into separate CARGO_TARGET_DIRs,
# then runs `pairs` (default 10) pairs per workload (default: every workload
# of BENCHMARK.json): pair i runs both binaries on seed first-seed + i
# (default first seed 1), `--seconds 15 --trace 0`, the side that goes first
# alternating. Nothing else should run on the machine meanwhile.
#
# Prints, per workload and end-to-end metric, each side's median with its
# quartiles (the exclusive method of Python's `statistics.quantiles`, which
# is what the benchmark driver uses), change ÷ base, the pairs the change
# won, each side's quartile distance over the widest the driver accepts (the
# metric's bound × the base's median), and a verdict:
#   better      won ≥ 9/10 of the pairs, and at least nine (ties count for
#               neither side), and the medians are further apart than the
#               base's own quartiles
#   worse       the change's median is worse than the base's by more than the
#               metric's bound in BENCHMARK.json
#   unresolved  neither, and a side's quartiles are further apart than the
#               bound allows — unless every run of the change beats every run
#               of the base
#   no worse    everything else
# Every run's numbers stay in <workdir>/runs.tsv. Exits 1 if any verdict is
# `worse` or a run failed an operation, 2 on a usage or build problem.
set -euo pipefail

pairs=10
first_seed=1
work=""
while getopts "n:s:w:" opt; do
    case "$opt" in
        n) pairs="$OPTARG" ;;
        s) first_seed="$OPTARG" ;;
        w) work="$OPTARG" ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ "$#" -lt 1 ]; then
    echo "usage: ci/ab.sh [-n pairs] [-s first-seed] [-w workdir] <base-ref> [workload…]" >&2
    exit 2
fi
base_ref="$1"
shift

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${work:-$(mktemp -d "${TMPDIR:-/tmp}/gmt-ab.XXXXXX")}"
mkdir -p "$work"
work="$(cd "$work" && pwd)"

if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(awk '
        /"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name"/ { gsub(/[",]/, ""); print $2 }' "$root/BENCHMARK.json")
fi

rm -rf "$work/base"
mkdir -p "$work/base"
git -C "$root" archive "$base_ref" | tar -x -C "$work/base"

declare -A tree=([base]="$work/base" [change]="$root")
for side in base change; do
    echo "[ab] building $side (${tree[$side]})" >&2
    if ! CARGO_TARGET_DIR="$work/target-$side" bash "${tree[$side]}/bench/e2e/run.sh" --check \
        >"$work/check-$side.log" 2>&1; then
        echo "[ab] $side: bench/e2e/run.sh --check failed, see $work/check-$side.log" >&2
        exit 2
    fi
    if grep -q "tier-I ceilings are null" "$work/check-$side.log"; then
        echo "[ab] $side built without the internal ceilings: an adapter no longer compiles" >&2
        exit 2
    fi
done

# One run; appends `workload seed side metric value` rows to runs.tsv.
run_one() {
    local side="$1" workload="$2" seed="$3" line
    line="$("$work/target-$side/release/gmt-e2e" --root "${tree[$side]}" \
        --out-dir "$work/out-$side" --workload "$workload" --seed "$seed" \
        --seconds 15 --trace 0 2>>"$work/run-$side.log" | tail -n 1)"
    awk -v w="$workload" -v s="$seed" -v side="$side" '
        {
            if ($0 !~ /"correct": true/) bad = 1
            if (match($0, /"failed": [0-9]+/)) failed = substr($0, RSTART + 10, RLENGTH - 10)
            print w, s, side, "failed", failed + 0 + bad
            rest = $0
            while (match(rest, /"[a-z0-9_]+": [{]"value": [-0-9.e+]+/)) {
                item = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                name = item; sub(/^"/, "", name); sub(/".*/, "", name)
                sub(/.*"value": /, "", item)
                print w, s, side, name, item
            }
        }
        END { if (NR == 0) print w, s, side, "failed", 1 }' OFS='\t' <<<"$line" >>"$work/runs.tsv"
}

: >"$work/runs.tsv"
for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        if ((i % 2 == 0)); then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do
            run_one "$side" "$workload" "$seed"
        done
        echo "[ab] $workload: pair $((i + 1)) of $pairs done" >&2
    done
done

status=0
awk -F'\t' -v pairs="$pairs" '
    # Quartile k of v[1..n] (sorted), exclusive method.
    function quart(v, n, k,    m, j, delta) {
        if (n == 1) return v[1]
        m = n + 1
        j = int(k * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
        delta = k * m - j * 4
        return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
    }
    function sorted(side, key, out,    n, i, j, t) {
        n = 0
        for (i = 0; i < pairs; i++) if ((key, side, i) in val) out[++n] = val[key, side, i]
        for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
        return n
    }
    FNR == NR {
        if ($0 ~ /"end_to_end"/) on = 1
        if ($0 ~ /"per_layer"/) on = 0
        if (on && $0 ~ /"name"/) { name = $0; gsub(/.*: "|",?$/, "", name) }
        if (on && $0 ~ /"better"/) higher[name] = ($0 ~ /higher/)
        if (on && $0 ~ /"bound"/) { b = $0; gsub(/[^0-9.]/, "", b); bound[name] = b; metrics[++nm] = name }
        next
    }
    {
        if (!($1 in seen_w)) { seen_w[$1] = 1; ws[++nw] = $1 }
        if (!(($1, $2) in idx)) { idx[$1, $2] = cnt[$1]++ }
        if ($4 == "failed") { failed[$3] += $5; next }
        val[$1 SUBSEP $4, $3, idx[$1, $2]] = $5
    }
    END {
        printf "%-20s %-14s %38s %38s %8s %6s %11s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "chg/base", "won", "IQR/bound", "verdict"
        for (w = 1; w <= nw; w++) for (m = 1; m <= nm; m++) {
            key = ws[w] SUBSEP metrics[m]
            nb = sorted("base", key, B); nc = sorted("change", key, C)
            if (nb == 0 || nc == 0) continue
            sign = higher[metrics[m]] ? 1 : -1
            won = 0; lost = 0
            for (i = 0; i < pairs; i++) if ((key, "base", i) in val && (key, "change", i) in val) {
                d = sign * (val[key, "change", i] - val[key, "base", i])
                if (d > 0) won++; else if (d < 0) lost++
            }
            bm = quart(B, nb, 2); cm = quart(C, nc, 2)
            b1 = quart(B, nb, 1); b3 = quart(B, nb, 3); c1 = quart(C, nc, 1); c3 = quart(C, nc, 3)
            gain = sign * (cm - bm)
            clear = higher[metrics[m]] ? (C[1] > B[nb]) : (C[nc] < B[1])
            widest = bound[metrics[m]] * bm
            wide = (b3 - b1 > widest) || (c3 - c1 > widest)
            if (won * 10 >= (won + lost) * 9 && won >= 9 && gain > b3 - b1) verdict = "better"
            else if (-gain > widest) { verdict = "worse"; any_worse = 1 }
            else if (wide && !clear) verdict = "unresolved"
            else verdict = "no worse"
            printf "%-20s %-14s %38s %38s %8.3f %3d/%-2d %11s  %s\n", ws[w], metrics[m], \
                sprintf("%.6g [%.6g, %.6g]", bm, b1, b3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3), \
                (bm != 0 ? cm / bm : 0), won, won + lost, \
                (widest > 0 ? sprintf("%.2f / %.2f", (b3 - b1) / widest, (c3 - c1) / widest) : "-"), verdict
        }
        printf "failed operations or incorrect runs: base %d, change %d\n", failed["base"], failed["change"]
        exit (any_worse || failed["base"] + failed["change"] > 0) ? 1 : 0
    }' "$root/BENCHMARK.json" "$work/runs.tsv" || status=$?
echo "[ab] every run: $work/runs.tsv" >&2
exit "$status"
