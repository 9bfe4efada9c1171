#!/usr/bin/env bash
# gmt-e2e: the single entry point of the end-to-end benchmark.
#
#   bench/e2e/run.sh [--seed N] [--seconds S]
#       builds, runs all six workloads (untraced pass, traced pass) and the
#       ceilings, prints `workload metric value unit`, writes
#       bench/e2e/out/result.json and out/trace-<workload>.json.
#   bench/e2e/run.sh --check
#       the smoke test: manifests and BENCHMARK.json agree with the binary,
#       every workload runs one tiny verified round on its transport.
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, as the benchmark driver of BENCHMARK.json calls it;
#       the last line of standard output is the result object.
#
# Exits non-zero when anything failed to build, run or verify.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

build() {
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$here/Cargo.toml" "$@" >&2
}

# Tier-I ceilings call public functions of single layers. When a refactor
# moved one, the benchmark still builds without them and reports those
# metrics as absent ("api moved") rather than blocking the refactor.
if ! build; then
    echo "[gmt-e2e] build with internal-ceilings failed; rebuilding without them" >&2
    build --no-default-features
fi

exec "$target/release/gmt-e2e" --root "$root" --out-dir "$here/out" "$@"
