#!/usr/bin/env bash
# Net line count: the one number "smaller" is judged by.
#
# For each file, counts the non-blank lines that are not `//` comments
# (doc comments included) before the first `#[cfg(test)]` — the code —
# and, the same way, the lines from that marker on — the unit tests. Prints one row per
# file of the transport crate and of the two files that drive it, plus a
# total for `crates/gmt-net/src`.
#
# Then the workspace's `unsafe` count (ROADMAP item 5's number): the lines
# of `crates`, `src`, `tests` and `examples` that name the keyword outside
# a `//` comment. The three graph kernels must not contribute to it — they
# are written against the safe wave helpers — and the script fails if one
# does.
#
# Usage: ci/loc.sh [file.rs ...]   (default: the set described above)
set -euo pipefail
cd "$(dirname "$0")/.."

code_lines() {
    awk '/^#\[cfg\(test\)\]/{exit} {s=$0; sub(/^[ \t]+/,"",s); if (s!="" && s !~ /^\/\//) c++} END{print c+0}' "$1"
}

test_lines() {
    awk '/^#\[cfg\(test\)\]/{t=1} t{s=$0; sub(/^[ \t]+/,"",s); if (s!="" && s !~ /^\/\//) c++} END{print c+0}' "$1"
}

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    files=(crates/gmt-net/src/*.rs crates/gmt-core/src/runtime.rs crates/gmt-launch/src/main.rs)
fi

printf '%-40s %6s %6s\n' file code tests
net_code=0
net_tests=0
for f in "${files[@]}"; do
    c=$(code_lines "$f")
    t=$(test_lines "$f")
    printf '%-40s %6d %6d\n' "$f" "$c" "$t"
    case "$f" in
        crates/gmt-net/src/*)
            net_code=$((net_code + c))
            net_tests=$((net_tests + t))
            ;;
    esac
done
printf '%-40s %6d %6d\n' "crates/gmt-net/src (total)" "$net_code" "$net_tests"

unsafe_lines() {
    grep -rwh unsafe --include='*.rs' "$@" | grep -vc '^[[:space:]]*//' || true
}

printf '%-40s %6d\n' "unsafe lines (workspace)" "$(unsafe_lines crates src tests examples)"
for f in crates/gmt-kernels/src/bfs.rs crates/gmt-kernels/src/grw.rs crates/gmt-kernels/src/cc.rs; do
    if [ "$(unsafe_lines "$f")" -ne 0 ]; then
        echo "$f: kernels stay unsafe-free (use the wave helpers of gmt-core)" >&2
        exit 1
    fi
done
