#!/usr/bin/env bash
# Net line count: the one number "smaller" is judged by.
#
# For each file, counts the non-blank lines that are not `//` comments
# (doc comments included) before the first `#[cfg(test)]` — the code —
# and, the same way, the lines from that marker on — the unit tests. Prints one row per
# file of the transport crate and of the two files that drive it, one each
# for the link protocol and the communication server that drives it
# (ROADMAP item 4's size), plus a
# total for `crates/gmt-net/src`, and then the whole workspace: code and
# unit-test lines over `crates/*/src` and `src`, and the lines of the
# integration tests under `crates/*/tests` and `tests`.
#
# Then the workspace's `unsafe` count (ROADMAP item 5's number): the lines
# of `crates`, `src`, `tests` and `examples` that name the keyword outside
# a `//` comment. It only goes down: the script fails above the count of
# the last change that lowered it (109, since `TaskCtx::get_deadline` and
# its `unsafe` block went; 110 since `Yielder::is_cancelling` went; 111
# before; 113 while an op-table slot owned a
# raw `Arc` of its task, 134 before the op table replaced the pointer
# tokens). The three graph kernels must not contribute to it — they are
# written against the safe wave helpers — and the script fails if one
# does. A task's control block is its op-table slot: the script fails if a
# reference-counted handle to one (`Arc<TaskControl>`, `Weak<TaskControl>`)
# reappears in the crates' sources, which is how a second registry of live
# tasks would start. Every backend is a `Link` leaf under the one
# `impl Transport for FramedTransport`: the script fails if a second
# `impl … Transport for` appears there, which is how a second send path
# would start. The vendored `SegQueue` is a mutex around a `VecDeque`
# (ROADMAP item 2's lock on the scheduler's path): the script counts the
# `SegQueue::new()` constructions in the code of `crates/*/src` (before
# `#[cfg(test)]`, outside `//` comments) and, like the `unsafe` count,
# fails above the count of the last change that removed one (4, since
# the worker ready queue became a list through the op table and the
# transports' receive pool a bounded ring; 6 since the flow-wake list
# went with emitter parking; 7 before).
#
# Idle threads sleep until there is work (`gmt-core`'s `idle` module):
# the script counts the polling calls, `thread::yield_now()` and
# `thread::sleep(`, in the code of `crates/*/src` (before `#[cfg(test)]`,
# outside `//` comments) and, like the `unsafe` count, fails above the
# count of the last change that removed one (15, since the workers' and
# helpers' yield-and-sleep backoff became a wake-on-work park; 16
# before). What is left polls what nothing can wake on: the shm rings,
# the launcher's and the transports' start-up and shutdown handshakes,
# a full pool at shutdown.
#
# Every public function of the runtime's API has a caller: for each
# `pub fn` in the code of `gmt-core`'s `api.rs`, `collectives.rs`,
# `runtime.rs` and `handle.rs`, the script looks for a call (`.name(`,
# `::name(` or a bare `name(`, turbofish allowed) outside the lines that
# define a function of that name, in the code of `crates/*/src`, `src`,
# `examples` and `bench/e2e/src` (before `#[cfg(test)]`, outside `//`
# comments). It prints the names that have none and, like the `unsafe`
# count, fails above the count of the last change that removed one (4,
# since the uncalled collectives, the `*_deadline` reads, `parfor_report`,
# the membership view and the unused getters went; 12 before): what is
# left is `scatter`, the put entry of Table I's wave helpers, and the test
# hooks `agg_stats`, `net_errors` and `stuck_tasks`. The search goes by
# name, so a function that shares its name with one that is called
# (`new`, `free`, `install_faults`) passes, and so does one whose only
# caller is itself uncalled.
#
# Last the switches: every one is something the tests and the benchmark
# are supposed to cover at two values. The `pub` fields of
# `gmt_core::Config`, which only go down like the `unsafe` count: the
# script fails above the count of the last change that removed one (14,
# since one rule judges death and `max_retries` / `heartbeat_idle_ns`
# went; 16 since the link measures its own retransmit timeout and
# `rto_base_ns` / `rto_max_ns` went; 18 since `reliable` went; 19
# before); the cargo
# features the crates
# declare and the `cfg(feature` sites that fork on them (one build of the
# runtime: fails above 0); and the distinct `GMT_*` names in the crates'
# sources outside `//` comments — however one is read: `env::var`,
# `var_os`, a constant, a helper — which fails above 9.
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
    files=(crates/gmt-net/src/*.rs crates/gmt-core/src/runtime.rs crates/gmt-launch/src/main.rs
        crates/gmt-core/src/reliable.rs crates/gmt-core/src/commserver.rs)
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

ws_code=0
ws_tests=0
while IFS= read -r f; do
    ws_code=$((ws_code + $(code_lines "$f")))
    ws_tests=$((ws_tests + $(test_lines "$f")))
done < <(find crates/*/src src -name '*.rs' | sort)
ws_integration=0
while IFS= read -r f; do
    # No `#[cfg(test)]` marker in an integration test: all of it counts.
    ws_integration=$((ws_integration + $(code_lines "$f") + $(test_lines "$f")))
done < <(find crates/*/tests tests -name '*.rs' | sort)
printf '%-40s %6d %6d\n' "workspace src (total)" "$ws_code" "$ws_tests"
printf '%-40s %6d\n' "workspace integration tests" "$ws_integration"

unsafe_lines() {
    grep -rwh unsafe --include='*.rs' "$@" | grep -vc '^[[:space:]]*//' || true
}

unsafe_total=$(unsafe_lines crates src tests examples)
printf '%-40s %6d\n' "unsafe lines (workspace)" "$unsafe_total"
if [ "$unsafe_total" -gt 109 ]; then
    echo "workspace: $unsafe_total lines name unsafe (limit 109); lower the limit with the count, never raise it" >&2
    exit 1
fi
if grep -rnE --include='*.rs' '(Arc|Weak)<TaskControl>' crates/*/src >&2; then
    echo "crates: a task's control block lives in its op-table slot; borrow it, do not count references to it" >&2
    exit 1
fi
transport_impls=$(grep -rnE --include='*.rs' 'impl(<[^>]*>)? +Transport +for' crates/*/src || true)
if [ "$(grep -c . <<<"$transport_impls")" -gt 1 ]; then
    echo "$transport_impls" >&2
    echo "crates: one Transport implementation (FramedTransport); a new backend is a Link leaf under it, not a second send path" >&2
    exit 1
fi
seg_queues=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{s=$0; sub(/^[ \t]+/,"",s); if (s !~ /^\/\//) c+=gsub(/SegQueue::new\(\)/,"",s)} END{print c+0}' \
    $(find crates/*/src -name '*.rs' | sort))
printf '%-40s %6d\n' "SegQueue::new() (crates code)" "$seg_queues"
if [ "$seg_queues" -gt 4 ]; then
    echo "crates: $seg_queues SegQueue constructions (limit 4); lower the limit with the count, never raise it" >&2
    exit 1
fi
polls=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{s=$0; sub(/^[ \t]+/,"",s); if (s !~ /^\/\//) c+=gsub(/thread::yield_now\(\)|thread::sleep\(/,"",s)} END{print c+0}' \
    $(find crates/*/src -name '*.rs' | sort))
printf '%-40s %6d\n' "yield_now / sleep calls (crates code)" "$polls"
if [ "$polls" -gt 15 ]; then
    echo "crates: $polls polling calls (limit 15); an idle thread sleeps until it is woken, see gmt-core's idle module" >&2
    exit 1
fi
for f in crates/gmt-kernels/src/bfs.rs crates/gmt-kernels/src/grw.rs crates/gmt-kernels/src/cc.rs; do
    if [ "$(unsafe_lines "$f")" -ne 0 ]; then
        echo "$f: kernels stay unsafe-free (use the wave helpers of gmt-core)" >&2
        exit 1
    fi
done

api_fns=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && match($0, /^[ \t]*pub (const |unsafe )?fn [a-z_0-9]+/){s=substr($0, RSTART, RLENGTH); sub(/.* fn /, "", s); print s}' \
    crates/gmt-core/src/{api,collectives,runtime,handle}.rs | sort -u)
called=$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{s=$0; sub(/^[ \t]+/,"",s); if (s ~ /^\/\//) next
        gsub(/fn +[A-Za-z_][A-Za-z0-9_]*/, "", s)
        while (match(s, /[A-Za-z_][A-Za-z0-9_]*(::<[^(]*>)?\(/)) {
            c=substr(s, RSTART, RLENGTH); s=substr(s, RSTART + RLENGTH); sub(/::<.*/, "", c); sub(/\($/, "", c); print c
        }}' $(find crates/*/src src examples bench/e2e/src -name '*.rs' | sort) | sort -u)
uncalled=$(comm -23 <(echo "$api_fns") <(echo "$called"))
uncalled_count=$(grep -c . <<<"$uncalled" || true)
printf '%-40s %6d  %s\n' "uncalled pub fns (gmt-core API)" "$uncalled_count" "$(echo $uncalled)"
if [ "$uncalled_count" -gt 4 ]; then
    echo "crates/gmt-core: $uncalled_count public functions without a caller (limit 4); delete the function or lower the limit, never raise it" >&2
    exit 1
fi

config_fields=$(awk '/^pub struct Config \{/{f=1; next} f && /^\}/{exit} f && /^    pub [a-z_0-9]+:/{c++} END{print c+0}' \
    crates/gmt-core/src/config.rs)
printf '%-40s %6d\n' "Config fields" "$config_fields"
if [ "$config_fields" -gt 14 ]; then
    echo "crates/gmt-core/src/config.rs: Config has $config_fields fields (limit 14); lower the limit with the count, never raise it" >&2
    exit 1
fi

features=$(awk 'FNR==1{f=0} /^\[/{f=($0=="[features]")} f && /^[A-Za-z0-9_-]+ *=/{c++} END{print c+0}' crates/*/Cargo.toml)
cfg_sites=$(grep -rnE --include='*.rs' 'cfg\(.*feature *=' crates | grep -vc '^[^:]*:[0-9]*:[[:space:]]*//' || true)
env_vars=$(grep -rh --include='*.rs' 'GMT_[A-Z_]' crates/*/src src | grep -v '^[[:space:]]*//' | grep -oE 'GMT_[A-Z_]+' | sort -u | wc -l)
printf '%-40s %6d\n' "cargo features (crates)" "$features"
printf '%-40s %6d\n' "cfg(feature sites (crates)" "$cfg_sites"
printf '%-40s %6d\n' "GMT_* variables named (crates)" "$env_vars"
if [ "$features" -gt 0 ] || [ "$cfg_sites" -gt 0 ]; then
    echo "crates: $features cargo feature(s), $cfg_sites cfg(feature site(s); the runtime has one build" >&2
    exit 1
fi
if [ "$env_vars" -gt 9 ]; then
    echo "crates: $env_vars GMT_* variables named (limit 9); a variable nothing sets is a constant" >&2
    exit 1
fi
