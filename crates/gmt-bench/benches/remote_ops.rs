//! Remote-operation datapath microbenchmarks on a 2-node in-process
//! cluster: blocking put and get storms (the put storm also run as a
//! flow-window ablation — off / 8 / 32 — to price the credit machinery
//! on a healthy link), mixed-opcode and get-heavy storms for the batched
//! helper datapath, plus the headline case for command combining — a
//! fire-and-forget atomic-add storm where many tasks hammer a few hot
//! remote counters.
//!
//! `atomic_add_storm` runs two ways:
//!
//! * `combining_on` — merge-at-source combining table on
//!   (`combine_window` at its default).
//! * `combining_off` — combining off (`combine_window = 0`): every add
//!   crosses the wire individually and the receive side does the merging
//!   (`atomic_add_batch` collapses same-cell runs into one RMW, acks come
//!   back in one `AckN`).
//!
//! `combining_on` / `combining_off` is the value of merging at the
//! source; EXPERIMENTS.md records the measured ablation (acceptance
//! target >= 2x). Like every criterion bench here, these are developer
//! microbenchmarks that nothing gates on: the end-to-end benchmark
//! (`bench/e2e`, compared against a base commit by `ci/ab.sh`) is the
//! one that judges a change.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gmt_core::{Cluster, Config, Distribution, SpawnPolicy};

const ELEMS: u64 = 2048;
/// Hot counters for the add storm: few cells, many adds per cell, so
/// the combining table gets real merge opportunities.
const HOT_CELLS: u64 = 8;
/// Adds in the storm — enough to amortize the per-iteration setup
/// (collective alloc/free, task spawns) so the measurement is the add
/// datapath itself.
const STORM_ADDS: u64 = 16384;
/// Tasks in the add storm; each performs `STORM_ADDS / STORM_TASKS`
/// adds before awaiting completion — the natural shape for
/// fire-and-forget updates (and the window combining needs to merge
/// anything).
const STORM_TASKS: u64 = 32;
/// Operations in the mixed and get-heavy storms.
const MIXED_OPS: u64 = 8192;

fn put_storm(cluster: &Cluster) {
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(ELEMS * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, ELEMS, 32, move |ctx, i| {
            ctx.put_value::<u64>(&arr, i, i).unwrap();
        });
        ctx.free(arr);
    });
}

fn get_storm(cluster: &Cluster) {
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(ELEMS * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, ELEMS, 32, move |ctx, i| {
            let _ = ctx.get_value::<u64>(&arr, i).unwrap();
        });
        ctx.free(arr);
    });
}

fn atomic_add_storm(cluster: &Cluster) {
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(HOT_CELLS * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, STORM_TASKS, 1, move |ctx, t| {
            let per_task = STORM_ADDS / STORM_TASKS;
            for k in 0..per_task {
                ctx.atomic_add_nb(&arr, ((t * per_task + k) % HOT_CELLS) * 8, 1);
            }
            ctx.wait_commands().unwrap();
        });
        ctx.free(arr);
    });
}

/// Every batchable opcode in flight at once across two arrays: buffers
/// reach the helper carrying interleaved puts, gets, fire-and-forget
/// adds and cas — the bucketing stage has to split them by class and
/// segment instead of riding one long run.
fn mixed_storm(cluster: &Cluster) {
    cluster.node(0).run(|ctx| {
        let data = ctx.alloc(ELEMS * 8, Distribution::Remote);
        let counters = ctx.alloc(HOT_CELLS * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, STORM_TASKS, 1, move |ctx, t| {
            let per_task = MIXED_OPS / STORM_TASKS;
            for k in 0..per_task {
                let i = (t * per_task + k) % ELEMS;
                match k % 4 {
                    0 => ctx.put_value_nb::<u64>(&data, i, i),
                    1 => ctx.atomic_add_nb(&counters, (i % HOT_CELLS) * 8, 1),
                    2 => {
                        let _ = ctx.get_value::<u64>(&data, i).unwrap();
                    }
                    _ => {
                        let _ = ctx.atomic_cas(&counters, (i % HOT_CELLS) * 8, 0, 0).unwrap();
                    }
                }
            }
            ctx.wait_commands().unwrap();
        });
        ctx.free(data);
        ctx.free(counters);
    });
}

/// Get-dominated traffic: overlapped non-blocking gathers, so helper
/// buffers arrive as long same-segment `Get` runs and the reply side
/// streams `GetReply`s through one sink reservation per run.
fn get_heavy_storm(cluster: &Cluster) {
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(ELEMS * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, STORM_TASKS, 1, move |ctx, t| {
            let per_task = MIXED_OPS / STORM_TASKS;
            let indices: Vec<u64> = (0..per_task).map(|k| (t * per_task + k) % ELEMS).collect();
            let _ = ctx.gather::<u64>(&arr, &indices).unwrap();
        });
        ctx.free(arr);
    });
}

fn bench_remote_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("remote_ops");
    g.sample_size(20);
    g.throughput(Throughput::Elements(ELEMS));
    for (name, f) in
        [("put_storm", put_storm as fn(&Cluster)), ("get_storm", get_storm as fn(&Cluster))]
    {
        g.bench_function(name, |b| {
            let cluster = Cluster::start(2, Config::small()).unwrap();
            b.iter(|| f(&cluster));
            cluster.shutdown();
        });
    }
    // Flow-window ablation on the blocking put storm: 8 is a window
    // tight enough to bind under load, 32 is the default. On a healthy
    // in-process link the two must be within noise of each other.
    for (name, flow_window) in [("put_storm/flow_8", 8usize), ("put_storm/flow_32", 32)] {
        g.bench_function(name, |b| {
            let config = Config { flow_window, ..Config::small() };
            let cluster = Cluster::start(2, config).unwrap();
            b.iter(|| put_storm(&cluster));
            cluster.shutdown();
        });
    }
    g.throughput(Throughput::Elements(MIXED_OPS));
    for (name, f) in [
        ("mixed_storm", mixed_storm as fn(&Cluster)),
        ("get_heavy_storm", get_heavy_storm as fn(&Cluster)),
    ] {
        g.bench_function(name, |b| {
            let cluster = Cluster::start(2, Config::small()).unwrap();
            b.iter(|| f(&cluster));
            cluster.shutdown();
        });
    }
    g.throughput(Throughput::Elements(STORM_ADDS));
    let default_window = Config::small().combine_window;
    for (name, combine_window) in
        [("atomic_add_storm/combining_on", default_window), ("atomic_add_storm/combining_off", 0)]
    {
        g.bench_function(name, |b| {
            let config = Config { combine_window, ..Config::small() };
            let cluster = Cluster::start(2, config).unwrap();
            b.iter(|| atomic_add_storm(&cluster));
            cluster.shutdown();
        });
    }
    // The same storms over real sockets: frames cross the kernel loopback
    // path instead of the sim's in-memory queues, pricing syscalls,
    // copies and wakeups per emitted buffer.
    g.throughput(Throughput::Elements(ELEMS));
    g.bench_function("put_storm/tcp_loopback", |b| {
        let cluster = Cluster::start_tcp_loopback(2, Config::small()).unwrap();
        b.iter(|| put_storm(&cluster));
        cluster.shutdown();
    });
    g.throughput(Throughput::Elements(STORM_ADDS));
    g.bench_function("atomic_add_storm/tcp_loopback", |b| {
        let cluster = Cluster::start_tcp_loopback(2, Config::small()).unwrap();
        b.iter(|| atomic_add_storm(&cluster));
        cluster.shutdown();
    });
    // And over the shared-memory rings: the same real framing with zero
    // syscalls on the hot path — the number that prices exactly the
    // loopback syscall/copy/wakeup tax the rows above pay.
    g.throughput(Throughput::Elements(ELEMS));
    g.bench_function("put_storm/shm", |b| {
        let cluster = Cluster::start_shm(2, Config::small()).unwrap();
        b.iter(|| put_storm(&cluster));
        cluster.shutdown();
    });
    g.throughput(Throughput::Elements(STORM_ADDS));
    g.bench_function("atomic_add_storm/shm", |b| {
        let cluster = Cluster::start_shm(2, Config::small()).unwrap();
        b.iter(|| atomic_add_storm(&cluster));
        cluster.shutdown();
    });
    g.finish();
}

criterion_group!(benches, bench_remote_ops);
criterion_main!(benches);
