//! Stress and soak tests: tiny buffer pools (backpressure), the full
//! Olympus thread configuration, task floods, and alloc/free churn.

use gmt_core::{Cluster, Config, Distribution, SpawnPolicy};
use std::sync::Arc;

/// Backpressure: with a single aggregation buffer per channel and tiny
/// buffers, workers must spin-wait for the communication server to
/// recycle buffers — the pool bound must never deadlock or lose data.
#[test]
fn tiny_buffer_pool_backpressure() {
    let mut config = Config::small();
    config.num_buf_per_channel = 1;
    config.buffer_size = 512;
    config.cmd_block_entries = 4;
    let cluster = Cluster::start(2, config).unwrap();
    let sum = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(2048 * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, 32, 1, move |ctx, t| {
            for k in 0..64u64 {
                ctx.put_value_nb::<u64>(&arr, t * 64 + k, t * 64 + k + 1);
            }
            ctx.wait_commands().unwrap();
        });
        let mut sum = 0u64;
        for i in 0..2048 {
            sum += ctx.get_value::<u64>(&arr, i).unwrap();
        }
        ctx.free(arr);
        sum
    });
    cluster.shutdown();
    assert_eq!(sum, (1..=2048u64).sum());
}

/// The full Table IV thread configuration boots, works and shuts down —
/// 15 workers + 15 helpers + 1 comm server per node, 62 threads total on
/// this host.
#[test]
fn olympus_configuration_smoke() {
    let mut config = Config::olympus();
    // Keep the Olympus thread structure but drop the wall-clock network
    // model: this host has one core and the test only checks
    // functionality.
    config.network = None;
    let cluster = Cluster::start(2, config).unwrap();
    let v = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(128 * 8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, 128, 4, move |ctx, i| {
            ctx.atomic_add(&arr, (i % 16) * 8, 1).unwrap();
        });
        let mut total = 0;
        for s in 0..16 {
            total += ctx.atomic_add(&arr, s * 8, 0).unwrap();
        }
        ctx.free(arr);
        total
    });
    cluster.shutdown();
    assert_eq!(v, 128);
}

/// Task flood: far more tasks than the per-worker cap, exercising the
/// soft-cap admission logic and itb chunk cycling.
#[test]
fn task_flood_beyond_worker_cap() {
    let mut config = Config::small();
    config.max_tasks_per_worker = 8; // tiny cap, 2 workers
    let cluster = Cluster::start(2, config).unwrap();
    let total = cluster.node(0).run(|ctx| {
        let acc = ctx.alloc(8, Distribution::Partition);
        // 2000 tasks of 1 iteration each.
        ctx.parfor(SpawnPolicy::Partition, 2000, 1, move |ctx, _| {
            ctx.atomic_add(&acc, 0, 1).unwrap();
        });
        let v = ctx.atomic_add(&acc, 0, 0).unwrap();
        ctx.free(acc);
        v
    });
    cluster.shutdown();
    assert_eq!(total, 2000);
}

/// Allocation churn: many small arrays allocated and freed across nodes;
/// no leaks (live_allocations returns to zero everywhere).
#[test]
fn alloc_free_churn() {
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        for round in 0..40u64 {
            let dist = match round % 3 {
                0 => Distribution::Partition,
                1 => Distribution::Local,
                _ => Distribution::Remote,
            };
            let arr = ctx.alloc(64 + round * 8, dist);
            ctx.put_value::<u64>(&arr, 0, round).unwrap();
            assert_eq!(ctx.get_value::<u64>(&arr, 0).unwrap(), round);
            ctx.free(arr);
        }
    });
    for n in 0..3 {
        assert_eq!(cluster.node(n).live_allocations(), 0, "leak on node {n}");
    }
    cluster.shutdown();
}

/// Deep nesting: parFors four levels deep complete and count correctly.
#[test]
fn deeply_nested_parfor() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let total = cluster.node(0).run(|ctx| {
        let acc = ctx.alloc(8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, 2, 1, move |ctx, _| {
            ctx.parfor(SpawnPolicy::Partition, 2, 1, move |ctx, _| {
                ctx.parfor(SpawnPolicy::Partition, 2, 1, move |ctx, _| {
                    ctx.parfor(SpawnPolicy::Partition, 4, 1, move |ctx, _| {
                        ctx.atomic_add(&acc, 0, 1).unwrap();
                    });
                });
            });
        });
        let v = ctx.atomic_add(&acc, 0, 0).unwrap();
        ctx.free(acc);
        v
    });
    cluster.shutdown();
    assert_eq!(total, 2 * 2 * 2 * 4);
}

/// The op table grows on demand and empties at shutdown. Three nested
/// loops keep 600 tasks alive on one worker at once — each parks on polls
/// of a remote word that the 600th arrival sets only after it sampled the
/// table, and the soft task cap admits the next one whenever every live
/// task is parked — which is more than two table chunks hold. Polling the
/// arrival count instead would let a task that read 600 retire before the
/// last adder's own reply woke it to sample. Every task retires with
/// nothing pending, so every slot must be free again afterwards.
#[test]
fn op_table_grows_past_a_chunk_and_empties() {
    use gmt_core::task::CHUNK_SLOTS;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const TASKS: i64 = 600;
    let config = Config { num_workers: 1, ..Config::small() };
    let cluster = Cluster::start(2, config).unwrap();
    let shared: Vec<_> = (0..2).map(|n| Arc::clone(cluster.node(n).shared())).collect();
    let peak = Arc::new(AtomicUsize::new(0));
    let (node0, peak2) = (Arc::clone(&shared[0]), Arc::clone(&peak));
    cluster.node(0).run(move |ctx| {
        // Word 0 counts arrivals; word 1 is set once the peak is sampled.
        let arrived = ctx.alloc(16, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, 3, 1, move |ctx, _| {
            let (node0, peak) = (Arc::clone(&node0), Arc::clone(&peak2));
            ctx.parfor(SpawnPolicy::Local, TASKS as u64 / 3, 1, move |ctx, _| {
                if ctx.atomic_add(&arrived, 0, 1).unwrap() + 1 == TASKS {
                    peak.store(node0.ops.bound_slots(), Ordering::Relaxed);
                    ctx.put_value::<i64>(&arrived, 1, 1).unwrap();
                }
                while ctx.get_value::<i64>(&arrived, 1).unwrap() == 0 {}
            });
        });
        ctx.free(arrived);
    });
    let peak = peak.load(Ordering::Relaxed);
    assert!(peak > TASKS as usize, "all {TASKS} tasks and their parents were bound, saw {peak}");
    assert!(peak > 2 * CHUNK_SLOTS, "the run must outgrow two chunks");
    cluster.shutdown();
    for (n, node) in shared.iter().enumerate() {
        assert_eq!(node.ops.bound_slots(), 0, "node {n} still has bound op-table slots");
    }
}

/// A control block is recycled with its slot, not allocated per task: 200
/// joined loops push 204 800 chunk tasks through one worker, every one
/// parking on a remote add, at most 1024 (and their root) alive at once.
/// The table must end up empty and must never have claimed more chunks
/// than that many live tasks need — a slot that retirement failed to give
/// back, or a spawn that took a fresh one, would grow it round by round.
#[test]
fn two_hundred_thousand_tasks_reuse_one_workers_slots() {
    use gmt_core::task::CHUNK_SLOTS;

    const ROUNDS: u64 = 200;
    const TASKS: u64 = 1024;
    let config = Config { num_workers: 1, max_tasks_per_worker: TASKS as usize, ..Config::small() };
    let cluster = Cluster::start(2, config).unwrap();
    let shared: Vec<_> = (0..2).map(|n| Arc::clone(cluster.node(n).shared())).collect();
    let total = cluster.node(0).run(|ctx| {
        let acc = ctx.alloc(8, Distribution::Remote);
        for _ in 0..ROUNDS {
            ctx.parfor(SpawnPolicy::Local, TASKS, 1, move |ctx, _| {
                ctx.atomic_add(&acc, 0, 1).unwrap();
            });
        }
        let total = ctx.atomic_add(&acc, 0, 0).unwrap();
        ctx.free(acc);
        total
    });
    assert_eq!(total as u64, ROUNDS * TASKS);
    cluster.shutdown();
    let spawned = shared[0].metrics.tasks_spawned.sum();
    assert!(spawned > ROUNDS * TASKS, "every iteration was a task of node 0, saw {spawned}");
    for (n, node) in shared.iter().enumerate() {
        assert_eq!(node.ops.bound_slots(), 0, "node {n} still has bound op-table slots");
    }
    let chunks = shared[0].ops.claimed_chunks();
    assert!(
        chunks <= TASKS as usize / CHUNK_SLOTS + 1,
        "{chunks} chunks claimed for at most {} live tasks",
        TASKS + 1
    );
}

/// Zero-copy pool accounting: after a remote-put workload and a full
/// shutdown, every aggregation buffer has flowed out through the comm
/// server and back into its pool via `Payload` drop — nothing leaked in
/// flight, nothing double-released. This is the transport shutdown/drain
/// contract (see `gmt_net::transport`), so it runs against **every**
/// backend: the sim fabric's wire-thread drain, the TCP transport's
/// socket teardown and the shm transport's ring abandonment mid-traffic
/// must each keep the pools whole. The workload: 16 tasks fire 64 puts of
/// `put_bytes` each into `buffer_size`-byte aggregation buffers and read
/// the last one back. A put that fills its command block ships as the
/// buffer and the pool's `Vec` goes on as a block, so whole also means that
/// every `Vec` resting in a pool can still hold a buffer.
fn pools_whole_after_puts(
    start: impl FnOnce(usize, Config) -> Result<Cluster, String>,
    backend: &str,
    buffer_size: usize,
    put_bytes: usize,
) {
    let mut config = Config::small();
    config.buffer_size = buffer_size;
    let cluster = start(2, config).unwrap();
    let shared: Vec<_> = (0..2).map(|n| Arc::clone(cluster.node(n).shared())).collect();
    cluster.node(0).run(move |ctx| {
        let arr = ctx.alloc((1024 * put_bytes) as u64, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, 16, 1, move |ctx, t| {
            let data = vec![t as u8; put_bytes];
            for k in 0..64u64 {
                ctx.put_nb(&arr, (t * 64 + k) * put_bytes as u64, &data);
            }
            ctx.wait_commands().unwrap();
            let mut back = vec![0u8; put_bytes];
            ctx.get(&arr, (t * 64 + 63) * put_bytes as u64, &mut back).unwrap();
            assert_eq!(back, data);
        });
        ctx.free(arr);
    });
    cluster.shutdown();
    for (n, node) in shared.iter().enumerate() {
        assert_eq!(node.ops.bound_slots(), 0, "[{backend}] node {n} has bound op-table slots");
        let agg = &node.agg;
        for c in 0..agg.channels() {
            let q = agg.channel(c);
            assert_eq!(q.backlog(), 0, "[{backend}] node {n} channel {c} still has filled buffers");
            assert_eq!(
                q.free_buffers(),
                q.pool_capacity(),
                "[{backend}] node {n} channel {c} pool not whole after shutdown"
            );
            assert!(
                q.min_free_buffer_capacity().unwrap() >= buffer_size,
                "[{backend}] node {n} channel {c} pool holds a Vec too small for a buffer"
            );
        }
    }
}

#[test]
fn buffer_pools_whole_after_shutdown() {
    pools_whole_after_puts(Cluster::start_sim, "sim", 1024, 8);
    pools_whole_after_puts(Cluster::start_sim, "sim", 64 * 1024, 16 * 1024);
}

#[test]
fn buffer_pools_whole_after_shutdown_tcp() {
    pools_whole_after_puts(Cluster::start_tcp_loopback, "tcp-loopback", 1024, 8);
    pools_whole_after_puts(Cluster::start_tcp_loopback, "tcp-loopback", 64 * 1024, 16 * 1024);
}

#[test]
fn buffer_pools_whole_after_shutdown_shm() {
    pools_whole_after_puts(Cluster::start_shm, "shm", 1024, 8);
    pools_whole_after_puts(Cluster::start_shm, "shm", 64 * 1024, 16 * 1024);
}

/// The same contract with frames large enough for the TCP receive side
/// to read them in place (64 KiB buffers of 4 KiB puts): a buffer being
/// filled straight off the socket when shutdown severs the stream belongs
/// to no pool yet, so every channel pool must still come out whole.
#[test]
fn buffer_pools_whole_after_shutdown_tcp_large_frames() {
    pools_whole_after_puts(Cluster::start_tcp_loopback, "tcp-loopback", 64 * 1024, 4096);
}

/// Pools are whole after a shutdown that finds them dry. Behind a silent
/// partition (a 60 s death timeout: nothing is declared dead meanwhile)
/// every buffer of node 0 sits unacked in its link's retransmit queue
/// while more blocks wait in the aggregation queue, and the tasks that
/// emitted them park for good. At shutdown the workers' and helper's
/// final flushes retry the dry pools. The comm server must not drop its
/// link, which hands those buffers back, before every one of them gave up:
/// a flush would fill a returned buffer and leave it in a channel that
/// nobody drains any more.
#[test]
fn pools_whole_after_shutdown_behind_a_silent_partition() {
    use gmt_core::task::RootTask;
    use gmt_net::FaultPlan;
    use std::time::{Duration, Instant};

    const TASKS: u64 = 4;
    const PUTS: u64 = 16;
    const PAYLOAD: u64 = 4000;
    let config = Config { peer_death_timeout_ns: 60_000_000_000, ..Config::small() };
    let cluster = Cluster::start_sim(2, config).unwrap();
    let aggs: Vec<_> = (0..2).map(|n| Arc::clone(&cluster.node(n).shared().agg)).collect();
    let arr = cluster.node(0).run(|ctx| ctx.alloc(TASKS * PUTS * PAYLOAD, Distribution::Remote));
    cluster.install_faults(FaultPlan::new(1).drop(0, 1, 1.0).drop(1, 0, 1.0));
    for t in 0..TASKS {
        cluster.node(0).shared().root_queue.push(RootTask {
            f: Box::new(move |ctx| {
                let data = vec![t as u8; PAYLOAD as usize];
                for k in 0..PUTS {
                    ctx.put_nb(&arr, (t * PUTS + k) * PAYLOAD, &data);
                }
                let _ = ctx.wait_commands();
            }),
        });
    }
    let node0 = &aggs[0];
    let dry = || {
        (0..node0.channels()).all(|c| node0.channel(c).free_buffers() == 0)
            && node0.queue(1).queued_bytes() > 0
    };
    let start = Instant::now();
    while !dry() && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(dry(), "node 0's pools never ran dry with blocks still queued");
    cluster.shutdown();
    assert!(node0.queue(1).queued_bytes() > 0, "the final flushes found a buffer to fill");
    for (n, agg) in aggs.iter().enumerate() {
        for c in 0..agg.channels() {
            let q = agg.channel(c);
            assert_eq!(q.backlog(), 0, "node {n} channel {c} still has filled buffers");
            assert_eq!(q.free_buffers(), q.pool_capacity(), "node {n} channel {c} pool not whole");
        }
    }
}

/// Soak: repeated cluster lifecycles must not leak OS threads or wedge.
#[test]
fn repeated_cluster_lifecycles() {
    for round in 0..10 {
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let v = cluster.node(round % 2).run(move |ctx| {
            let arr = ctx.alloc(64, Distribution::Partition);
            ctx.put_value::<u32>(&arr, 0, round as u32).unwrap();
            let v = ctx.get_value::<u32>(&arr, 0).unwrap();
            ctx.free(arr);
            v
        });
        assert_eq!(v, round as u32);
        cluster.shutdown();
    }
}
