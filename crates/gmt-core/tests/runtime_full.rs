//! Deeper end-to-end runtime tests: non-blocking semantics, nesting,
//! spawn policies, multi-node transfers, concurrency, failure injection.

use gmt_core::{Cluster, Config, Distribution, SpawnPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn non_blocking_puts_complete_at_wait_commands() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(1024 * 8, Distribution::Remote);
        for i in 0..1024u64 {
            ctx.put_value_nb::<u64>(&arr, i, i * 3);
        }
        ctx.wait_commands().unwrap();
        for i in (0..1024).step_by(101) {
            assert_eq!(ctx.get_value::<u64>(&arr, i).unwrap(), i * 3);
        }
        ctx.free(arr);
    });
    cluster.shutdown();
}

/// A full window is the link's to absorb (it holds the buffer): a
/// non-blocking emit toward a backpressured peer returns at once, and the
/// task's first suspension is its `wait_commands`.
#[test]
fn non_blocking_emits_toward_a_backpressured_peer_never_suspend() {
    let cluster = Cluster::start_sim(2, Config::small()).unwrap();
    let node0 = Arc::clone(cluster.node(0).shared());
    // Only the flag: the link toward node 1 has room, so every command
    // still arrives.
    node0.flow.set_backpressured(1, true);
    let switches = move || node0.metrics.ctx_switches.sum();
    cluster.node(0).run(move |ctx| {
        const N: u64 = 64;
        let arr = ctx.alloc(2 * N * 8, Distribution::Remote);
        let before = switches();
        for i in 0..N {
            ctx.put_nb(&arr, i * 8, &(i * 3).to_le_bytes());
            ctx.atomic_add_nb(&arr, (N + i % 4) * 8, 1);
        }
        assert_eq!(switches(), before, "an emit toward a backpressured peer suspended its task");
        ctx.wait_commands().unwrap();
        for i in 0..N {
            assert_eq!(ctx.get_value::<u64>(&arr, i).unwrap(), i * 3);
        }
        for k in 0..4 {
            assert_eq!(ctx.get_value::<u64>(&arr, N + k).unwrap(), N / 4);
        }
        ctx.free(arr);
    });
    cluster.node(0).shared().flow.set_backpressured(1, false);
    cluster.shutdown();
}

#[test]
fn non_blocking_gets_fill_buffers_after_wait() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(256, Distribution::Remote);
        let pattern: Vec<u8> = (0..=255u8).collect();
        ctx.put(&arr, 0, &pattern).unwrap();
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        unsafe {
            ctx.get_nb(&arr, 0, &mut a);
            ctx.get_nb(&arr, 64, &mut b);
        }
        ctx.wait_commands().unwrap();
        assert_eq!(&a[..], &pattern[..64]);
        assert_eq!(&b[..], &pattern[64..128]);
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn large_put_get_spans_nodes_and_buffers() {
    // 100 KiB over 3 nodes with 8 KiB aggregation buffers: transfers span
    // node boundaries and must be split into many sub-buffer commands.
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(1).run(|ctx| {
        let n = 100 * 1024u64;
        let arr = ctx.alloc(n, Distribution::Partition);
        let data: Vec<u8> = (0..n).map(|i| (i * 7 % 251) as u8).collect();
        ctx.put(&arr, 0, &data).unwrap();
        let mut back = vec![0u8; n as usize];
        ctx.get(&arr, 0, &mut back).unwrap();
        assert_eq!(back, data);
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn remote_atomics_are_globally_consistent() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let total = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(8, Distribution::Remote); // counter on node 1
        ctx.parfor(SpawnPolicy::Partition, 200, 10, move |ctx, _i| {
            ctx.atomic_add(&arr, 0, 1).unwrap();
        });
        let v = ctx.atomic_add(&arr, 0, 0).unwrap();
        ctx.free(arr);
        v
    });
    assert_eq!(total, 200);
    cluster.shutdown();
}

#[test]
fn atomic_cas_elects_exactly_one_winner() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let winners = cluster.node(0).run(|ctx| {
        let flag = ctx.alloc(8, Distribution::Remote);
        let wins = ctx.alloc(8, Distribution::Local);
        ctx.parfor(SpawnPolicy::Partition, 64, 4, move |ctx, i| {
            if ctx.atomic_cas(&flag, 0, 0, (i + 1) as i64).unwrap() == 0 {
                ctx.atomic_add(&wins, 0, 1).unwrap();
            }
        });
        let w = ctx.atomic_add(&wins, 0, 0).unwrap();
        ctx.free(flag);
        ctx.free(wins);
        w
    });
    assert_eq!(winners, 1);
    cluster.shutdown();
}

#[test]
fn nested_parfor_completes() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let total = cluster.node(0).run(|ctx| {
        let acc = ctx.alloc(8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, 8, 1, move |ctx, _outer| {
            ctx.parfor(SpawnPolicy::Partition, 16, 4, move |ctx, _inner| {
                ctx.atomic_add(&acc, 0, 1).unwrap();
            });
        });
        let v = ctx.atomic_add(&acc, 0, 0).unwrap();
        ctx.free(acc);
        v
    });
    assert_eq!(total, 8 * 16);
    cluster.shutdown();
}

#[test]
fn spawn_remote_runs_elsewhere() {
    let cluster = Cluster::start(3, Config::small()).unwrap();
    let mask = cluster.node(0).run(|ctx| {
        let seen = ctx.alloc(8, Distribution::Local);
        ctx.parfor(SpawnPolicy::Remote, 32, 4, move |ctx, _i| {
            let bit = 1i64 << ctx.node_id();
            loop {
                let old = ctx.atomic_add(&seen, 0, 0).unwrap();
                if old & bit != 0 {
                    break;
                }
                if ctx.atomic_cas(&seen, 0, old, old | bit).unwrap() == old {
                    break;
                }
            }
        });
        let v = ctx.atomic_add(&seen, 0, 0).unwrap();
        ctx.free(seen);
        v
    });
    // Tasks ran only on nodes 1 and 2.
    assert_eq!(mask, 0b110);
    cluster.shutdown();
}

#[test]
fn parfor_args_are_delivered_to_every_node() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let sum = cluster.node(0).run(|ctx| {
        let acc = ctx.alloc(8, Distribution::Partition);
        let args = 7u64.to_le_bytes();
        ctx.parfor_args(SpawnPolicy::Partition, 10, 2, &args, move |ctx, _i, args| {
            let v = u64::from_le_bytes(args.try_into().unwrap());
            ctx.atomic_add(&acc, 0, v as i64).unwrap();
        });
        let v = ctx.atomic_add(&acc, 0, 0).unwrap();
        ctx.free(acc);
        v
    });
    assert_eq!(sum, 70);
    cluster.shutdown();
}

#[test]
fn many_concurrent_root_tasks() {
    let cluster = Arc::new(Cluster::start(2, Config::small()).unwrap());
    let acc = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let acc = Arc::clone(&acc);
            std::thread::spawn(move || {
                let node = (t % 2) as usize;
                let r = cluster.node(node).run(move |ctx| {
                    let arr = ctx.alloc(64, Distribution::Partition);
                    ctx.put_value::<u64>(&arr, 0, t).unwrap();
                    let v = ctx.get_value::<u64>(&arr, 0).unwrap();
                    ctx.free(arr);
                    v
                });
                acc.fetch_add(r, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(acc.load(Ordering::Relaxed), (0..8).sum::<u64>());
    Arc::try_unwrap(cluster).expect("sole owner").shutdown();
}

#[test]
fn four_node_cluster_works() {
    let cluster = Cluster::start(4, Config::small()).unwrap();
    let sum = cluster.node(2).run(|ctx| {
        let arr = ctx.alloc(512 * 8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, 512, 16, move |ctx, i| {
            ctx.put_value_nb::<u64>(&arr, i, i + 1);
            ctx.wait_commands().unwrap();
        });
        let total = ctx.alloc(8, Distribution::Local);
        ctx.parfor(SpawnPolicy::Partition, 512, 32, move |ctx, i| {
            let v = ctx.get_value::<u64>(&arr, i).unwrap();
            ctx.atomic_add(&total, 0, v as i64).unwrap();
        });
        let v = ctx.atomic_add(&total, 0, 0).unwrap();
        ctx.free(arr);
        ctx.free(total);
        v
    });
    assert_eq!(sum, (1..=512i64).sum::<i64>());
    cluster.shutdown();
}

#[test]
fn task_panic_does_not_kill_the_worker() {
    let cluster = Cluster::start(1, Config::small()).unwrap();
    // A root task that panics: its submitter sees the failure...
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.node(0).run(|_ctx| panic!("task goes boom"));
    }));
    assert!(res.is_err());
    // ...and the runtime keeps serving new tasks.
    let v = cluster.node(0).run(|_ctx| 5u8);
    assert_eq!(v, 5);
    cluster.shutdown();
}

#[test]
fn root_task_panic_payload_reaches_the_submitter_intact() {
    let cluster = Cluster::start(1, Config::small()).unwrap();
    // The submission wrapper carries the payload across the worker and
    // resumes it on the submitting thread: the original message (here a
    // formatted String with runtime context) survives verbatim instead
    // of degrading into a generic "root task did not complete".
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.node(0).run(|ctx| {
            let id = ctx.node_id();
            panic!("invariant violated on node {id}: expected 7 got 13");
        })
    }))
    .unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("String panic payload");
    assert_eq!(msg, "invariant violated on node 0: expected 7 got 13");
    // The worker that hosted the panicking task is still serving.
    assert_eq!(cluster.node(0).run(|_ctx| 11u8), 11);
    cluster.shutdown();
}

#[test]
fn alloc_distributions_report_expected_segments() {
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(1).run(|ctx| {
        let p = ctx.alloc(3000, Distribution::Partition);
        let l = ctx.alloc(3000, Distribution::Local);
        let r = ctx.alloc(3000, Distribution::Remote);
        // Only a partitioned array gives every node a segment.
        let lp = p.layout(3);
        assert!((0..3).all(|n| lp.segment_size(n) > 0));
        let ll = l.layout(3);
        assert_eq!(ll.segment_size(1), 3000);
        assert_eq!(ll.segment_size(0), 0);
        let lr = r.layout(3);
        assert_eq!(lr.segment_size(1), 0);
        assert!(lr.segment_size(0) > 0 && lr.segment_size(2) > 0);
        ctx.free(p);
        ctx.free(l);
        ctx.free(r);
    });
    // Frees propagated everywhere.
    for n in 0..3 {
        assert_eq!(cluster.node(n).live_allocations(), 0);
    }
    cluster.shutdown();
}

#[test]
fn throttled_network_mode_still_correct() {
    // Enforce a scaled-down cost model in wall time; correctness must be
    // unaffected, only timing.
    let mut config = Config::small();
    config.network = Some(gmt_net::NetworkModel {
        per_msg_overhead_ns: 20_000,
        bandwidth_bytes_per_sec: 1 << 30,
        wire_latency_ns: 10_000,
    });
    let cluster = Cluster::start(2, config).unwrap();
    let v = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(128 * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, 128, 8, move |ctx, i| {
            ctx.put_value::<u64>(&arr, i, i ^ 0xAB).unwrap();
        });
        let mut total = 0u64;
        for i in 0..128 {
            total += ctx.get_value::<u64>(&arr, i).unwrap();
        }
        ctx.free(arr);
        total
    });
    assert_eq!(v, (0..128u64).map(|i| i ^ 0xAB).sum());
    cluster.shutdown();
}

#[test]
fn aggregation_actually_batches_commands() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(4096 * 8, Distribution::Remote);
        for i in 0..4096u64 {
            ctx.put_value_nb::<u64>(&arr, i, i);
        }
        ctx.wait_commands().unwrap();
        ctx.free(arr);
    });
    let sent = cluster.net_stats().node(0).sent_msgs;
    // 4096 puts (plus allocation/free chatter) must travel in far fewer
    // network messages than commands — this is the whole point of GMT.
    assert!(sent < 1024, "aggregation ineffective: {sent} messages for 4096 puts");
    let cmds = cluster.node(0).agg_stats().commands;
    assert!(cmds >= 4096);
    cluster.shutdown();
}

/// A lone task's dependent remote reads must not wait for the flush
/// timers: with both timeouts at 1 s, fifty round trips that each sat out
/// even one of them would take most of a minute. The worker flushes when
/// its only task parks, the remote helper when its inbox runs empty.
#[test]
fn dependent_gets_do_not_wait_for_flush_timeouts() {
    let config = Config {
        cmd_block_timeout_ns: 1_000_000_000,
        aggregation_timeout_ns: 1_000_000_000,
        ..Config::small()
    };
    let cluster = Cluster::start_sim(2, config).unwrap();
    let start = std::time::Instant::now();
    let end = cluster.node(0).run(|ctx| {
        const N: u64 = 50;
        let next = ctx.alloc(N * 8, Distribution::Remote);
        for i in 0..N {
            ctx.put_value_nb::<u64>(&next, i, (i + 1) % N);
        }
        ctx.wait_commands().unwrap();
        let mut at = 0;
        for _ in 0..N {
            at = ctx.get_value::<u64>(&next, at).unwrap();
        }
        ctx.free(next);
        at
    });
    let took = start.elapsed();
    assert_eq!(end, 0, "fifty hops around a fifty-cycle end where they began");
    assert!(took < std::time::Duration::from_secs(5), "the chase waited for timers: {took:?}");
    let idle = cluster.node(0).agg_stats().idle_flushes;
    assert!(idle >= 50, "every hop ships on the worker's idle edge, saw {idle} idle flushes");
    cluster.shutdown();
}

#[test]
fn link_failure_is_surfaced_as_net_error() {
    // Over TCP a kill severs the victim's streams for good. A death
    // timeout this long observes link state once, at start-up, before
    // the kill, and never again within the run, so nothing confirms the
    // death before the sends are tried.
    let config = Config { peer_death_timeout_ns: 1 << 62, ..Config::small() };
    let cluster = Cluster::start_tcp_loopback(2, config).unwrap();
    // Pre-allocate while the link is up.
    let arr = cluster.node(0).run(|ctx| ctx.alloc(64, Distribution::Remote));
    cluster.install_faults(gmt_net::FaultPlan::new(0).kill(1));
    // The plan gone, no shim drops the frames short of the dead socket.
    cluster.clear_faults();
    // Fire-and-forget puts: they will fail to transmit.
    cluster.node(0).run(move |ctx| {
        ctx.put_value_nb::<u64>(&arr, 0, 1);
        // Do not wait (the reply will never come) — just give the comm
        // server a moment to hit the dead link.
        for _ in 0..50 {
            ctx.yield_now();
        }
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while cluster.node(0).net_errors() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(cluster.node(0).net_errors() > 0, "link failure went unnoticed");
    cluster.shutdown();
}

#[test]
fn gather_scatter_roundtrip() {
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(256 * 8, Distribution::Partition);
        // Scatter an irregular set of (index, value) pairs...
        let pairs: Vec<(u64, u64)> = (0..64).map(|k| ((k * 37) % 256, k * k)).collect();
        ctx.scatter(&arr, &pairs).unwrap();
        // ...and gather them back in a different order.
        let indices: Vec<u64> = pairs.iter().rev().map(|&(i, _)| i).collect();
        let values = ctx.gather::<u64>(&arr, &indices).unwrap();
        for (got, &(_, expect)) in values.iter().zip(pairs.iter().rev()) {
            assert_eq!(*got, expect);
        }
        // Gathering untouched slots yields zeros.
        let zeros = ctx.gather::<u64>(&arr, &[1, 2]).unwrap();
        assert!(zeros
            .iter()
            .all(|&v| v == 0 || pairs.iter().any(|&(i, _)| i == 1 || i == 2) && v > 0));
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn gather_empty_index_list() {
    let cluster = Cluster::start(1, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(64, Distribution::Local);
        assert!(ctx.gather::<u64>(&arr, &[]).unwrap().is_empty());
        ctx.scatter::<u64>(&arr, &[]).unwrap();
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn non_blocking_atomic_adds_accumulate() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let total = cluster.node(0).run(|ctx| {
        let hist = ctx.alloc(16 * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Partition, 128, 8, move |ctx, i| {
            // Fire a burst of histogram updates, then await them all.
            for k in 0..4u64 {
                ctx.atomic_add_nb(&hist, ((i + k) % 16) * 8, 1);
            }
            ctx.wait_commands().unwrap();
        });
        let mut total = 0;
        for s in 0..16 {
            total += ctx.atomic_add(&hist, s * 8, 0).unwrap();
        }
        ctx.free(hist);
        total
    });
    cluster.shutdown();
    assert_eq!(total, 128 * 4);
}
