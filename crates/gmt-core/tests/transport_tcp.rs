//! The runtime over the real transport backends (TCP and shm).
//!
//! These tests prove the two properties ISSUE/DESIGN promise for the
//! transport abstraction:
//!
//! 1. the reliability layer (19-byte header, seq/ack/retransmit, credit
//!    windows) survives *real* framing — length-prefixed frames, partial
//!    reads, seeded drops and duplicates injected at the frame layer by
//!    the userspace fault shim — not just the sim fabric's in-memory
//!    queues. The same suite runs over TCP loopback streams and over
//!    the shared-memory rings, which share the shim;
//! 2. a workload computes bit-identical results whether the nodes share
//!    a process over the sim fabric, talk TCP over loopback, or pass
//!    frames through shared-memory rings.

use gmt_core::{Cluster, Config, Distribution, NodeRuntime, SpawnPolicy, Transport};
use gmt_net::{loopback_mesh, seed_from_env, shm_mesh, FaultPlan, ShmTransport, TcpTransport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boots `n` [`NodeRuntime`]s in this process over a TCP loopback mesh,
/// returning them plus the concrete transports (kept so tests can
/// install/clear faults after boot).
fn boot_tcp_nodes(n: usize, config: &Config) -> (Vec<NodeRuntime>, Vec<Arc<TcpTransport>>) {
    let transports: Vec<Arc<TcpTransport>> =
        loopback_mesh(n).expect("loopback mesh").into_iter().map(Arc::new).collect();
    let runtimes = transports
        .iter()
        .map(|t| {
            let dyn_t: Arc<dyn Transport> = Arc::clone(t) as Arc<dyn Transport>;
            NodeRuntime::start(dyn_t, config.clone()).expect("node boots")
        })
        .collect();
    (runtimes, transports)
}

/// [`boot_tcp_nodes`], but the mesh is shared-memory rings.
fn boot_shm_nodes(n: usize, config: &Config) -> (Vec<NodeRuntime>, Vec<Arc<ShmTransport>>) {
    let transports: Vec<Arc<ShmTransport>> =
        shm_mesh(n).expect("shm mesh").into_iter().map(Arc::new).collect();
    let runtimes = transports
        .iter()
        .map(|t| {
            let dyn_t: Arc<dyn Transport> = Arc::clone(t) as Arc<dyn Transport>;
            NodeRuntime::start(dyn_t, config.clone()).expect("node boots")
        })
        .collect();
    (runtimes, transports)
}

/// Remote puts, gets and atomic adds complete correctly while the fault
/// shim drops ~10% and duplicates ~10% of data frames on every link —
/// and fragments every frame mid-header to force partial-read
/// reassembly. If the reliable header did not survive real framing, the
/// workload would hang (lost, never retransmitted) or corrupt (duplicate
/// applied twice).
#[test]
fn reliability_survives_lossy_tcp() {
    let (runtimes, transports) = boot_tcp_nodes(3, &Config::small());
    lossy_reliability_body(
        runtimes,
        seed_from_env(0xC0FF_EE01),
        |p| transports.iter().for_each(|t| t.install_faults(p.clone())),
        || transports.iter().for_each(|t| t.clear_faults()),
        || transports[0].stats().total(),
    );
}

/// The same lossy-link workload over the shared-memory rings: the frame
/// shim sits above the ring write, so seeded drops and duplicates replay
/// there exactly as they do on TCP — this is what lets the PR 2/4/9
/// fault suites run unmodified on shm.
#[test]
fn reliability_survives_lossy_shm() {
    let (runtimes, transports) = boot_shm_nodes(3, &Config::small());
    lossy_reliability_body(
        runtimes,
        seed_from_env(0xC0FF_EE02),
        |p| transports.iter().for_each(|t| t.install_faults(p.clone())),
        || transports.iter().for_each(|t| t.clear_faults()),
        || transports[0].stats().total(),
    );
}

fn lossy_reliability_body(
    runtimes: Vec<NodeRuntime>,
    seed: u64,
    install: impl Fn(&FaultPlan),
    clear: impl Fn(),
    total: impl Fn() -> gmt_net::stats::NodeTraffic,
) {
    let plan = FaultPlan::new(seed).drop_all(0.10).dup_all(0.10);
    install(&plan);

    let sum = runtimes[0].node().run(|ctx| {
        let arr = ctx.alloc(512 * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, 8, 1, move |ctx, t| {
            for k in 0..64u64 {
                ctx.put_value_nb::<u64>(&arr, t * 64 + k, t * 64 + k + 1);
            }
            ctx.wait_commands().unwrap();
        });
        let acc = ctx.alloc(8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, 256, 4, move |ctx, _| {
            ctx.atomic_add(&acc, 0, 1).unwrap();
        });
        let mut sum = 0u64;
        for i in 0..512 {
            sum += ctx.get_value::<u64>(&arr, i).unwrap();
        }
        sum += ctx.atomic_add(&acc, 0, 0).unwrap() as u64;
        ctx.free(arr);
        ctx.free(acc);
        sum
    });
    assert_eq!(sum, (1..=512u64).sum::<u64>() + 256, "seed {seed}");

    // The mesh shares one TrafficStats, so node 0's view covers every link.
    let total = total();
    assert!(total.dropped_msgs > 0, "shim never dropped a frame (seed {seed})");
    assert!(total.duplicated_msgs > 0, "shim never duplicated a frame (seed {seed})");
    assert!(total.retransmits > 0, "drops happened but nothing was retransmitted (seed {seed})");

    // Lift the faults before teardown so the shutdown drain itself is
    // exercised on a clean link (lossy-drain liveness is the failure
    // detector's job, covered by fault_tolerance.rs on the sim).
    clear();
    for rt in runtimes {
        rt.shutdown();
    }
}

/// A peer whose process dies mid-run — its transport torn down under it,
/// streams severed, the in-process stand-in for SIGKILL — is confirmed
/// dead by every survivor through connection-loss evidence in detection
/// time. The config pushes the suspicion window out to 2 s so neither
/// retry-budget exhaustion nor heartbeat silence can fire first: only
/// the link-down path can explain a sub-second confirmation.
#[test]
fn connection_loss_confirms_death_in_detection_time() {
    let mut config = Config::small();
    config.suspect_after_ns = 2_000_000_000;
    config.peer_death_timeout_ns = 10_000_000_000;
    let (runtimes, transports) = boot_tcp_nodes(3, &config);
    // Let the mesh settle into heartbeat traffic.
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    Transport::shutdown(&*transports[2]); // node 2 "crashes"
    let deadline = t0 + Duration::from_millis(1500);
    for survivor in [0, 1] {
        while runtimes[survivor].node().dead_peers() != vec![2] {
            assert!(
                Instant::now() < deadline,
                "survivor {survivor} did not confirm the crash within 1.5 s — the \
                 connection-loss evidence path never fired (dead: {:?})",
                runtimes[survivor].node().dead_peers()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let latency = t0.elapsed();
    assert_eq!(runtimes[0].node().membership_epoch(), 1);
    assert_eq!(runtimes[1].node().membership_epoch(), 1);
    // Each survivor counted its lost connection exactly once (the mesh
    // shares one stats table; the victim's own teardown is suppressed).
    assert_eq!(transports[0].stats().total().conn_lost, 2, "latency was {latency:?}");
    for rt in runtimes {
        rt.shutdown();
    }
}

/// A peer that dies while large frames stream at it tears one mid-read:
/// its reader sits in the in-place receive of a 64 KiB buffer when the
/// stream is severed. The survivor must count the lost connection exactly
/// once, fail the stream's operations instead of hanging them, and — like
/// the dead node's side, whose half-filled receive buffer belongs to no
/// pool — come out of shutdown with every buffer pool whole.
#[test]
fn crash_under_a_large_frame_stream_is_counted_once_and_keeps_pools_whole() {
    let mut config = Config::small();
    config.buffer_size = 64 * 1024;
    config.suspect_after_ns = 2_000_000_000;
    config.peer_death_timeout_ns = 10_000_000_000;
    let (runtimes, transports) = boot_tcp_nodes(2, &config);
    let aggs: Vec<_> = runtimes.iter().map(|rt| Arc::clone(&rt.node().shared().agg)).collect();
    let streaming = Arc::new(AtomicBool::new(false));

    let completed = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !streaming.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            Transport::shutdown(&*transports[1]); // node 1 "crashes" mid-stream
        });
        let streaming = Arc::clone(&streaming);
        runtimes[0].node().run(move |ctx| {
            let arr = ctx.alloc(64 * 16 * 1024, Distribution::Remote);
            let data = vec![0xABu8; 16 * 1024];
            let mut completed = 0u32;
            // Until the death surfaces (bounded, should it never).
            for round in 0..100_000u64 {
                for k in 0..8 {
                    ctx.put_nb(&arr, ((round * 8 + k) % 64) * data.len() as u64, &data);
                }
                if ctx.wait_commands().is_err() {
                    break;
                }
                completed += 1;
                streaming.store(true, Ordering::Release);
            }
            completed
        })
    });
    assert!(completed > 0, "the stream never got going before the crash");
    assert_eq!(runtimes[0].node().dead_peers(), vec![1], "the stream ended without a death");
    // The mesh shares one stats table: the survivor's loss, once; the
    // victim's own teardown is not a loss.
    assert_eq!(transports[0].stats().total().conn_lost, 1);
    for rt in runtimes {
        rt.shutdown();
    }
    for (n, agg) in aggs.iter().enumerate() {
        for c in 0..agg.channels() {
            let q = agg.channel(c);
            assert_eq!(q.backlog(), 0, "node {n} channel {c} still has filled buffers");
            assert_eq!(q.free_buffers(), q.pool_capacity(), "node {n} channel {c} pool not whole");
        }
    }
}

/// The shm analogue of the test above: a peer whose transport is torn
/// down under it publishes `GONE` in its segment slot, which each
/// survivor's monitor turns into first-hand peer-loss evidence — the
/// same sub-second confirmation TCP gets from reader EOF. (A true
/// SIGKILL, where even `GONE` is never written and only the pid check
/// can tell, is exercised cross-process by the gmt-launch --kill CI
/// job.)
#[test]
fn peer_loss_evidence_confirms_death_on_shm() {
    let mut config = Config::small();
    config.suspect_after_ns = 2_000_000_000;
    config.peer_death_timeout_ns = 10_000_000_000;
    let (runtimes, transports) = boot_shm_nodes(3, &config);
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    Transport::shutdown(&*transports[2]); // node 2 "crashes"
    let deadline = t0 + Duration::from_millis(1500);
    for survivor in [0, 1] {
        while runtimes[survivor].node().dead_peers() != vec![2] {
            assert!(
                Instant::now() < deadline,
                "survivor {survivor} did not confirm the crash within 1.5 s — the \
                 peer-loss evidence path never fired (dead: {:?})",
                runtimes[survivor].node().dead_peers()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let latency = t0.elapsed();
    assert_eq!(runtimes[0].node().membership_epoch(), 1);
    assert_eq!(runtimes[1].node().membership_epoch(), 1);
    assert_eq!(transports[0].stats().total().conn_lost, 2, "latency was {latency:?}");
    for rt in runtimes {
        rt.shutdown();
    }
}

/// Measures crash-detection latency with and without connection-loss
/// evidence under `Config::small` — the source of the EXPERIMENTS.md
/// numbers. Run with `--ignored --nocapture`.
#[test]
#[ignore = "latency measurement harness, run manually"]
fn crash_detection_latency_report() {
    for observe in [true, false] {
        let mut config = Config::small();
        config.observe_fabric_kills = observe;
        let (runtimes, transports) = boot_tcp_nodes(2, &config);
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        Transport::shutdown(&*transports[1]);
        while runtimes[0].node().dead_peers() != vec![1] {
            assert!(t0.elapsed() < Duration::from_secs(30), "no detection at all");
            std::thread::sleep(Duration::from_micros(500));
        }
        println!(
            "crash detection {} link-down evidence: {:?}",
            if observe { "with" } else { "without" },
            t0.elapsed()
        );
        for rt in runtimes {
            rt.shutdown();
        }
    }
}

/// A deterministic workload: every element's final value is fixed by the
/// program, independent of task schedule and message ordering.
fn deterministic_workload(cluster: &Cluster) -> Vec<u64> {
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(1024 * 8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, 1024, 8, move |ctx, i| {
            ctx.put_value::<u64>(&arr, i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).unwrap();
        });
        ctx.parfor(SpawnPolicy::Partition, 1024, 8, move |ctx, i| {
            ctx.atomic_add(&arr, i * 8, i as i64).unwrap();
        });
        let out: Vec<u64> = (0..1024).map(|i| ctx.get_value::<u64>(&arr, i).unwrap()).collect();
        ctx.free(arr);
        out
    })
}

/// The same workload over the sim fabric, real TCP sockets and
/// shared-memory rings must produce bit-identical memory contents — a
/// transport may reorder across links and retime everything, but never
/// change results.
#[test]
fn sim_tcp_and_shm_agree_bit_identically() {
    let sim = Cluster::start_sim(3, Config::small()).unwrap();
    let via_sim = deterministic_workload(&sim);
    sim.shutdown();

    let tcp = Cluster::start_tcp_loopback(3, Config::small()).unwrap();
    let via_tcp = deterministic_workload(&tcp);
    tcp.shutdown();

    let shm = Cluster::start_shm(3, Config::small()).unwrap();
    let via_shm = deterministic_workload(&shm);
    shm.shutdown();

    assert_eq!(via_sim, via_tcp);
    assert_eq!(via_sim, via_shm);
}
