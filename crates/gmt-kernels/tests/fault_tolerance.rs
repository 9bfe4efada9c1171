//! End-to-end kernels under an adversarial fabric.
//!
//! The paper's GMT assumes a lossless MPI transport; this suite runs the
//! real kernels over a fabric that drops, duplicates, delays and flaps —
//! and asserts the reliability layer makes the damage invisible: results
//! bit-identical to fault-free runs, no task left parked, every pooled
//! aggregation buffer back home after shutdown.
//!
//! Every test derives its fault seed via [`gmt_net::seed_from_env`]
//! (`GMT_FAULT_SEED`) and prints it, so a CI failure under a randomized
//! seed can be replayed verbatim.

mod common;

use common::{assert_pools_whole, pool_handles};
use gmt_core::{Cluster, Config, Distribution, GmtError, MetricsSnapshot};
use gmt_graph::{uniform_random, DistGraph, GraphSpec};
use gmt_kernels::bfs::{gmt_bfs, BfsResult};
use gmt_kernels::grw::{gmt_grw, seq_grw};
use gmt_net::{seed_from_env, FaultPlan};
use std::time::Instant;

/// Asserts that the flow-control watermarks on `snap` respect
/// `flow_window`: the unacked high-water mark never exceeded the window,
/// and the window-occupancy histogram recorded no stamp above it.
fn assert_flow_bounded(snap: &MetricsSnapshot, node: usize, flow_window: usize, seed: u64) {
    let watermark = snap.gauge("net.flow.unacked_watermark").unwrap_or(0);
    assert!(
        watermark <= flow_window as i64,
        "node {node}: unacked watermark {watermark} exceeds flow_window {flow_window} (seed {seed})"
    );
    if let Some(h) = snap.histogram("net.flow.window") {
        // Bucket `i` holds values in `(bounds[i-1], bounds[i]]` (the last
        // bucket is the overflow); any count in a bucket whose lower edge
        // is at or above the window is a stamp past the limit.
        for (i, &c) in h.counts.iter().enumerate() {
            let lower = if i == 0 { 0 } else { h.bounds[i - 1] };
            assert!(
                lower < flow_window as u64 || c == 0,
                "node {node}: {c} window-occupancy sample(s) above {lower} with flow_window \
                 {flow_window} (seed {seed})"
            );
        }
    }
}

fn run_bfs(cluster: &Cluster, vertices: u64, degree: u64, graph_seed: u64) -> BfsResult {
    let csr = uniform_random(GraphSpec { vertices, avg_degree: degree, seed: graph_seed });
    cluster.node(0).run(move |ctx| {
        let g = DistGraph::from_csr(ctx, &csr);
        let r = gmt_bfs(ctx, &g, 0);
        g.free(ctx);
        r
    })
}

/// Tentpole acceptance: a 4-node BFS with ≥5% loss everywhere, a
/// periodically flapping link and some duplication completes bit-identical
/// to the fault-free run — zero lost tokens, zero stuck tasks, pools whole.
#[test]
fn bfs_is_bit_identical_under_drops_and_flaps() {
    let seed = seed_from_env(0xF417);
    eprintln!("[fault_tolerance] bfs_is_bit_identical_under_drops_and_flaps seed={seed}");

    let clean_cluster = Cluster::start_sim(4, Config::small()).unwrap();
    let clean = run_bfs(&clean_cluster, 200, 4, 31);
    clean_cluster.shutdown();
    assert!(clean.visited > 1, "graph too sparse to exercise the fabric");

    let cluster = Cluster::start_sim(4, Config::small()).unwrap();
    // 5% loss on every link, a link that is down 20% of the time in 10 ms
    // cycles, and 2% duplication on the return path of that link.
    cluster.install_faults(
        FaultPlan::new(seed)
            .drop_all(0.05)
            .flap_period(1, 2, 10_000_000, 2_000_000)
            .dup(2, 1, 0.02),
    );
    let aggs = pool_handles(&cluster);
    let faulty = run_bfs(&cluster, 200, 4, 31);
    assert_eq!(faulty, clean, "BFS result changed under fault injection (seed {seed})");

    // Zero lost tokens: nothing is still parked waiting for a reply, and
    // no peer was (wrongly) declared dead while recovering from loss.
    for i in 0..cluster.nodes() {
        assert_eq!(cluster.node(i).stuck_tasks(), 0, "node {i} has stuck tasks (seed {seed})");
        assert!(cluster.node(i).dead_peers().is_empty(), "node {i} declared peers dead");
    }
    // The plan actually bit: packets were dropped and the reliability
    // layer actually recovered them.
    let total = cluster.net_stats().total();
    assert!(total.dropped_msgs > 0, "fault plan never dropped a packet (seed {seed})");
    let repaired = (0..cluster.nodes()).any(|i| cluster.node(i).metrics().retransmits.sum() > 0);
    assert!(repaired, "loss was never repaired by retransmission (seed {seed})");
    cluster.shutdown();
    assert_pools_whole(&aggs);
}

/// Satellite: faults compose with the throttled cost model. A random walk
/// under `DeliveryMode::Throttled` with loss, jitter and a flapping link
/// still matches the sequential reference checksum exactly.
#[test]
fn grw_under_throttled_fabric_with_faults_matches_reference() {
    let seed = seed_from_env(0x6121);
    eprintln!(
        "[fault_tolerance] grw_under_throttled_fabric_with_faults_matches_reference seed={seed}"
    );

    let csr = uniform_random(GraphSpec { vertices: 80, avg_degree: 4, seed: 17 });
    let expected = seq_grw(&csr, 24, 6, 99);

    let cluster = Cluster::start_sim(2, Config::small_throttled()).unwrap();
    cluster.install_faults(
        FaultPlan::new(seed)
            .drop_all(0.05)
            .jitter(0, 1, 50_000)
            .flap_period(0, 1, 8_000_000, 1_500_000),
    );
    let aggs = pool_handles(&cluster);
    let got = cluster.node(0).run(move |ctx| {
        let g = DistGraph::from_csr(ctx, &csr);
        let r = gmt_grw(ctx, &g, 24, 6, 99);
        g.free(ctx);
        r
    });
    assert_eq!(got, expected, "throttled GRW diverged under faults (seed {seed})");
    let total = cluster.net_stats().total();
    assert!(total.dropped_msgs > 0, "fault plan never dropped a packet (seed {seed})");
    for i in 0..cluster.nodes() {
        assert_eq!(cluster.node(i).stuck_tasks(), 0, "node {i} has stuck tasks (seed {seed})");
    }
    cluster.shutdown();
    assert_pools_whole(&aggs);
}

/// Heavy duplication plus loss on a put/get storm: the receiver-side
/// dedup must keep every value exact while duplicates and retransmits are
/// demonstrably flowing.
#[test]
fn duplication_storm_is_deduplicated_exactly() {
    let seed = seed_from_env(0xD0_D0);
    eprintln!("[fault_tolerance] duplication_storm_is_deduplicated_exactly seed={seed}");

    let cluster = Cluster::start_sim(2, Config::small()).unwrap();
    cluster.install_faults(FaultPlan::new(seed).dup_all(0.30).drop_all(0.10));
    let aggs = pool_handles(&cluster);
    let bad = cluster.node(0).run(|ctx| {
        let n = 512u64;
        let arr = ctx.alloc(n * 8, Distribution::Remote);
        ctx.parfor(gmt_core::SpawnPolicy::Local, n, 16, move |ctx, i| {
            ctx.put_value::<u64>(&arr, i, i * 3 + 1).unwrap();
        });
        let mut bad = 0u64;
        for i in 0..n {
            if ctx.get_value::<u64>(&arr, i).unwrap() != i * 3 + 1 {
                bad += 1;
            }
        }
        ctx.free(arr);
        bad
    });
    assert_eq!(bad, 0, "dedup failed: {bad} corrupted values (seed {seed})");
    let total = cluster.net_stats().total();
    assert!(total.duplicated_msgs > 0, "fault plan never duplicated a packet (seed {seed})");
    assert!(total.dropped_msgs > 0, "fault plan never dropped a packet (seed {seed})");
    cluster.shutdown();
    assert_pools_whole(&aggs);
}

/// Node-loss acceptance: once a peer behind a silent partition has been
/// silent for the death timeout, blocking operations addressed to it
/// fail with
/// [`GmtError::RemoteDead`] (instead of hanging), subsequent operations
/// fail fast, and the watchdog reports zero stuck tasks once the failure
/// has been surfaced.
#[test]
fn silent_partition_surfaces_remote_dead_within_the_death_timeout() {
    let seed = seed_from_env(0xDEAD);
    eprintln!(
        "[fault_tolerance] silent_partition_surfaces_remote_dead_within_the_death_timeout \
         seed={seed}"
    );

    // A partition that no backend reports as a link going down (below):
    // only the silence rule can confirm the death, so this test is its
    // end-to-end coverage.
    let config = Config { peer_death_timeout_ns: 400_000_000, ..Config::small() };
    // Generous wall-clock budget: the death timeout plus scheduling slack
    // on a loaded single-core CI host.
    let deadline = std::time::Duration::from_nanos(config.peer_death_timeout_ns + 2_000_000_000);

    let cluster = Cluster::start_sim(4, config).unwrap();
    let aggs = pool_handles(&cluster);
    // Allocate while the fabric is healthy: 32 u64 words block-partitioned
    // over 4 nodes — elements 24..32 live on node 3.
    let arr = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(32 * 8, Distribution::Partition);
        ctx.put_value::<u64>(&arr, 28, 1).unwrap();
        arr
    });

    // Node 3 stays alive behind the partition; whatever it concludes
    // about the others reaches nobody.
    cluster.install_faults((0..3).fold(FaultPlan::new(seed), |plan, survivor| {
        plan.drop(3, survivor, 1.0).drop(survivor, 3, 1.0)
    }));

    let start = Instant::now();
    let (first, fast, fast_elapsed) = cluster.node(0).run(move |ctx| {
        let first = ctx.put_value::<u64>(&arr, 28, 7);
        // The peer is now marked dead: later operations must fail fast
        // (tokens error-completed at emit time, no retry cycle).
        let t = Instant::now();
        let fast = ctx.get_value::<u64>(&arr, 28);
        (first, fast, t.elapsed())
    });
    let elapsed = start.elapsed();

    match first {
        Err(GmtError::RemoteDead { node, failed_ops }) => {
            assert_eq!(node, 3, "wrong peer blamed (seed {seed})");
            assert!(failed_ops >= 1);
        }
        other => panic!("expected RemoteDead, got {other:?} (seed {seed})"),
    }
    assert!(
        matches!(fast, Err(GmtError::RemoteDead { node: 3, .. })),
        "post-death op did not fail: {fast:?} (seed {seed})"
    );
    assert!(elapsed < deadline, "death took {elapsed:?}, budget {deadline:?} (seed {seed})");
    assert!(fast_elapsed < deadline / 2, "post-death op was not fast: {fast_elapsed:?}");

    assert_eq!(cluster.node(0).dead_peers(), vec![3], "node 0 peer-death record (seed {seed})");
    // The death sweep failed exactly what was registered toward the
    // victim: the put in flight when it died, and the get emitted after.
    assert!(matches!(first, Err(GmtError::RemoteDead { failed_ops: 1, .. })), "(seed {seed})");
    assert!(matches!(fast, Err(GmtError::RemoteDead { failed_ops: 1, .. })), "(seed {seed})");
    assert_eq!(
        cluster.node(0).metrics_snapshot().counter("reliable.ops_failed"),
        Some(2),
        "operations the death log reports failed vs registered toward node 3 (seed {seed})"
    );
    // The failure unparked everything: the watchdog sees zero stuck tasks.
    assert_eq!(cluster.node(0).stuck_tasks(), 0, "tasks left parked after failure (seed {seed})");

    // Healthy links are unaffected: node 0 <-> node 1 still works
    // (elements 8..16 of the array live on node 1). Collective allocation
    // would panic on a degraded cluster — by design — so reuse the array
    // allocated while the fabric was healthy.
    let ok = cluster.node(0).run(move |ctx| {
        ctx.put_value::<u64>(&arr, 9, 42).unwrap();
        ctx.get_value::<u64>(&arr, 9).unwrap()
    });
    assert_eq!(ok, 42);

    cluster.shutdown();
    // Node 0's pools must be whole even though packets to node 3 died in
    // the retransmit queue — their pooled payloads are released when the
    // peer is declared dead. Node 3's pools are checked with the rest:
    // whatever it still held for a peer it could no longer hear was
    // released the same way, or when its link state was dropped.
    assert_pools_whole(&aggs);
}

/// The watchdog's positive path: a silent partition is a loss nothing
/// detects while the test runs — no backend reports a dropped frame as a
/// link going down, and a 60 s death timeout outlasts the test. Every
/// token addressed across the partition hangs, and the stuck-token
/// watchdog must say so, instead of the program just sitting there.
#[test]
fn watchdog_reports_stuck_tokens_behind_a_silent_partition() {
    let seed = seed_from_env(0x57C);
    eprintln!(
        "[fault_tolerance] watchdog_reports_stuck_tokens_behind_a_silent_partition seed={seed}"
    );

    let config = Config {
        stuck_task_deadline_ns: 50_000_000,
        peer_death_timeout_ns: 60_000_000_000,
        ..Config::small()
    };
    let cluster = Cluster::start_sim(2, config).unwrap();
    // Allocate while the fabric is healthy; elements 16..32 live on node 1.
    let arr = cluster.node(0).run(|ctx| ctx.alloc(32 * 8, Distribution::Partition));

    cluster.install_faults(FaultPlan::new(seed).drop(0, 1, 1.0).drop(1, 0, 1.0));

    // `NodeHandle::run` would block with the task, so submit the doomed
    // root task directly. It parks forever on the swallowed put; at
    // shutdown the worker leaks it by design (its stack may still be a
    // reply target), so there is no completion to wait for.
    cluster.node(0).shared().root_queue.push(gmt_core::task::RootTask {
        f: Box::new(move |ctx| {
            let _ = ctx.put_value::<u64>(&arr, 20, 7);
        }),
    });

    // The link retransmits into the partition and declares nothing — only
    // the watchdog reports the hang. Poll it past the 50 ms deadline.
    let start = Instant::now();
    let mut stuck = 0;
    while start.elapsed() < std::time::Duration::from_secs(10) {
        stuck = cluster.node(0).stuck_tasks();
        if stuck > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(stuck, 1, "watchdog never reported the hung token (seed {seed})");
    assert!(
        cluster.node(0).dead_peers().is_empty(),
        "a peer heard within the suspicion threshold was declared dead (seed {seed})"
    );
    let retransmits = cluster.node(0).metrics_snapshot().counter("reliable.retransmits");
    assert!(
        retransmits.unwrap_or(0) > 0,
        "the link never retried into the partition (seed {seed})"
    );
    cluster.shutdown();
}

/// Flow-control property under composed faults: with a tiny window (4)
/// over a link that drops, duplicates, jitters, throttles and stalls, the
/// sender's unacked count never exceeds `flow_window` (watermark gauge
/// and occupancy histogram both bounded), no token is lost or
/// double-completed (every byte put is read back exact, zero stuck
/// tasks), the throttled peer is never mistaken for a dead one, and the
/// pools are whole after shutdown.
///
/// The load is built so that the window has to bind. One channel owns
/// `num_buf_per_channel` = 4 buffers, which is exactly the window, and a
/// buffer is not back in its pool before it is acked — so one channel
/// alone can never overrun the window; a fifth unacked buffer has to come
/// out of a second channel's pool. Every task therefore queues four full
/// buffers' worth of bulk puts (two ~4 KB payloads fill an 8 KiB buffer)
/// before its one `wait_commands`: sixteen of them put 64 buffers' worth
/// into the node-wide aggregation queue within microseconds each, where
/// whatever the first worker's dry pool leaves behind is packed by the
/// other worker's next pump. The first ack cannot be back before the
/// throttled port has serialized its buffer (6 x 4.4 us) and node 1 has
/// swept, and the comm server submits a buffer per channel per sweep.
#[test]
fn flow_window_bounds_inflight_under_composed_faults() {
    let seed = seed_from_env(0xF10);
    eprintln!("[fault_tolerance] flow_window_bounds_inflight_under_composed_faults seed={seed}");

    const FLOW_WINDOW: usize = 4;
    const TASKS: u64 = 16;
    const PUTS: u64 = 8;
    const PAYLOAD: u64 = 4000;
    let config = Config { flow_window: FLOW_WINDOW, ..Config::small_throttled() };
    assert_eq!(config.num_buf_per_channel, FLOW_WINDOW, "one channel must not overrun the window");
    let cluster = Cluster::start_sim(2, config).unwrap();
    cluster.install_faults(
        FaultPlan::new(seed)
            .drop_all(0.05)
            .dup(1, 0, 0.05)
            .jitter(0, 1, 40_000)
            .throttle(0, 1, 6.0)
            .stall(0, 1, 0.10, 100_000),
    );
    let aggs = pool_handles(&cluster);
    let fill = |task: u64, k: u64| (task * PUTS + k) as u8 ^ 0x5A;
    let bad = cluster.node(0).run(move |ctx| {
        let arr = ctx.alloc(TASKS * PUTS * PAYLOAD, Distribution::Remote);
        ctx.parfor(gmt_core::SpawnPolicy::Local, TASKS, 1, move |ctx, task| {
            for k in 0..PUTS {
                let data = [fill(task, k); PAYLOAD as usize];
                ctx.put_nb(&arr, (task * PUTS + k) * PAYLOAD, &data);
            }
            ctx.wait_commands().unwrap();
        });
        let mut bad = 0u64;
        let mut back = vec![0u8; PAYLOAD as usize];
        for slot in 0..TASKS * PUTS {
            ctx.get(&arr, slot * PAYLOAD, &mut back).unwrap();
            bad += back.iter().filter(|&&b| b != fill(slot / PUTS, slot % PUTS)).count() as u64;
        }
        ctx.free(arr);
        bad
    });
    assert_eq!(bad, 0, "flow control lost or double-applied a token (seed {seed})");

    for i in 0..cluster.nodes() {
        let snap = cluster.node(i).metrics_snapshot();
        assert_flow_bounded(&snap, i, FLOW_WINDOW, seed);
        assert_eq!(cluster.node(i).stuck_tasks(), 0, "node {i} has stuck tasks (seed {seed})");
        assert!(
            cluster.node(i).dead_peers().is_empty(),
            "node {i} mistook a slow peer for a dead one (seed {seed})"
        );
    }
    // The window actually bound: the sender held buffers at least once.
    let holds = cluster.node(0).metrics_snapshot().counter("net.flow.holds").unwrap_or(0);
    eprintln!("[fault_tolerance] node 0 held {holds} buffer(s) behind the window");
    assert!(
        holds > 0,
        "flow window never held a buffer — the property was not exercised (seed {seed})"
    );
    let total = cluster.net_stats().total();
    assert!(total.dropped_msgs > 0, "fault plan never dropped a packet (seed {seed})");
    assert!(total.throttled_msgs > 0, "fault plan never throttled a packet (seed {seed})");
    cluster.shutdown();
    assert_pools_whole(&aggs);
}

/// Nightly slow-peer soak (run with `--ignored`): a 4-node BFS over the
/// throttled cost model with the node 0 <-> node 3 link slowed 10x in
/// both directions. The run must finish bit-identical to the fault-free
/// run, the unacked watermark toward the slow peer must stay inside the
/// window, the block-pool churn must stay bounded, emitter park time must
/// show up in `net.flow.*`, the slow peer must never be declared dead and
/// no task may read as stuck. Honors `GMT_METRICS_OUT` for artifacts.
#[test]
#[ignore = "slow-peer soak: run by the nightly CI job (or locally with --ignored)"]
fn slow_peer_soak_survives_throttled_link() {
    let seed = seed_from_env(0x510E);
    eprintln!("[fault_tolerance] slow_peer_soak_survives_throttled_link seed={seed}");

    // A 4-deep window: with `small()`'s 8 KiB buffers a 10x-throttled
    // port serializes one buffer in ~43 us while its ack needs ~150 us to
    // come back, so the window demonstrably fills without needing an
    // unrealistically slow link.
    const FLOW_WINDOW: usize = 4;
    let config = Config { flow_window: FLOW_WINDOW, ..Config::small_throttled() };

    let clean_cluster = Cluster::start_sim(4, config.clone()).unwrap();
    let clean = run_bfs(&clean_cluster, 1024, 8, 77);
    clean_cluster.shutdown();
    assert!(clean.visited > 1, "graph too sparse to exercise the fabric");

    let cluster = Cluster::start_sim(4, config).unwrap();
    cluster.install_faults(FaultPlan::new(seed).throttle(0, 3, 10.0).throttle(3, 0, 10.0));
    let aggs = pool_handles(&cluster);
    let slow = run_bfs(&cluster, 1024, 8, 77);
    for i in 0..cluster.nodes() {
        cluster.node(i).write_metrics_out("slow-peer-soak");
    }
    assert_eq!(slow, clean, "BFS result changed under a 10x-throttled link (seed {seed})");

    let mut parks = 0u64;
    let mut holds = 0u64;
    let mut drops = 0u64;
    for i in 0..cluster.nodes() {
        let snap = cluster.node(i).metrics_snapshot();
        assert_flow_bounded(&snap, i, FLOW_WINDOW, seed);
        assert_eq!(cluster.node(i).stuck_tasks(), 0, "node {i} has stuck tasks (seed {seed})");
        assert!(
            cluster.node(i).dead_peers().is_empty(),
            "node {i} declared the throttled peer dead (seed {seed})"
        );
        parks += snap.counter("net.flow.parks").unwrap_or(0);
        holds += snap.counter("net.flow.holds").unwrap_or(0);
        drops += snap.counter("agg.block_pool_drops").unwrap_or(0);
    }
    // The slow link engaged the flow machinery: the 8-deep window held
    // buffers and at least one emitter parked (its park time lands in the
    // `net.flow.park_ns` histogram the artifact snapshot carries).
    assert!(holds > 0, "10x throttle never filled the flow window (seed {seed})");
    assert!(parks > 0, "backpressure never parked an emitter (seed {seed})");
    // Backpressure bounds block churn instead of letting the command-block
    // recycle pool thrash: allow slack for transients, not for runaway.
    assert!(drops < 10_000, "unbounded block-pool churn: {drops} drops (seed {seed})");
    let total = cluster.net_stats().total();
    assert!(total.throttled_msgs > 0, "fault plan never throttled a packet (seed {seed})");
    cluster.shutdown();
    assert_pools_whole(&aggs);
}
