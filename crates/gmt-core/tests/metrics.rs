//! Metrics-registry integration tests: cross-checks between the
//! instruments of different layers, and the serialized snapshot's shape.

use gmt_core::{Cluster, Config, Distribution, SpawnPolicy};
use gmt_metrics::json;
use std::sync::Arc;

/// Remote-put storm that exercises aggregation, helpers and the
/// reliability layer on every node.
fn storm(cluster: &Cluster, elems: u64) {
    cluster.node(0).run(move |ctx| {
        let arr = ctx.alloc(elems * 8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, elems, 16, move |ctx, i| {
            ctx.put_value::<u64>(&arr, i, i * 3).unwrap();
        });
        for i in (0..elems).step_by(7) {
            assert_eq!(ctx.get_value::<u64>(&arr, i).unwrap(), i * 3);
        }
        ctx.free(arr);
    });
}

/// After shutdown every counter is quiescent; the aggregation and comm
/// layers' independent views of the same traffic must agree.
#[test]
fn snapshot_is_consistent_after_shutdown() {
    let config = Config::small();
    let cluster = Cluster::start(3, config.clone()).unwrap();
    storm(&cluster, 512);
    // Keep each node's shared state alive across shutdown: the handles
    // die with the cluster, the Arcs (and their instruments) do not.
    let shared: Vec<_> = (0..3).map(|n| Arc::clone(cluster.node(n).shared())).collect();
    cluster.shutdown();

    for s in &shared {
        let m = &s.metrics;
        let snap = m.registry().snapshot();
        let flushes = snap.counter("agg.buffers_filled").unwrap();
        let sent_buffers = snap.counter("comm.buffers_sent").unwrap();
        let sent_bytes = snap.counter("comm.bytes_sent").unwrap();
        // Heartbeats ride the same wire: under real TCP timing a link
        // can go idle mid-run and emit standalone heartbeat frames.
        let extra = snap.counter("reliable.acks_standalone").unwrap()
            + snap.counter("reliable.retransmits").unwrap()
            + snap.counter("detector.heartbeats_sent").unwrap()
            + snap.counter("detector.notices_sent").unwrap();
        // Buffers the flow window still held when the link dropped at
        // shutdown were filled and never sent.
        let held_at_shutdown = snap.gauge("net.flow.held").unwrap() as u64;
        assert!(flushes > 0, "node {}: no aggregation flushes recorded", s.node_id);
        // Every packet on the wire is booked exactly once, as a flushed
        // aggregation buffer (each at most `buffer_size` bytes), a
        // standalone ack, a retransmit, a heartbeat or a death notice —
        // and the transport counted the same packets.
        assert_eq!(
            sent_buffers,
            flushes - held_at_shutdown + extra,
            "node {}: sent {sent_buffers} buffers from {flushes} flushes - {held_at_shutdown} \
             held + {extra} acks/rtx/hb/notices",
            s.node_id
        );
        assert_eq!(sent_buffers, s.net.node(s.node_id).sent_msgs, "node {}", s.node_id);
        assert!(
            sent_bytes <= (flushes + extra) * config.buffer_size as u64,
            "node {}: {sent_bytes} B sent exceeds {} flushes x {} B capacity (+{extra} extra)",
            s.node_id,
            flushes,
            config.buffer_size
        );
        // The flush-fill histogram saw exactly the flushes, none above
        // the buffer capacity.
        let fill = snap.histogram("agg.flush_fill_bytes").unwrap();
        assert_eq!(fill.count(), flushes, "node {}: histogram missed flushes", s.node_id);
        assert_eq!(
            *fill.counts.last().unwrap(),
            0,
            "node {}: a flush exceeded the buffer capacity",
            s.node_id
        );
        // Task accounting balanced out.
        assert_eq!(snap.gauge("worker.live_tasks"), Some(0));
        assert_eq!(snap.gauge("worker.parked_tasks"), Some(0), "one wake-up per park");
        assert_eq!(snap.counter("worker.task_parks"), snap.counter("worker.wakeups"));
        assert_eq!(
            snap.counter("worker.tasks_spawned"),
            snap.counter("worker.tasks_finished"),
            "node {}: spawned != finished at quiescence",
            s.node_id
        );
    }
}

/// The public snapshot includes the folded-in `net.*` counters and
/// serializes to parseable JSON.
#[test]
fn metrics_snapshot_serializes_and_folds_net_counters() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    storm(&cluster, 256);
    let snap = cluster.node(0).metrics_snapshot();
    cluster.shutdown();

    assert!(snap.counter("net.sent_msgs").unwrap() > 0);
    // Every traffic counter is exported, the ones that stayed at zero too.
    assert_eq!(
        (snap.counter("net.stalled_msgs"), snap.counter("net.conn_lost")),
        (Some(0), Some(0))
    );
    assert!(snap.counter("worker.ctx_switches").unwrap() > 0);
    // The storm's verification reads include remote gets, so node 0's
    // helpers execute the returning get-replies. (Its puts run on the
    // owning nodes — partition-aligned tasks put locally.)
    assert!(snap.counter("helper.cmd.get-reply").unwrap() > 0);

    let v = json::parse(&snap.to_json()).expect("snapshot JSON parses");
    let counters = v.get("counters").expect("counters object");
    assert_eq!(
        counters.get("net.sent_msgs").and_then(|x| x.as_u64()),
        snap.counter("net.sent_msgs"),
        "JSON and snapshot disagree"
    );
    let hist = v
        .get("histograms")
        .and_then(|h| h.get("agg.flush_fill_bytes"))
        .expect("flush-fill histogram serialized");
    let bounds = hist.get("bounds").and_then(|b| b.as_array()).unwrap().len();
    let counts = hist.get("counts").and_then(|c| c.as_array()).unwrap().len();
    assert_eq!(counts, bounds + 1, "overflow bucket missing");
}

/// Live instrument handles observe the same run the snapshot freezes.
#[test]
fn live_handles_and_snapshot_agree() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    storm(&cluster, 128);
    let node = cluster.node(0);
    let live = node.metrics().ctx_switches.sum();
    assert!(live > 0);
    let snap = node.metrics_snapshot();
    assert!(snap.counter("worker.ctx_switches").unwrap() >= live);
    // Per-shard breakdown sums to the total.
    let sw = &node.metrics().ctx_switches;
    let by_shard: u64 = (0..sw.shards()).map(|s| sw.shard_value(s)).sum();
    assert_eq!(by_shard, sw.sum());
    cluster.shutdown();
}

/// Command counters attribute opcodes correctly: a put-only storm
/// executes puts and acks (plus the parfor's spawn/alloc bookkeeping),
/// never atomics.
#[test]
fn command_counters_attribute_opcodes() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(64 * 8, Distribution::Remote);
        for i in 0..64 {
            ctx.put_value::<u64>(&arr, i, i).unwrap();
        }
        ctx.free(arr);
    });
    let puts: u64 =
        (0..2).map(|n| cluster.node(n).metrics_snapshot().counter("helper.cmd.put").unwrap()).sum();
    let atomics: u64 = (0..2)
        .map(|n| {
            let s = cluster.node(n).metrics_snapshot();
            s.counter("helper.cmd.add").unwrap() + s.counter("helper.cmd.cas").unwrap()
        })
        .sum();
    assert_eq!(puts, 64, "every put executed exactly once");
    assert_eq!(atomics, 0, "no atomics in a put-only run");
    cluster.shutdown();
}

/// A loaded node's threads do not sleep per operation: 1024 tasks on one
/// worker keep it busy between replies, so it parks about once per round
/// of replies, not once per reply. A wake path that put the worker to
/// sleep per op would read ~1000 here.
#[test]
fn a_loaded_worker_sleeps_at_most_twice_per_thousand_ops() {
    const TASKS: u64 = 1024;
    const ROUNDS: u64 = 8;
    let config = Config {
        num_workers: 1,
        num_helpers: 1,
        max_tasks_per_worker: 1024,
        buffer_size: 65_536,
        cmd_block_entries: 64,
        ..Config::small()
    };
    let cluster = Cluster::start_sim(2, config).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(TASKS * 8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Local, TASKS, 1, move |ctx, t| {
            for r in 0..ROUNDS {
                ctx.put_value::<u64>(&arr, t, t + r).unwrap();
                assert_eq!(ctx.get_value::<u64>(&arr, t).unwrap(), t + r);
            }
        });
        ctx.free(arr);
    });
    let shared = Arc::clone(cluster.node(0).shared());
    cluster.shutdown();
    let ops = TASKS * ROUNDS * 2;
    let sleeps = shared.metrics.registry().snapshot().counter("worker.sleeps").unwrap();
    eprintln!("worker.sleeps {sleeps} over {ops} ops");
    assert!(sleeps * 1000 <= 2 * ops, "{sleeps} worker sleeps over {ops} blocking ops");
}

/// A chain of dependent remote gets over TCP hands each hop from thread
/// to thread: nothing aggregates, so every hop is one buffer each way.
/// The readers step what they read through the link themselves, so each
/// comm server sleeps once per hop — after it sent — and a reader's
/// arrival wakes no comm server (with that wake, 1.8 to 2.0 sleeps per
/// hop). Counts only, no timing.
#[test]
fn a_tcp_chase_costs_each_comm_server_one_sleep_per_hop() {
    const HOPS: u64 = 2_000;
    const CELLS: u64 = 64;
    let config = Config { num_workers: 1, num_helpers: 1, ..Config::small() };
    let cluster = Cluster::start_tcp_loopback(2, config).unwrap();
    let shared: Vec<_> = (0..2).map(|n| Arc::clone(cluster.node(n).shared())).collect();
    let count = move |name: &str| {
        shared.iter().map(|s| s.metrics.registry().snapshot().counter(name).unwrap()).collect()
    };
    let counts = move || -> [Vec<u64>; 2] { [count("comm.sleeps"), count("reliable.retransmits")] };
    let [before, after] = cluster.node(0).run(move |ctx| {
        let arr = ctx.alloc(CELLS * 8, Distribution::Remote);
        // One warm-up hop, so the count starts on a settled link.
        let mut at = ctx.get_value::<u64>(&arr, 0).unwrap() % CELLS;
        let before = counts();
        for hop in 0..HOPS {
            at = (ctx.get_value::<u64>(&arr, at).unwrap() + hop + 1) % CELLS;
        }
        let after = counts();
        ctx.free(arr);
        [before, after]
    });
    cluster.shutdown();
    for n in 0..2 {
        let per_hop = (after[0][n] - before[0][n]) as f64 / HOPS as f64;
        let retransmits = after[1][n] - before[1][n];
        eprintln!("node {n}: comm.sleeps {per_hop:.3} per hop, {retransmits} retransmits");
        assert!(per_hop <= 1.1, "node {n}'s comm server slept {per_hop:.3} times per hop");
        // A hop delayed past the 1 ms retransmit floor is retransmitted:
        // on a shared 2-CPU host beside this binary's other tests, 0 to 10
        // of 2 000 hops before the readers stepped the link, 0 to 24 since
        // (an ack owed waits for the reply when the node's threads are
        // runnable but not running). An ack the link lost outright would
        // cost every hop one.
        assert!(retransmits * 20 <= HOPS, "node {n}: {retransmits} retransmits in {HOPS} hops");
    }
}
