//! `metrics_report` — runs the paper's three kernels (BFS, GRW, CHMA) on
//! a 4-node in-process cluster and prints a Table III-style observability
//! report per kernel from the runtime's metrics registry: per-thread
//! context-switch counts, the aggregation-buffer occupancy histogram at
//! flush time, and command execution rates by opcode — and, per kernel,
//! the two ratios that tell a latency-tolerant shape from a serial one:
//! task parks per unit of work and commands per buffer.
//!
//! Run with `GMT_TRACE=chrome:/tmp/run/`, it additionally leaves a Chrome
//! `trace_event` file per kernel in that directory (openable in Perfetto,
//! one lane per worker/helper/comm thread).

use gmt_core::{Cluster, Config, MetricsSnapshot, NodeHandle};
use gmt_graph::{uniform_random, DistGraph, GraphSpec};
use gmt_kernels::chma::{self, ChmaConfig, GmtHashMap};
use gmt_kernels::{bfs, grw};
use std::time::Instant;

const NODES: usize = 4;

fn main() {
    println!("=== GMT metrics report: {NODES}-node in-process cluster ===");
    run_kernel("BFS", |cluster| {
        let csr = uniform_random(GraphSpec { vertices: 4096, avg_degree: 8, seed: 42 });
        let (visited, edges) = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = bfs::gmt_bfs(ctx, &g, 0);
            g.free(ctx);
            (r.visited, r.traversed_edges)
        });
        (format!("visited {visited} vertices, traversed {edges} edges"), edges, "traversed edge")
    });
    run_kernel("GRW", |cluster| {
        let csr = uniform_random(GraphSpec { vertices: 2048, avg_degree: 8, seed: 7 });
        let r = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = grw::gmt_grw(ctx, &g, 1024, 16, 99);
            g.free(ctx);
            r
        });
        (
            format!(
                "{} walkers x {} steps, {} edges",
                r.walkers, r.steps_per_walker, r.traversed_edges
            ),
            r.traversed_edges,
            "step",
        )
    });
    run_kernel("CHMA", |cluster| {
        let cfg = ChmaConfig { entries: 2048, pool: 512, tasks: 128, steps: 16, seed: 5 };
        let r = cluster.node(0).run(move |ctx| {
            let map = GmtHashMap::alloc(ctx, cfg.entries);
            chma::gmt_chma_populate(ctx, &map, &cfg);
            let r = chma::gmt_chma_access(ctx, &map, &cfg);
            map.free(ctx);
            r
        });
        (
            format!(
                "{} accesses: {} hits, {} misses, {} inserts",
                r.accesses, r.hits, r.misses, r.inserts
            ),
            r.accesses,
            "access",
        )
    });
}

/// Starts a fresh cluster, runs one kernel — `body` returns its outcome
/// line, its units of work and what one unit is called — then prints its
/// report.
fn run_kernel(name: &str, body: impl FnOnce(&Cluster) -> (String, u64, &'static str)) {
    let config = Config::small();
    let cluster = Cluster::start(NODES, config.clone()).expect("cluster start");
    let t0 = Instant::now();
    let (outcome, work, unit) = body(&cluster);
    let elapsed = t0.elapsed().as_secs_f64();
    println!("\n--- {name}: {outcome} ({:.1} ms) ---", elapsed * 1e3);
    print_shape(&cluster, work, unit);
    report(&cluster, &config, elapsed);
    cluster.shutdown();
}

/// The kernel's shape, cluster-wide and including its set-up: how often a
/// task had to park for a reply per unit of work (a chain of blocking
/// operations parks once or more per unit, a kernel that issues waves a
/// few times per chunk), and how many commands shared a buffer.
fn print_shape(cluster: &Cluster, work: u64, unit: &str) {
    let snaps: Vec<MetricsSnapshot> =
        (0..NODES).map(|n| cluster.node(n).metrics_snapshot()).collect();
    let sum = |name: &str| -> u64 { snaps.iter().map(|s| s.counter(name).unwrap_or(0)).sum() };
    let (parks, commands, buffers) =
        (sum("worker.task_parks"), sum("agg.commands"), sum("agg.buffers_filled"));
    println!(
        "shape: {parks} task parks = {:.3} per {unit}; {commands} commands in {buffers} buffers \
         = {:.1} per buffer",
        parks as f64 / work.max(1) as f64,
        commands as f64 / buffers.max(1) as f64
    );
}

/// The Table III-style report: one section per node.
fn report(cluster: &Cluster, config: &Config, elapsed_s: f64) {
    for node in 0..NODES {
        let h = cluster.node(node);
        let snap = h.metrics_snapshot();
        println!("node {node}:");
        print_switches(h, config);
        print_occupancy(&snap);
        print_combining(&snap);
        print_batching(&snap);
        print_rates(&snap, elapsed_s);
        print_comm(&snap);
        print_flow(&snap);
        print_sleeps(&snap);
    }
}

/// How often each role's threads found nothing to do and parked.
fn print_sleeps(snap: &MetricsSnapshot) {
    println!(
        "  sleeps: workers {}, helpers {}, comm {}",
        snap.counter("worker.sleeps").unwrap_or(0),
        snap.counter("helper.sleeps").unwrap_or(0),
        snap.counter("comm.sleeps").unwrap_or(0),
    );
}

/// Per-thread context-switch counts (one counter shard per worker).
fn print_switches(h: &NodeHandle, config: &Config) {
    let m = h.metrics();
    let sw = &m.ctx_switches;
    print!("  ctx switches ({} total):", sw.sum());
    for w in 0..config.num_workers {
        print!(" w{w}={}", sw.shard_value(w));
    }
    println!();
}

/// Aggregation-buffer fill level at flush time.
fn print_occupancy(snap: &MetricsSnapshot) {
    let Some(hist) = snap.histogram("agg.flush_fill_bytes") else { return };
    print!("  buffer fill at flush ({} flushes):", hist.count());
    for (i, &c) in hist.counts.iter().enumerate() {
        match hist.bounds.get(i) {
            Some(b) => print!(" <={b}B:{c}"),
            None => print!(" >{}B:{c}", hist.bounds.last().unwrap()),
        }
    }
    println!();
    // Why each buffer shipped: every flush has exactly one trigger.
    let timeout = snap.counter("agg.timeout_flushes").unwrap_or(0);
    let idle = snap.counter("agg.idle_flushes").unwrap_or(0);
    let full = hist.count().saturating_sub(timeout + idle);
    println!("  flush triggers: full {full}, timeout {timeout}, idle {idle}");
}

/// Merge-at-source combining effectiveness: how many fire-and-forget
/// adds were absorbed before the wire, and into how many `AddN`s.
fn print_combining(snap: &MetricsSnapshot) {
    let hits = snap.counter("agg.combine_hits").unwrap_or(0);
    let flushes = snap.counter("agg.combine_flushes").unwrap_or(0);
    if flushes == 0 {
        return;
    }
    println!(
        "  combining: {} adds merged into {flushes} wire commands ({:.1} adds/cmd)",
        hits + flushes,
        (hits + flushes) as f64 / flushes as f64
    );
}

/// Batched helper datapath effectiveness: same-segment run lengths,
/// segments resolved per buffer, and RMWs saved by same-offset merging.
fn print_batching(snap: &MetricsSnapshot) {
    let buffers = snap.counter("helper.batch.buffers").unwrap_or(0);
    if buffers == 0 {
        return;
    }
    print!("  batching: {buffers} buffers");
    if let Some(h) = snap.histogram("helper.batch.run_len") {
        print!(", run lens");
        print_hist_buckets(h);
    }
    if let Some(h) = snap.histogram("helper.batch.segments_per_buffer") {
        print!(", segments/buffer");
        print_hist_buckets(h);
    }
    let merged = snap.counter("helper.batch.rmw_merged").unwrap_or(0);
    println!(", rmw merged {merged}");
}

/// Prints one histogram's non-empty buckets as ` <=b:count` pairs.
fn print_hist_buckets(hist: &gmt_core::HistogramSnapshot) {
    for (i, &c) in hist.counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        match hist.bounds.get(i) {
            Some(b) => print!(" <={b}:{c}"),
            None => print!(" >{}:{c}", hist.bounds.last().unwrap()),
        }
    }
}

/// Command execution rates by opcode (helpers' view).
fn print_rates(snap: &MetricsSnapshot, elapsed_s: f64) {
    let cmds: Vec<&(String, u64)> =
        snap.counters.iter().filter(|(n, v)| n.starts_with("helper.cmd.") && *v > 0).collect();
    if cmds.is_empty() {
        println!("  commands executed: none");
        return;
    }
    let total: u64 = cmds.iter().map(|(_, v)| v).sum();
    print!("  commands executed ({:.0}/s):", total as f64 / elapsed_s);
    for (name, v) in cmds {
        print!(" {}={v}", name.trim_start_matches("helper.cmd."));
    }
    println!();
}

/// Wire-level traffic and reliability behaviour.
fn print_comm(snap: &MetricsSnapshot) {
    println!(
        "  comm: {} buffers / {} B out, {} buffers / {} B in; retransmits {}, acks piggybacked \
         {} standalone {}, dedup hits {}, connections lost {}",
        snap.counter("comm.buffers_sent").unwrap_or(0),
        snap.counter("comm.bytes_sent").unwrap_or(0),
        snap.counter("comm.buffers_recv").unwrap_or(0),
        snap.counter("comm.bytes_recv").unwrap_or(0),
        snap.counter("reliable.retransmits").unwrap_or(0),
        snap.counter("reliable.acks_piggybacked").unwrap_or(0),
        snap.counter("reliable.acks_standalone").unwrap_or(0),
        snap.counter("reliable.dedup_hits").unwrap_or(0),
        snap.counter("net.conn_lost").unwrap_or(0),
    );
    print_shm(snap);
}

/// Shared-memory ring behaviour (`net.shm.*`), printed only when the
/// node actually ran on the shm transport — every counter is zero (or
/// absent) otherwise.
fn print_shm(snap: &MetricsSnapshot) {
    let full_waits = snap.counter("net.shm.full_waits").unwrap_or(0);
    let watermark = snap.counter("net.shm.ring_occ_watermark_bytes").unwrap_or(0);
    let occ: Vec<u64> =
        (0..8).map(|b| snap.counter(&format!("net.shm.ring_occ_bucket{b}")).unwrap_or(0)).collect();
    if full_waits + watermark + occ.iter().sum::<u64>() == 0 {
        return;
    }
    print!(
        "  shm: full-ring waits {full_waits}, ring occupancy watermark {watermark} B, \
         occupancy octiles ["
    );
    for (i, v) in occ.iter().enumerate() {
        print!("{}{v}", if i == 0 { "" } else { " " });
    }
    println!("]");
}

/// Flow-control watermarks: window occupancy at stamp time, the unacked
/// high-water mark, backpressure events and buffers held at the window.
fn print_flow(snap: &MetricsSnapshot) {
    let holds = snap.counter("net.flow.holds").unwrap_or(0);
    let events = snap.counter("net.flow.backpressure_events").unwrap_or(0);
    let watermark = snap.gauge("net.flow.unacked_watermark").unwrap_or(0);
    print!(
        "  flow: unacked watermark {watermark}, {events} backpressure event(s), {holds} hold(s)"
    );
    if let Some(h) = snap.histogram("net.flow.window") {
        if h.count() > 0 {
            print!(", window occupancy");
            print_hist_buckets(h);
        }
    }
    let dry = snap.counter("agg.pool_dry_waits").unwrap_or(0);
    let deferrals = snap.counter("watchdog.backpressure_deferrals").unwrap_or(0);
    println!("; pool dry waits {dry}, watchdog deferrals {deferrals}");
}
