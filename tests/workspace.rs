//! Workspace-level integration tests: every crate working together,
//! plus the headline cross-cutting claims of the paper.

use gmt::core::{Cluster, Config, Distribution, SpawnPolicy};
use gmt::graph::{rmat, uniform_random, DistGraph, GraphSpec};
use gmt::kernels::bfs::gmt_bfs;
use gmt::kernels::bfs_mpi::{mpi_bfs, BaselineMode};
use gmt::kernels::grw::{gmt_grw, seq_grw};
use gmt::sim::{simulate, MachineParams, OpPattern, Phase};

/// GMT BFS, the MPI baseline and the sequential reference must agree on
/// the same graph — three independent implementations, one answer.
#[test]
fn three_bfs_implementations_agree() {
    let csr = uniform_random(GraphSpec { vertices: 300, avg_degree: 5, seed: 99 });
    let reference: Vec<i64> =
        csr.bfs_levels(7).iter().map(|&l| if l == u64::MAX { -1 } else { l as i64 }).collect();

    let cluster = Cluster::start(2, Config::small()).unwrap();
    let csr2 = csr.clone();
    let gmt_levels = cluster.node(0).run(move |ctx| {
        let g = DistGraph::from_csr(ctx, &csr2);
        let r = gmt_bfs(ctx, &g, 7);
        g.free(ctx);
        r.levels
    });
    cluster.shutdown();
    assert_eq!(gmt_levels, reference);

    let (mpi_levels, _) = mpi_bfs(&csr, 3, 7, BaselineMode::Aggregated);
    assert_eq!(mpi_levels, reference);
}

/// The same BFS over every transport — the sim fabric, real TCP sockets,
/// shared-memory rings — yields bit-identical levels (and the sequential
/// reference's). Pinned constructors, so this covers all three backends
/// whatever `GMT_TRANSPORT` says.
#[test]
fn bfs_is_bit_identical_over_every_transport() {
    let csr = uniform_random(GraphSpec { vertices: 200, avg_degree: 4, seed: 21 });
    let reference: Vec<i64> =
        csr.bfs_levels(3).iter().map(|&l| if l == u64::MAX { -1 } else { l as i64 }).collect();
    type Start = fn(usize, Config) -> Result<Cluster, String>;
    let backends: [(&str, Start); 3] = [
        ("sim", Cluster::start_sim),
        ("tcp-loopback", Cluster::start_tcp_loopback),
        ("shm", Cluster::start_shm),
    ];
    for (name, start) in backends {
        let cluster = start(3, Config::small()).unwrap();
        let csr = csr.clone();
        let levels = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_bfs(ctx, &g, 3);
            g.free(ctx);
            r.levels
        });
        cluster.shutdown();
        assert_eq!(levels, reference, "BFS levels over {name}");
    }
}

/// The GMT random walk matches its sequential reference bit-for-bit on a
/// power-law (RMAT) graph — the workload class the paper motivates.
#[test]
fn random_walk_on_power_law_graph() {
    let csr = rmat(GraphSpec { vertices: 512, avg_degree: 8, seed: 13 });
    let expected = seq_grw(&csr, 128, 12, 5);
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let got = cluster.node(0).run(move |ctx| {
        let g = DistGraph::from_csr(ctx, &csr);
        let r = gmt_grw(ctx, &g, 128, 12, 5);
        g.free(ctx);
        r
    });
    cluster.shutdown();
    assert_eq!(got, expected);
}

/// Headline claim, end to end on the real runtime: for the same number
/// of fine-grained puts, GMT ships far fewer (and far larger) network
/// messages than one-message-per-operation communication.
#[test]
fn aggregation_collapses_message_counts_end_to_end() {
    const OPS: u64 = 2000;
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(OPS * 8, Distribution::Remote);
        for i in 0..OPS {
            ctx.put_value_nb::<u64>(&arr, i, i);
        }
        ctx.wait_commands().unwrap();
        ctx.free(arr);
    });
    let gmt_msgs = cluster.net_stats().total().sent_msgs;
    let gmt_bytes_per_msg = cluster.net_stats().total().sent_bytes / gmt_msgs.max(1);
    cluster.shutdown();

    // One-message-per-op over the same fabric.
    use gmt::net::{DeliveryMode, Fabric};
    let fabric = Fabric::new(2, DeliveryMode::Instant);
    let ep0 = fabric.endpoint(0);
    let ep1 = fabric.endpoint(1);
    for i in 0..OPS {
        ep0.send(1, 0, i.to_le_bytes().to_vec()).unwrap();
        ep1.recv().unwrap();
    }
    let fine_msgs = fabric.stats().total().sent_msgs;

    assert!(
        fine_msgs > gmt_msgs * 10,
        "aggregation gain too small: {gmt_msgs} vs {fine_msgs} messages"
    );
    assert!(
        gmt_bytes_per_msg > 100,
        "GMT messages suspiciously small: {gmt_bytes_per_msg} bytes average"
    );
}

/// The simulator and the real runtime must agree *qualitatively*: more
/// concurrency -> more throughput (latency tolerance), and aggregation
/// beats fine-grained messaging.
#[test]
fn simulator_matches_runtime_qualitatively() {
    // DES: task sweep raises modeled bandwidth.
    let lo =
        simulate(MachineParams::gmt(), 2, Phase::one_sender(64, 16, OpPattern::remote_put(8)), 1);
    let hi =
        simulate(MachineParams::gmt(), 2, Phase::one_sender(4096, 16, OpPattern::remote_put(8)), 1);
    assert!(hi.payload_mb_s() > lo.payload_mb_s() * 2.0);

    // Real runtime: the same sweep measured by wall clock on the real
    // aggregation pipeline (instant fabric, so time is software cost).
    let throughput = |tasks: u64| {
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let ops_per_task = 8192 / tasks;
        let t = std::time::Instant::now();
        cluster.node(0).run(move |ctx| {
            let arr = ctx.alloc(8192 * 8, Distribution::Remote);
            ctx.parfor(SpawnPolicy::Local, tasks, 1, move |ctx, t| {
                for k in 0..ops_per_task {
                    ctx.put_value_nb::<u64>(&arr, t * ops_per_task + k, k);
                }
                ctx.wait_commands().unwrap();
            });
            ctx.free(arr);
        });
        let secs = t.elapsed().as_secs_f64();
        let msgs = cluster.net_stats().total().sent_msgs;
        cluster.shutdown();
        (8192.0 / secs, msgs)
    };
    let (_rate_1, msgs_low_tasks) = throughput(1);
    let (_rate_64, msgs_hi_tasks) = throughput(64);
    // With many concurrent tasks commands pile into shared buffers, so
    // message counts must not explode with task count.
    assert!(msgs_hi_tasks < msgs_low_tasks * 8, "{msgs_low_tasks} -> {msgs_hi_tasks}");
}

/// Nested parallelism across crates: a parFor whose body runs another
/// kernel-style parFor against a distributed graph.
#[test]
fn nested_parallel_graph_processing() {
    let csr = uniform_random(GraphSpec { vertices: 64, avg_degree: 4, seed: 3 });
    let expected_total: u64 = (0..64).map(|v| csr.neighbors(v).iter().sum::<u64>()).sum();
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let total = cluster.node(1).run(move |ctx| {
        let g = DistGraph::from_csr(ctx, &csr);
        let acc = ctx.alloc(8, Distribution::Partition);
        // Outer loop over 4 stripes; inner parFor over the stripe.
        ctx.parfor(SpawnPolicy::Partition, 4, 1, move |ctx, stripe| {
            ctx.parfor(SpawnPolicy::Partition, 16, 4, move |ctx, i| {
                let v = stripe * 16 + i;
                let sum: u64 = g.neighbors(ctx, v).iter().sum();
                ctx.atomic_add(&acc, 0, sum as i64).unwrap();
            });
        });
        let v = ctx.atomic_add(&acc, 0, 0).unwrap() as u64;
        ctx.free(acc);
        g.free(ctx);
        v
    });
    cluster.shutdown();
    assert_eq!(total, expected_total);
}

/// The umbrella crate re-exports compose: every sub-crate is reachable.
#[test]
fn umbrella_reexports() {
    let _ = gmt::core::Config::olympus();
    let _ = gmt::net::NetworkModel::olympus();
    let _ = gmt::sim::MachineParams::xmt();
    let _ = gmt::graph::GraphSpec { vertices: 1, avg_degree: 1, seed: 0 };
    let stack = gmt::context::Stack::new(8192).unwrap();
    assert!(stack.size() >= 8192);
}
