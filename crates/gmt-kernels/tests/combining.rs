//! Correctness of merge-at-source command combining on real kernels.
//!
//! Combining rewrites the wire traffic — several fire-and-forget adds
//! become one `AddN`, several acks become one `AckN` — but must never
//! change program results. These tests run the kernels whose inner loops
//! ride the combining path (PageRank's edge scatter, CHMA's counter
//! scatter) with the combining table on and off, on clean and on
//! adversarial fabrics, and assert bit-identical outcomes: a merged
//! delta applied twice (or a token completed twice) would show up as a
//! wrong rank sum or counter total immediately.

mod common;

use common::{assert_pools_whole, pool_handles};
use gmt_core::{Cluster, Config};
use gmt_graph::{uniform_random, DistGraph, GraphSpec};
use gmt_kernels::chma::{
    fnv1a, gmt_chma_access, gmt_chma_populate, pool_string, ChmaConfig, ChmaResult, GmtHashMap,
};
use gmt_kernels::pagerank::{gmt_pagerank, PageRankConfig};
use gmt_net::{seed_from_env, FaultPlan};
use std::collections::HashMap;

/// Fixed-point ranks out of the runtime, before the f64 conversion —
/// bit-exact comparison needs the integer representation.
fn run_pagerank(cluster: &Cluster) -> Vec<u64> {
    let csr = uniform_random(GraphSpec { vertices: 120, avg_degree: 5, seed: 2026 });
    let r = cluster.node(0).run(move |ctx| {
        let g = DistGraph::from_csr(ctx, &csr);
        let r = gmt_pagerank(ctx, &g, PageRankConfig { damping: 0.85, iterations: 8 });
        g.free(ctx);
        r
    });
    r.iter().map(|x| x.to_bits()).collect()
}

/// A CHMA configuration whose totals are *schedule-independent*, which
/// the stock `ChmaConfig::tiny()` is not: when two different pool
/// strings hash to one slot, which string wins the populate CAS race —
/// and therefore which later probes hit — depends on task timing, so a
/// run-to-run comparison would flake with or without combining. This
/// config's pool strings and all their reversals occupy pairwise
/// distinct slots (checked by `assert_chma_config_is_deterministic`),
/// making every CAS uncontended and the totals a pure function of the
/// config.
fn chma_cfg() -> ChmaConfig {
    ChmaConfig { entries: 65536, pool: 128, tasks: 8, steps: 16, seed: 1 }
}

/// Verifies the collision-freedom precondition of [`chma_cfg`]: any two
/// strings in pool ∪ reverse(pool) sharing a slot are byte-identical.
fn assert_chma_config_is_deterministic(cfg: &ChmaConfig) {
    let mut owner: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..cfg.pool {
        let p = pool_string(cfg.seed, i);
        let mut r = p.clone();
        r.reverse();
        for s in [p, r] {
            let slot = fnv1a(&s) % cfg.entries;
            match owner.get(&slot) {
                Some(prev) => assert_eq!(
                    prev, &s,
                    "slot {slot} contested: CHMA totals would be timing-dependent"
                ),
                None => {
                    owner.insert(slot, s);
                }
            }
        }
    }
}

fn run_chma(cluster: &Cluster) -> (u64, ChmaResult) {
    cluster.node(0).run(|ctx| {
        let cfg = chma_cfg();
        let map = GmtHashMap::alloc(ctx, cfg.entries);
        let inserted = gmt_chma_populate(ctx, &map, &cfg);
        let result = gmt_chma_access(ctx, &map, &cfg);
        map.free(ctx);
        (inserted, result)
    })
}

/// PageRank's scatter is pure fire-and-forget adds: combining on must
/// produce bit-identical fixed-point ranks to combining off (i64 adds
/// commute and associate exactly, unlike floats).
#[test]
fn pagerank_is_bit_identical_with_combining_on_and_off() {
    let on = Cluster::start(3, Config::small()).unwrap();
    assert!(on.node(0).shared().config.combine_window > 0, "combining should default on");
    let with = run_pagerank(&on);
    on.shutdown();

    let off = Cluster::start(3, Config { combine_window: 0, ..Config::small() }).unwrap();
    let without = run_pagerank(&off);
    off.shutdown();

    assert_eq!(with, without, "combining changed PageRank results");
}

/// CHMA's populate and access phases funnel per-task tallies through hot
/// counter cells on the non-blocking path; totals must not move when
/// those adds merge.
#[test]
fn chma_totals_are_identical_with_combining_on_and_off() {
    assert_chma_config_is_deterministic(&chma_cfg());
    let on = Cluster::start(2, Config::small()).unwrap();
    let with = run_chma(&on);
    on.shutdown();

    let off = Cluster::start(2, Config { combine_window: 0, ..Config::small() }).unwrap();
    let without = run_chma(&off);
    off.shutdown();

    assert_eq!(with, without, "combining changed CHMA totals");
    assert_eq!(with.1.accesses, chma_cfg().tasks * chma_cfg().steps);
}

/// The critical interaction: a retransmitted aggregation buffer carries
/// the *merged* delta as one command, so receiver-side dedup must apply
/// it exactly once — a double-apply of an `AddN` worth k adds would skew
/// the rank mass by k shares at once. Run PageRank under drops, flaps
/// and duplication with combining on and demand bit-identical ranks to
/// the clean combining-off run.
#[test]
fn combined_adds_survive_faults_without_double_apply() {
    let seed = seed_from_env(0xADD5);
    eprintln!("[combining] combined_adds_survive_faults_without_double_apply seed={seed}");

    let clean = Cluster::start(3, Config { combine_window: 0, ..Config::small() }).unwrap();
    let expected = run_pagerank(&clean);
    clean.shutdown();

    let cluster = Cluster::start_sim(3, Config::small()).unwrap();
    cluster.install_faults(
        FaultPlan::new(seed)
            .drop_all(0.05)
            .flap_period(1, 2, 10_000_000, 2_000_000)
            .dup(2, 1, 0.02),
    );
    let aggs = pool_handles(&cluster);
    let got = run_pagerank(&cluster);
    assert_eq!(got, expected, "combined adds double-applied or lost under faults (seed {seed})");

    for i in 0..cluster.nodes() {
        assert_eq!(cluster.node(i).stuck_tasks(), 0, "node {i} has stuck tasks (seed {seed})");
        assert!(cluster.node(i).dead_peers().is_empty(), "node {i} declared peers dead");
    }
    let total = cluster.net_stats().total();
    assert!(total.dropped_msgs > 0, "fault plan never dropped a packet (seed {seed})");
    let repaired = (0..cluster.nodes()).any(|i| cluster.node(i).metrics().retransmits.sum() > 0);
    assert!(repaired, "loss was never repaired by retransmission (seed {seed})");
    cluster.shutdown();
    assert_pools_whole(&aggs);
}

/// Same adversarial fabric over CHMA: vectorized acks and merged
/// counter bumps under duplication — totals must match the clean run.
#[test]
fn chma_under_faults_matches_clean_run_with_combining_on() {
    let seed = seed_from_env(0xC4A);
    eprintln!("[combining] chma_under_faults_matches_clean_run_with_combining_on seed={seed}");

    assert_chma_config_is_deterministic(&chma_cfg());
    let clean = Cluster::start(2, Config::small()).unwrap();
    let expected = run_chma(&clean);
    clean.shutdown();

    let cluster = Cluster::start_sim(2, Config::small()).unwrap();
    cluster.install_faults(FaultPlan::new(seed).drop_all(0.08).dup_all(0.10));
    let aggs = pool_handles(&cluster);
    let got = run_chma(&cluster);
    assert_eq!(got, expected, "CHMA totals diverged under faults (seed {seed})");
    let total = cluster.net_stats().total();
    assert!(total.dropped_msgs > 0, "fault plan never dropped a packet (seed {seed})");
    cluster.shutdown();
    assert_pools_whole(&aggs);
}
