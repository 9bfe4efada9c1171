//! Cluster-wide failure detection, membership convergence and graceful
//! degradation, end to end.
//!
//! These tests kill nodes (blackhole: the victim's packets neither leave
//! nor arrive) and assert the survivors converge on an *identical*
//! membership view, that in-flight collectives fail with
//! `GmtError::RemoteDead` instead of hanging, and that degraded-mode
//! primitives (alloc/free/parfor) keep working over the survivors.
//!
//! Every test derives its fault seed via [`gmt_net::seed_from_env`]
//! (`GMT_FAULT_SEED`) and prints it for replay. Tests honoring
//! `GMT_METRICS_OUT` write one metrics snapshot per survivor there, so a
//! CI failure ships the evidence as an artifact.
//!
//! The whole suite is transport-generic: clusters boot via
//! [`Cluster::start`] (honoring `GMT_TRANSPORT`) and faults install via
//! [`Cluster::install_faults`], which reaches the sim fabric's wire
//! thread or every TCP/shm transport's frame shim as appropriate. On
//! the sim a kill blackholes the victim; over TCP it also severs the
//! victim's streams, and over shm its rings, so the same assertions
//! double as coverage for the connection-loss evidence path. (The
//! remaining shm evidence source — a SIGKILLed *process* detected via
//! its pid — is cross-process by nature and covered by the gmt-launch
//! `--kill` CI job.)

mod common;

use common::{assert_pools_whole, pool_handles};
use gmt_core::collectives::GlobalBarrier;
use gmt_core::task::RootTask;
use gmt_core::{Cluster, Config, Distribution, GmtError, SpawnPolicy};
use gmt_graph::{uniform_random, DistGraph, GraphSpec};
use gmt_kernels::bfs::gmt_bfs;
use gmt_net::{seed_from_env, FaultPlan, NodeId};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Polls until every survivor's membership equals `expected_dead` (same
/// set, same epoch on every survivor) or the budget runs out. Returns
/// the time convergence took.
fn await_convergence(
    cluster: &Cluster,
    expected_dead: &[NodeId],
    budget: Duration,
    seed: u64,
) -> Duration {
    let survivors: Vec<NodeId> =
        (0..cluster.nodes()).filter(|n| !expected_dead.contains(n)).collect();
    let start = Instant::now();
    loop {
        let converged = survivors.iter().all(|&s| {
            cluster.node(s).dead_peers() == expected_dead
                && cluster.node(s).membership_epoch() == expected_dead.len() as u64
        });
        if converged {
            return start.elapsed();
        }
        if start.elapsed() > budget {
            for &s in &survivors {
                eprintln!(
                    "[membership] node {s}: dead={:?} epoch={}",
                    cluster.node(s).dead_peers(),
                    cluster.node(s).membership_epoch()
                );
            }
            panic!(
                "survivors did not converge on {expected_dead:?} within {budget:?} (seed {seed})"
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drops one metrics snapshot per survivor under `GMT_METRICS_OUT`, if
/// set, so CI can upload them as failure artifacts.
fn write_metrics_artifacts(cluster: &Cluster, dead: &[NodeId], tag: &str) {
    for i in (0..cluster.nodes()).filter(|n| !dead.contains(n)) {
        cluster.node(i).write_metrics_out(tag);
    }
}

/// A detector configuration for kill tests: deaths are confirmed by
/// observing the kill (fabric observation on the sim, plan plus
/// connection-loss evidence over TCP — fast, deterministic); the silence
/// timeout is pushed far out so a busy CI host cannot false-positive a
/// survivor.
fn kill_config() -> Config {
    Config { peer_death_timeout_ns: 10_000_000_000, ..Config::small() }
}

/// Tentpole acceptance: kill 2 of 8 nodes under an in-flight collective.
/// Every survivor converges on the identical `{3, 6}` dead set and epoch,
/// the spinning barrier wait returns `Err(RemoteDead)` on a survivor
/// (never hangs), degraded alloc/parfor/free work over the survivors,
/// and the pools are whole after shutdown.
#[test]
fn eight_node_kill_converges_membership_and_fails_collectives() {
    let seed = seed_from_env(0x8DEA);
    eprintln!(
        "[membership] eight_node_kill_converges_membership_and_fails_collectives seed={seed}"
    );

    let cluster = Cluster::start(8, kill_config()).unwrap();
    let aggs = pool_handles(&cluster);

    // A two-party barrier with a single arrival: it can only complete if
    // a second party ever shows up — which the kill below makes
    // impossible. The waiter must then error out, not spin forever.
    let bar = cluster.node(0).run(|ctx| GlobalBarrier::new(ctx, 2));
    let (tx, rx) = mpsc::channel();
    cluster.node(0).shared().root_queue.push(RootTask {
        f: Box::new(move |ctx| {
            let _ = tx.send(bar.wait(ctx));
        }),
    });
    // Let the waiter reach its spin loop before the network degrades.
    std::thread::sleep(Duration::from_millis(50));

    cluster.install_faults(FaultPlan::new(seed).kill(3).kill(6));
    let dead = vec![3usize, 6usize];

    let took = await_convergence(&cluster, &dead, Duration::from_secs(30), seed);
    eprintln!("[membership] survivors converged in {took:?}");

    let waited =
        rx.recv_timeout(Duration::from_secs(30)).expect("barrier wait hung after peer death");
    assert!(
        matches!(waited, Err(GmtError::RemoteDead { .. })),
        "barrier wait on a degraded cluster returned {waited:?} (seed {seed})"
    );

    // Degraded-mode liveness: allocation skips the dead, a partitioned
    // parFor redistributes their share, and free swallows (and counts)
    // what can no longer be released.
    let (skipped, failed) = cluster.node(0).run(move |ctx| {
        let arr = ctx.alloc(64 * 8, Distribution::Partition);
        let report = ctx.parfor_report(SpawnPolicy::Partition, 64, 4, move |ctx, i| {
            // Touch only extents owned by survivors: elements map to
            // nodes in 8-element blocks (64*8 bytes over 8 nodes).
            let owner = (i / 8) as usize;
            if owner != 3 && owner != 6 {
                ctx.put_value::<u64>(&arr, i, i).unwrap();
            }
        });
        ctx.free(arr);
        (report.skipped_nodes.clone(), report.failed)
    });
    assert_eq!(skipped, dead, "parfor_report did not skip the dead (seed {seed})");
    assert_eq!(failed, 0, "parfor over survivors lost iterations (seed {seed})");
    let snap = cluster.node(0).metrics_snapshot();
    assert!(
        snap.counter("free.remote_dead_swallowed").unwrap_or(0) >= 2,
        "gmt_free toward the two dead peers was not counted (seed {seed})"
    );
    for &s in &[0usize, 1, 2, 4, 5, 7] {
        let snap = cluster.node(s).metrics_snapshot();
        assert_eq!(
            snap.counter("detector.epoch_bumps"),
            Some(2),
            "node {s} epoch-bump count (seed {seed})"
        );
    }

    write_metrics_artifacts(&cluster, &dead, "kill-acceptance");
    cluster.shutdown();
    assert_pools_whole(&aggs);
}

/// Pure-silence path: a peer behind a silent partition — every frame
/// between it and the others dropped, which no backend reports as a link
/// going down — is confirmed dead by the heartbeat/silence timer alone,
/// and both survivors converge (notice dissemination included). The
/// partitioned node stays alive and reaches its own verdict about the
/// others, which nobody hears.
#[test]
fn silent_peer_is_confirmed_dead_by_heartbeat_timeout() {
    let seed = seed_from_env(0x51E7);
    eprintln!("[membership] silent_peer_is_confirmed_dead_by_heartbeat_timeout seed={seed}");

    let config = Config { peer_death_timeout_ns: 400_000_000, ..Config::small() };
    let cluster = Cluster::start(3, config).unwrap();
    // Allocated while everyone is alive: element i lives on node i.
    let doomed = cluster.node(0).run(|ctx| ctx.alloc(3 * 8, Distribution::Partition));
    cluster.install_faults(
        FaultPlan::new(seed).drop(2, 0, 1.0).drop(0, 2, 1.0).drop(2, 1, 1.0).drop(1, 2, 1.0),
    );

    let dead = vec![2usize];
    let took = await_convergence(&cluster, &dead, Duration::from_secs(20), seed);
    eprintln!("[membership] silence death confirmed in {took:?}");

    // An array placed before the death keeps its layout: operations
    // against the dead node's extent fail fast now.
    let err = cluster.node(0).run(move |ctx| {
        let r = ctx.put_value::<u64>(&doomed, 2, 7);
        ctx.free(doomed);
        r
    });
    assert!(
        matches!(err, Err(GmtError::RemoteDead { node: 2, .. })),
        "op against silent-dead peer returned {err:?} (seed {seed})"
    );

    // An array allocated after convergence maps blocks over the
    // survivors only — every element is reachable and exact.
    let sum = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(3 * 8, Distribution::Partition);
        for i in 0..3u64 {
            ctx.put_value::<u64>(&arr, i, i + 10).unwrap();
        }
        let sum: u64 = (0..3).map(|i| ctx.get_value::<u64>(&arr, i).unwrap()).sum();
        ctx.free(arr);
        sum
    });
    assert_eq!(sum, 33, "degraded alloc lost writes (seed {seed})");
    cluster.shutdown();
}

/// Watchdog escalation: a silent partition is undetectable while the test
/// runs — no backend reports a dropped frame as a link going down, and a
/// 60 s death timeout outlasts the test, so silence confirms no death
/// either. Only the operation deadline bounds the wait:
/// `get_value_deadline` must return `Err(DeadlineExceeded)` instead of
/// hanging, and local work must still run afterwards.
#[test]
fn deadline_bounds_the_wait_when_detection_is_impossible() {
    let seed = seed_from_env(0xDD11);
    eprintln!("[membership] deadline_bounds_the_wait_when_detection_is_impossible seed={seed}");

    // op_deadline_ns also tightens the watchdog sweep period (deadline/4).
    let config = Config {
        op_deadline_ns: 2_000_000_000,
        peer_death_timeout_ns: 60_000_000_000,
        ..Config::small()
    };
    let cluster = Cluster::start(2, config).unwrap();
    // Elements 16..32 live on node 1 (32*8 bytes partitioned over 2).
    let arr = cluster.node(0).run(|ctx| ctx.alloc(32 * 8, Distribution::Partition));

    cluster.install_faults(FaultPlan::new(seed).drop(0, 1, 1.0).drop(1, 0, 1.0));

    let (tx, rx) = mpsc::channel();
    cluster.node(0).shared().root_queue.push(RootTask {
        f: Box::new(move |ctx| {
            // Tighter per-call deadline overrides the config-wide one.
            let first = ctx.get_value_deadline::<u64>(&arr, 20, 300_000_000);
            // The abandoned straggler can never complete behind the
            // partition, so this task is now *poisoned*: every later
            // blocking wait on it errs within a bounded time instead of
            // hanging — even a local read (the wait still covers the
            // zombie op).
            let poisoned = ctx.get_value::<u64>(&arr, 3);
            let _ = tx.send((first, poisoned));
        }),
    });
    let (first, poisoned) =
        rx.recv_timeout(Duration::from_secs(30)).expect("deadline never fired: wait hung");
    assert!(
        matches!(first, Err(GmtError::DeadlineExceeded { pending }) if pending >= 1),
        "expected DeadlineExceeded, got {first:?} (seed {seed})"
    );
    assert!(
        matches!(poisoned, Err(GmtError::DeadlineExceeded { .. })),
        "poisoned-task wait must stay bounded, got {poisoned:?} (seed {seed})"
    );
    // The node itself is not poisoned: a fresh task reads local data fine.
    let local = cluster.node(0).run(move |ctx| ctx.get_value::<u64>(&arr, 3).unwrap());
    assert_eq!(local, 0, "local read from a fresh task (seed {seed})");
    let snap = cluster.node(0).metrics_snapshot();
    assert!(
        snap.counter("watchdog.deadline_expired").unwrap_or(0) >= 1,
        "watchdog never counted the expiry (seed {seed})"
    );
    // The link kept retrying into the partition and declared nothing.
    assert!(cluster.node(0).dead_peers().is_empty(), "a death was confirmed (seed {seed})");
    assert!(
        snap.counter("reliable.retransmits").unwrap_or(0) > 0,
        "no retransmit into the partition (seed {seed})"
    );
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// Randomized soak + CI kill matrix (ignored by default; CI runs them
// explicitly with `--ignored`).
// ---------------------------------------------------------------------

/// Tiny deterministic generator so soak randomness replays from the seed.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One kill scenario: 8 nodes, a BFS in flight plus a doomed two-party
/// barrier, `victims` killed after `delay`; asserts no hang (60 s hard
/// budget on every join), survivor convergence, and whole pools.
fn kill_scenario(tag: &str, seed: u64, victims: &[NodeId], delay: Duration) {
    eprintln!("[membership] {tag} seed={seed} victims={victims:?} delay={delay:?}");
    assert!(!victims.contains(&0), "node 0 hosts the driver tasks");
    let budget = Duration::from_secs(60);
    let cluster = Cluster::start(8, kill_config()).unwrap();
    let aggs = pool_handles(&cluster);

    let bar = cluster.node(0).run(|ctx| GlobalBarrier::new(ctx, 2));
    let (bar_tx, bar_rx) = mpsc::channel();
    cluster.node(0).shared().root_queue.push(RootTask {
        f: Box::new(move |ctx| {
            let _ = bar_tx.send(bar.wait(ctx));
        }),
    });

    // A BFS that spans every node; it may finish clean (kill landed after
    // completion), finish degraded, or panic on a lost spawn — the only
    // forbidden outcome is a hang.
    let csr = uniform_random(GraphSpec { vertices: 400, avg_degree: 4, seed });
    let (bfs_tx, bfs_rx) = mpsc::channel();
    cluster.node(0).shared().root_queue.push(RootTask {
        f: Box::new(move |ctx| {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let g = DistGraph::from_csr(ctx, &csr);
                gmt_bfs(ctx, &g, 0).visited
            }));
            let _ = bfs_tx.send(r.map_err(|_| "bfs panicked (acceptable under node loss)"));
        }),
    });

    std::thread::sleep(delay);
    let mut plan = FaultPlan::new(seed);
    for &v in victims {
        plan = plan.kill(v);
    }
    cluster.install_faults(plan);

    let mut dead: Vec<NodeId> = victims.to_vec();
    dead.sort_unstable();
    let took = await_convergence(&cluster, &dead, budget, seed);
    eprintln!("[membership] {tag}: converged in {took:?}");

    let bar_result = bar_rx.recv_timeout(budget).expect("barrier wait hung");
    assert!(
        matches!(bar_result, Err(GmtError::RemoteDead { .. })),
        "{tag}: barrier wait returned {bar_result:?} (seed {seed})"
    );
    match bfs_rx.recv_timeout(budget) {
        Ok(outcome) => eprintln!("[membership] {tag}: bfs outcome {outcome:?}"),
        Err(_) => panic!("{tag}: BFS hung past the 60 s budget (seed {seed})"),
    }

    write_metrics_artifacts(&cluster, &dead, tag);
    cluster.shutdown();
    assert_pools_whole(&aggs);
}

/// Multi-seed randomized soak: three rounds, each killing 1–2 random
/// non-root nodes at a random tick mid-run.
#[test]
#[ignore = "soak: minutes of wall clock; CI runs it in the fault-injection job"]
fn membership_soak_randomized() {
    let base = seed_from_env(0x50AC);
    for round in 0..3u64 {
        let seed = base.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = Lcg(seed);
        let nkill = 1 + (rng.next() % 2) as usize;
        let mut victims: Vec<NodeId> = Vec::new();
        while victims.len() < nkill {
            let v = 1 + (rng.next() % 7) as usize;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        let delay = Duration::from_millis(rng.next() % 50);
        kill_scenario(&format!("soak-round{round}"), seed, &victims, delay);
    }
}

#[test]
#[ignore = "CI kill matrix"]
fn membership_kill_at_start() {
    kill_scenario("kill-at-start", seed_from_env(0x0A50), &[5], Duration::ZERO);
}

#[test]
#[ignore = "CI kill matrix"]
fn membership_kill_mid_run() {
    kill_scenario("kill-mid-run", seed_from_env(0xA11D), &[4], Duration::from_millis(30));
}

#[test]
#[ignore = "CI kill matrix"]
fn membership_kill_two() {
    kill_scenario("kill-two", seed_from_env(0x2DEA), &[2, 7], Duration::from_millis(15));
}
