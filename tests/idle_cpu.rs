//! An idle node costs (almost) no CPU: its workers and helpers sleep
//! until work arrives, and its communication server sleeps until the
//! link's next timer (a heartbeat, a fortieth of the death timeout) or an
//! arrival. Over shm the server still polls its rings, so shm is not
//! measured here.
//!
//! The test reads the CPU time of this process's own threads from
//! `/proc/self/task/*/schedstat` (the first field, nanoseconds on a CPU),
//! which only Linux has; elsewhere it has nothing to read and passes.

use gmt::core::{Cluster, Config};
use std::time::{Duration, Instant};

/// Nanoseconds on a CPU summed over this process's threads, `None` where
/// `/proc` does not say.
fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread that exited since the listing has no file: skip it.
        let Ok(stat) = std::fs::read_to_string(path) else { continue };
        total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// The share of one CPU this process used while `cluster` sat idle for
/// a second, after a short settling time.
fn idle_share(cluster: Cluster) -> Option<f64> {
    // One round trip so every link has carried traffic, then let the
    // start-up and that round settle.
    cluster.node(0).run(|ctx| ctx.alloc(8, gmt::core::Distribution::Remote));
    std::thread::sleep(Duration::from_millis(100));
    let (t0, cpu0) = (Instant::now(), process_cpu_ns()?);
    std::thread::sleep(Duration::from_secs(1));
    let (cpu1, wall) = (process_cpu_ns()?, t0.elapsed());
    cluster.shutdown();
    Some(cpu1.saturating_sub(cpu0) as f64 / wall.as_nanos() as f64)
}

#[test]
fn an_idle_cluster_sleeps() {
    let config = Config { peer_death_timeout_ns: 1_000_000_000, ..Config::small() };
    let sim = idle_share(Cluster::start_sim(2, config.clone()).unwrap());
    let tcp = idle_share(Cluster::start_tcp_loopback(2, config).unwrap());
    let (Some(sim), Some(tcp)) = (sim, tcp) else {
        eprintln!("no /proc/self/task/*/schedstat here: nothing to measure");
        return;
    };
    eprintln!("idle 2-node cluster, share of one CPU: sim {sim:.4}, tcp {tcp:.4}");
    assert!(sim < 0.05, "an idle sim cluster used {:.1} % of a CPU", sim * 100.0);
    assert!(tcp < 0.05, "an idle tcp cluster used {:.1} % of a CPU", tcp * 100.0);
}
