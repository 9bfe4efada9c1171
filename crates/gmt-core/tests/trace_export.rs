//! End-to-end trace export: run with `GMT_TRACE` set — an in-process
//! cluster, then one `NodeRuntime` per node as `gmt-launch` boots them —
//! and validate the Chrome `trace_event` documents left behind; then with
//! the variable unset, that nothing is written.
//!
//! Lives in its own integration-test binary because it sets a process
//! environment variable the runtime reads at boot; no other test shares
//! this process, and the cases run as one test so they cannot interleave.

use gmt_core::{Cluster, Config, Distribution, NodeHandle, NodeRuntime, SpawnPolicy, Transport};
use gmt_metrics::json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn put_storm(node: &NodeHandle) {
    node.run(|ctx| {
        let arr = ctx.alloc(256 * 8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, 256, 16, move |ctx, i| {
            ctx.put_value::<u64>(&arr, i, i).unwrap();
        });
        ctx.free(arr);
    });
}

fn listing(dir: &Path) -> BTreeSet<PathBuf> {
    std::fs::read_dir(dir).map_or(BTreeSet::new(), |d| d.map(|e| e.unwrap().path()).collect())
}

/// Checks one exported document — every event well-formed, `ts` monotone
/// per lane — and returns how many lanes it names and the pids of its
/// data events.
fn check_trace(path: &Path) -> (usize, BTreeSet<u64>) {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    let v = json::parse(&text).expect("trace JSON parses");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");

    let mut lanes = 0;
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph present");
        if ph == "M" {
            // One thread_name metadata event per lane.
            lanes += usize::from(e.get("name").and_then(|n| n.as_str()) == Some("thread_name"));
            continue;
        }
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        let pid = e.get("pid").and_then(|p| p.as_u64()).expect("pid");
        let tid = e.get("tid").and_then(|t| t.as_u64()).expect("tid");
        let ts = e.get("ts").and_then(|t| t.as_f64()).expect("ts");
        if ph == "X" {
            assert!(e.get("dur").and_then(|d| d.as_f64()).is_some(), "spans carry dur");
        }
        if let Some(prev) = last_ts.insert((pid, tid), ts) {
            assert!(ts >= prev, "ts regressed within lane ({pid},{tid})");
        }
    }
    assert!(!last_ts.is_empty(), "a put storm must leave events in {}", path.display());
    (lanes, last_ts.keys().map(|&(pid, _)| pid).collect())
}

#[test]
fn traces_are_written_exactly_when_gmt_trace_is_set() {
    let dir = std::env::temp_dir().join(format!("gmt-trace-test-{}", std::process::id()));
    let config = Config::small();
    let lanes_per_node = config.num_workers + config.num_helpers + 1;
    let run_cluster = || {
        let cluster = Cluster::start(2, config.clone()).unwrap();
        put_storm(cluster.node(0));
        cluster.shutdown();
    };

    // A cluster leaves one document: every node's lanes, pid = node id.
    std::env::set_var("GMT_TRACE", format!("chrome:{}", dir.display()));
    run_cluster();
    let after_cluster = listing(&dir);
    assert_eq!(after_cluster.len(), 1, "one trace per cluster: {after_cluster:?}");
    let (lanes, pids) = check_trace(after_cluster.first().unwrap());
    assert_eq!(lanes, 2 * lanes_per_node);
    assert!(pids.iter().all(|&pid| pid < 2), "pid is a node id: {pids:?}");

    // Node runtimes (one per process under gmt-launch, here sharing one)
    // leave a document each, holding that node's lanes only.
    let mesh = gmt_net::loopback_mesh(2).expect("loopback mesh");
    let runtimes: Vec<NodeRuntime> = mesh
        .into_iter()
        .map(|t| NodeRuntime::start(Arc::new(t) as Arc<dyn Transport>, config.clone()).unwrap())
        .collect();
    put_storm(runtimes[0].node());
    runtimes.into_iter().for_each(NodeRuntime::shutdown);
    let after_nodes = listing(&dir);
    let mut node_pids = BTreeSet::new();
    for path in after_nodes.difference(&after_cluster) {
        let (lanes, pids) = check_trace(path);
        assert_eq!(lanes, lanes_per_node, "{}", path.display());
        assert_eq!(pids.len(), 1, "a node's trace names one pid: {pids:?}");
        node_pids.extend(pids);
    }
    assert_eq!(node_pids, BTreeSet::from([0, 1]), "one trace per node, pid = node id");
    assert_eq!(after_nodes.len(), 3);

    // Unset: the same run writes nothing.
    std::env::remove_var("GMT_TRACE");
    run_cluster();
    assert_eq!(listing(&dir), after_nodes, "a trace was written with GMT_TRACE unset");
    let _ = std::fs::remove_dir_all(&dir);
}
