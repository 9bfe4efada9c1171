//! Group B: ceilings. One layer driven alone, in the same pinned regime
//! as the workloads — "the maximum of operations that are theoretically
//! possible" for that layer, against which a workload's figure is read.
//!
//! Tier U, here, uses the user-level API only. Tier I (`adapters.rs`)
//! calls public functions of single layers and sits behind the cargo
//! feature `internal-ceilings`, so a refactor that moves those functions
//! loses those metrics, not the benchmark.

use crate::gen::Rng;
use crate::json::Json;
use crate::layers::{CEILINGS_INTERNAL, CEILINGS_USER};
use crate::stats::median;
use crate::trace::Trace;
use crate::workloads::{
    bench_config, bfs_graph, now_ns, traversed_edges, BFS_DEGREE, BFS_VERTICES,
};
use gmt_core::{Cluster, Distribution, SpawnPolicy};
use std::sync::Arc;

/// Timed batches per ceiling; the figure is their median.
const BATCHES: usize = 30;
/// Untimed batches first, so caches fill and lazy set-up finishes.
const WARM_UP_BATCHES: usize = 3;

/// Times batches of one layer's work; every batch is one span.
pub struct Bench {
    trace: Trace,
    root_span: u64,
    batches: usize,
    results: Vec<(&'static str, f64)>,
}

impl Bench {
    fn new(check: bool) -> Self {
        let mut trace = Trace::default();
        let root_span = trace.open("ceilings", None, 0);
        Bench { trace, root_span, batches: if check { 2 } else { BATCHES }, results: Vec::new() }
    }

    /// Median nanoseconds per unit over the timed batches of `batch`,
    /// which does a batch of work and returns how many units it did.
    pub fn ns_per_unit(&mut self, span: &'static str, mut batch: impl FnMut() -> u64) -> f64 {
        self.ns_per_unit_prepared(span, || (), |()| batch())
    }

    /// [`Bench::ns_per_unit`] for a batch that consumes an input:
    /// `prepare` builds it outside the timed span.
    pub fn ns_per_unit_prepared<P>(
        &mut self,
        span: &'static str,
        mut prepare: impl FnMut() -> P,
        mut batch: impl FnMut(P) -> u64,
    ) -> f64 {
        for _ in 0..WARM_UP_BATCHES.min(self.batches) {
            batch(prepare());
        }
        let per_unit: Vec<f64> = (0..self.batches as u64)
            .map(|i| {
                let input = prepare();
                let start_ns = now_ns();
                let units = batch(input);
                let end_ns = now_ns();
                self.trace.add(span, Some(i), self.root_span, start_ns, end_ns);
                (end_ns - start_ns) as f64 / units as f64
            })
            .collect();
        median(&per_unit)
    }

    pub fn report(&mut self, metric: &'static str, value: f64) {
        self.results.push((metric, value));
    }
}

fn user_ceilings(bench: &mut Bench, seed: u64) -> Result<(), String> {
    let cluster = Cluster::start_sim(1, bench_config())?;
    let node = cluster.node(0);

    const YIELD_TASKS: u64 = 64;
    const YIELDS_PER_TASK: u64 = 256;
    let ns = bench.ns_per_unit("yield_storm", || {
        node.run(|ctx| {
            ctx.parfor(SpawnPolicy::Local, YIELD_TASKS, 1, |ctx, _| {
                for _ in 0..YIELDS_PER_TASK {
                    ctx.yield_now();
                }
            });
        });
        YIELD_TASKS * YIELDS_PER_TASK
    });
    bench.report("context.ceil.yield_ns", ns);

    const SPAWNS: u64 = 4096;
    let ns = bench.ns_per_unit("empty_parfor", || {
        node.run(|ctx| ctx.parfor(SpawnPolicy::Local, SPAWNS, 1, |_, _| {}));
        SPAWNS
    });
    bench.report("worker.ceil.spawn_ns", ns);

    // Everything a put/get costs except aggregation and the wire.
    const LOCAL_OPS: u64 = 8192;
    const LOCAL_ELEMS: u64 = 1 << 16;
    let arr = node.run(|ctx| ctx.alloc(LOCAL_ELEMS * 8, Distribution::Local));
    let mut rng = Rng::new(seed, "local-ops", 0);
    let elems: Arc<Vec<u64>> = Arc::new((0..LOCAL_OPS).map(|_| rng.below(LOCAL_ELEMS)).collect());
    let ns = bench.ns_per_unit("local_put_get", || {
        let elems = Arc::clone(&elems);
        node.run(move |ctx| {
            for (i, &at) in elems.iter().enumerate() {
                if i % 2 == 0 {
                    ctx.put_value::<u64>(&arr, at, i as u64).expect("local put");
                } else {
                    std::hint::black_box(ctx.get_value::<u64>(&arr, at).expect("local get"));
                }
            }
        });
        LOCAL_OPS
    });
    bench.report("api.ceil.local_op_ns", ns);
    node.run(move |ctx| ctx.free(arr));
    cluster.shutdown();

    // The plain single-thread baseline bfs_shm's ops_per_s is read against.
    let csr = bfs_graph(seed, BFS_VERTICES, BFS_DEGREE);
    let mut sources = Rng::new(seed, "seq-bfs", 0);
    let ns_per_edge = bench.ns_per_unit("sequential_bfs", || {
        let levels = csr.bfs_levels(sources.below(BFS_VERTICES));
        traversed_edges(&csr, std::hint::black_box(&levels))
    });
    bench.report("bfs.seq_ref_edges_per_s", 1e9 / ns_per_edge);
    Ok(())
}

/// Runs every ceiling and returns `{"ceilings": {name: value | null}}`;
/// tier-I names are `null` when the feature is compiled out.
pub fn run_ceilings(seed: u64, check: bool, out_dir: &std::path::Path) -> Result<Json, String> {
    let mut bench = Bench::new(check);
    user_ceilings(&mut bench, seed)?;
    #[cfg(feature = "internal-ceilings")]
    crate::adapters::internal_ceilings(&mut bench)?;
    bench.trace.close(bench.root_span);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
    let path = out_dir.join("trace-ceilings.json");
    std::fs::write(&path, bench.trace.to_chrome_json("ceilings"))
        .map_err(|e| format!("writing {path:?}: {e}"))?;

    let value = |name: &str| bench.results.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
    let ceilings =
        CEILINGS_USER.iter().chain(&CEILINGS_INTERNAL).map(|m| (m.name, Json::opt(value(m.name))));
    Ok(Json::obj([
        ("ceilings", Json::obj(ceilings)),
        ("internal_ceilings", Json::Bool(cfg!(feature = "internal-ceilings"))),
    ]))
}
