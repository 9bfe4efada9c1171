//! The six workloads: what each runs, and how each output is verified.
//!
//! Every workload drives a 2-node in-process cluster from node 0 through
//! the user-level API only. A round is one `NodeHandle::run` call doing a
//! fixed number of ops; its inputs are generated from the seed before the
//! call and its outputs are checked against a host-side model.

use crate::gen;
use crate::procfs;
use gmt_core::{Cluster, Config, Distribution, GmtArray, NodeHandle, SpawnPolicy};
use gmt_graph::{uniform_random, Csr, DistGraph, GraphSpec};
use gmt_kernels::bfs::gmt_bfs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process; the time base of
/// every span and latency sample.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The runtime configuration every workload runs on. Only fields of the
/// paper's Table IV are named, so a change that removes another knob
/// still compiles against this file.
pub fn bench_config() -> Config {
    Config {
        num_workers: 1,
        num_helpers: 1,
        max_tasks_per_worker: 1024,
        buffer_size: 65_536,
        cmd_block_entries: 64,
        ..Config::small()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    Sim,
    Tcp,
    Shm,
}

impl Fabric {
    pub fn name(self) -> &'static str {
        match self {
            Fabric::Sim => "sim",
            Fabric::Tcp => "tcp-loopback",
            Fabric::Shm => "shm",
        }
    }

    pub fn start(self, nodes: usize, config: Config) -> Result<Cluster, String> {
        match self {
            Fabric::Sim => Cluster::start_sim(nodes, config),
            Fabric::Tcp => Cluster::start_tcp_loopback(nodes, config),
            Fabric::Shm => Cluster::start_shm(nodes, config),
        }
    }
}

/// What a workload does each round, with its frozen sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `tasks` tasks alternate blocking put and get of one slot at
    /// seeded slots; the latency unit is one put or get, sampled one op
    /// in `sample_every`.
    PutGet { tasks: u64, slots: u64, slot_bytes: usize, ops: u64, sample_every: u64 },
    /// `tasks` tasks each fire their share of `ops` non-blocking atomic
    /// adds and then wait once; the latency unit is that wait.
    ScatterAdd { tasks: u64, cells: u64, hot: u64, ops: u64 },
    /// One task follows a single-cycle permutation with dependent
    /// blocking 8-byte gets; the latency unit is one hop.
    Chase { elems: u64, hops: u64 },
    /// One `gmt_bfs` traversal from a seeded source; an op is a traversed
    /// edge and the latency unit is the traversal.
    Bfs { vertices: u64, degree: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: Fabric,
    pub shape: Shape,
}

/// The graph `bfs_shm` traverses and the sequential baseline is timed on.
pub const BFS_VERTICES: u64 = 1 << 13;
pub const BFS_DEGREE: u64 = 8;

/// The six workloads. Names are final: later issues cite them.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "blocking_small_sim",
        why:
            "1024 tasks of blocking 8 B put/get: every op costs a task switch, a reply and a \
              wake while the wire costs nothing, so task, aggregation and helper layers do the work",
        fabric: Fabric::Sim,
        shape: Shape::PutGet {
            tasks: 1024,
            slots: 1 << 16,
            slot_bytes: 8,
            ops: 1 << 18,
            sample_every: 64,
        },
    },
    Spec {
        name: "scatter_add_sim",
        why:
            "fire-and-forget atomic adds, 75% on 16 hot cells: combining and batched helper \
              apply with almost no task switches or replies, the mirror image of blocking_small_sim",
        fabric: Fabric::Sim,
        shape: Shape::ScatterAdd { tasks: 256, cells: 1 << 16, hot: 16, ops: 1 << 20 },
    },
    Spec {
        name: "bulk_copy_tcp",
        why: "32 tasks of blocking 16 KiB put/get over TCP loopback: bytes, copies and syscalls \
              dominate and per-command layers do little",
        fabric: Fabric::Tcp,
        shape: Shape::PutGet {
            tasks: 32,
            slots: 64,
            slot_bytes: 16 * 1024,
            ops: 1 << 13,
            sample_every: 1,
        },
    },
    Spec {
        name: "bulk_copy_shm",
        why: "the bulk_copy_tcp op stream over the zero-syscall shm rings: ring and copy work \
              shows here and must leave bulk_copy_tcp flat",
        fabric: Fabric::Shm,
        shape: Shape::PutGet {
            tasks: 32,
            slots: 64,
            slot_bytes: 16 * 1024,
            ops: 1 << 14,
            sample_every: 1,
        },
    },
    Spec {
        name: "chase_tcp",
        why: "one task chasing pointers with dependent 8 B gets: nothing to aggregate, every \
              buffer leaves on a timeout flush, so throughput-only tuning makes it worse",
        fabric: Fabric::Tcp,
        shape: Shape::Chase { elems: 4096, hops: 1024 },
    },
    Spec {
        name: "bfs_shm",
        why: "the paper's headline kernel: parFor spawn, iteration-block claims, CAS plus a hot \
              counter and level joins, which the storms never touch; ops_per_s/1e6 is MTEPS",
        fabric: Fabric::Shm,
        shape: Shape::Bfs { vertices: BFS_VERTICES, degree: BFS_DEGREE },
    },
];

pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The same workload with one tiny round, for `--check`.
    pub fn tiny(&self) -> Spec {
        let shape = match self.shape {
            Shape::PutGet { tasks, slots, slot_bytes, sample_every, .. } => {
                Shape::PutGet { tasks, slots, slot_bytes, ops: tasks * 4, sample_every }
            }
            Shape::ScatterAdd { tasks, cells, hot, .. } => {
                Shape::ScatterAdd { tasks, cells, hot, ops: tasks * 64 }
            }
            Shape::Chase { elems, .. } => Shape::Chase { elems, hops: 64 },
            Shape::Bfs { degree, .. } => Shape::Bfs { vertices: 256, degree },
        };
        Spec { shape, ..*self }
    }

    /// Builds the host-side inputs and loads the cluster's arrays.
    pub fn build(&self, seed: u64, node: &NodeHandle) -> Box<dyn Workload> {
        match self.shape {
            Shape::PutGet { tasks, slots, slot_bytes, ops, sample_every } => {
                Box::new(PutGet::new(seed, node, tasks, slots, slot_bytes, ops, sample_every))
            }
            Shape::ScatterAdd { tasks, cells, hot, ops } => {
                Box::new(ScatterAdd::new(seed, node, tasks, cells, hot, ops))
            }
            Shape::Chase { elems, hops } => Box::new(Chase::new(seed, node, elems, hops)),
            Shape::Bfs { vertices, degree } => Box::new(Bfs::new(seed, node, vertices, degree)),
        }
    }
}

/// One latency sample: the blocking unit's start and duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-task sample vectors. A task takes its vector when it starts,
/// pushes without synchronisation and puts it back when it ends, so
/// recording costs two uncontended locks per task and round, and the
/// vectors keep their capacity from round to round.
pub struct Lanes {
    lanes: Vec<Mutex<Vec<Sample>>>,
    /// Record one blocking unit in this many; 1 when tracing.
    pub sample_every: u64,
}

impl Lanes {
    pub fn new(tasks: u64, sample_every: u64) -> Arc<Self> {
        Arc::new(Lanes {
            lanes: (0..tasks).map(|_| Mutex::new(Vec::new())).collect(),
            sample_every: sample_every.max(1),
        })
    }

    fn take(&self, task: u64) -> Vec<Sample> {
        std::mem::take(&mut *self.lanes[task as usize].lock().expect("no task panics holding it"))
    }

    fn put_back(&self, task: u64, samples: Vec<Sample>) {
        *self.lanes[task as usize].lock().expect("no task panics holding it") = samples;
    }

    /// Moves every recorded sample out as `(task, sample)`, keeping the
    /// lanes' capacity.
    pub fn drain(&self, mut sink: impl FnMut(u64, Sample)) {
        for (task, lane) in self.lanes.iter().enumerate() {
            for s in lane.lock().expect("no task panics holding it").drain(..) {
                sink(task as u64, s);
            }
        }
    }
}

/// Ops attempted and ops failed by one round, when its
/// `NodeHandle::run` call started and ended, and the CPU time the whole
/// process spent meanwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    pub ops: u64,
    pub failed: u64,
    pub run_start_ns: u64,
    pub run_end_ns: u64,
    pub cpu_ns: u64,
}

impl RoundOutcome {
    fn new(ops: u64, failed: u64, call: RunCall) -> Self {
        RoundOutcome {
            ops,
            failed,
            run_start_ns: call.start_ns,
            run_end_ns: call.end_ns,
            cpu_ns: call.cpu_ns,
        }
    }

    /// Ops per second of the `NodeHandle::run` call.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / (self.run_end_ns - self.run_start_ns) as f64
    }

    /// Microseconds of CPU time per op, all threads of the process.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops as f64
    }
}

pub trait Workload {
    /// How many tasks record latency samples (the lanes to allocate).
    fn tasks(&self) -> u64;
    /// The workload's own one-in-N latency sampling when not tracing.
    fn sample_every(&self) -> u64;
    /// Generates round `round`'s inputs and expected outputs. Untimed.
    fn prepare(&mut self, round: u64);
    /// Runs the prepared round as one `NodeHandle::run` call and checks
    /// what it returned.
    fn run(&mut self, node: &NodeHandle, lanes: &Arc<Lanes>) -> RoundOutcome;
    /// Final check of the arrays against the host-side model, then frees
    /// them. Returns the number of mismatching elements.
    fn finish(&mut self, node: &NodeHandle) -> u64;
}

/// When a round's `NodeHandle::run` call ran and what CPU time it cost.
struct RunCall {
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
}

/// Times `f` as the round's `NodeHandle::run` call. CPU time is every
/// thread's on-CPU time from `/proc/self/task/*/schedstat`, read outside
/// the timed interval: `/proc/self/stat` counts in 10 ms ticks, too
/// coarse for one round.
fn timed_run<R>(f: impl FnOnce() -> R) -> (R, RunCall) {
    let cpu = || -> u64 {
        procfs::cpu_ns_by_role().expect("per-thread CPU time is readable").iter().sum()
    };
    let cpu_before = cpu();
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    (r, RunCall { start_ns, end_ns, cpu_ns: cpu() - cpu_before })
}

// ---------------------------------------------------------------------
// blocking_small_sim, bulk_copy_tcp, bulk_copy_shm
// ---------------------------------------------------------------------

struct PutGet {
    seed: u64,
    tasks: u64,
    slots: u64,
    slot_bytes: usize,
    ops: u64,
    sample_every: u64,
    arr: GmtArray,
    patterns: Arc<Vec<u8>>,
    stream: Arc<Vec<u32>>,
}

/// Whether `got` is what slot `slot` must hold.
pub fn slot_matches(patterns: &[u8], slot_bytes: usize, slot: u64, got: &[u8]) -> bool {
    let at = slot as usize * slot_bytes;
    patterns[at..at + slot_bytes] == *got
}

/// Slots of `got` that differ from `patterns`.
pub fn mismatching_slots(patterns: &[u8], slot_bytes: usize, got: &[u8]) -> u64 {
    assert_eq!(patterns.len(), got.len());
    patterns.chunks(slot_bytes).zip(got.chunks(slot_bytes)).filter(|(a, b)| a != b).count() as u64
}

impl PutGet {
    fn new(
        seed: u64,
        node: &NodeHandle,
        tasks: u64,
        slots: u64,
        slot_bytes: usize,
        ops: u64,
        sample_every: u64,
    ) -> Self {
        assert_eq!(ops % tasks, 0, "every task gets the same share");
        let patterns = Arc::new(gen::slot_patterns(seed, slots, slot_bytes));
        let fill = Arc::clone(&patterns);
        let arr = node.run(move |ctx| {
            let arr = ctx.alloc(fill.len() as u64, Distribution::Remote);
            ctx.put(&arr, 0, &fill).expect("pre-filling the slots");
            arr
        });
        PutGet {
            seed,
            tasks,
            slots,
            slot_bytes,
            ops,
            sample_every,
            arr,
            patterns,
            stream: Arc::new(Vec::new()),
        }
    }
}

impl Workload for PutGet {
    fn tasks(&self) -> u64 {
        self.tasks
    }

    fn sample_every(&self) -> u64 {
        self.sample_every
    }

    fn prepare(&mut self, round: u64) {
        self.stream = Arc::new(gen::slot_stream(self.seed, round, self.ops, self.slots));
    }

    fn run(&mut self, node: &NodeHandle, lanes: &Arc<Lanes>) -> RoundOutcome {
        let (tasks, slot_bytes, arr) = (self.tasks, self.slot_bytes, self.arr);
        let per_task = self.ops / tasks;
        let stream = Arc::clone(&self.stream);
        let patterns = Arc::clone(&self.patterns);
        let lanes = Arc::clone(lanes);
        let failed = Arc::new(AtomicU64::new(0));
        let failed_in = Arc::clone(&failed);
        let ((), call) = timed_run(|| {
            node.run(move |ctx| {
                ctx.parfor(SpawnPolicy::Local, tasks, 1, move |ctx, task| {
                    let mut samples = lanes.take(task);
                    let mut buf = vec![0u8; slot_bytes];
                    let mut bad = 0u64;
                    let first = task * per_task;
                    for i in first..first + per_task {
                        let slot = u64::from(stream[i as usize]);
                        let offset = slot * slot_bytes as u64;
                        let sampled = i % lanes.sample_every == 0;
                        let start_ns = if sampled { now_ns() } else { 0 };
                        let is_put = i % 2 == 0;
                        let done = if is_put {
                            let at = offset as usize;
                            ctx.put(&arr, offset, &patterns[at..at + slot_bytes])
                        } else {
                            ctx.get(&arr, offset, &mut buf)
                        };
                        if sampled {
                            samples.push(Sample { start_ns, dur_ns: now_ns() - start_ns });
                        }
                        let ok = done.is_ok()
                            && (is_put || slot_matches(&patterns, slot_bytes, slot, &buf));
                        bad += u64::from(!ok);
                    }
                    failed_in.fetch_add(bad, Ordering::Relaxed);
                    lanes.put_back(task, samples);
                });
            })
        });
        RoundOutcome::new(self.ops, failed.load(Ordering::Relaxed), call)
    }

    fn finish(&mut self, node: &NodeHandle) -> u64 {
        let (arr, patterns, slot_bytes) = (self.arr, Arc::clone(&self.patterns), self.slot_bytes);
        node.run(move |ctx| {
            let mut got = vec![0u8; patterns.len()];
            let read = ctx.get(&arr, 0, &mut got);
            ctx.free(arr);
            match read {
                Ok(()) => mismatching_slots(&patterns, slot_bytes, &got),
                Err(_) => patterns.len() as u64 / slot_bytes as u64,
            }
        })
    }
}

// ---------------------------------------------------------------------
// scatter_add_sim
// ---------------------------------------------------------------------

struct ScatterAdd {
    seed: u64,
    tasks: u64,
    cells: u64,
    hot: u64,
    ops: u64,
    arr: GmtArray,
    /// The host-side histogram every round adds into.
    expected: Vec<i64>,
    stream: Arc<Vec<u32>>,
}

/// Cells of the little-endian `got` array that differ from `expected`.
pub fn mismatching_cells(expected: &[i64], got: &[u8]) -> u64 {
    assert_eq!(expected.len() * 8, got.len());
    let cell = |c: &[u8]| i64::from_le_bytes(c.try_into().expect("8-byte chunks"));
    expected.iter().zip(got.chunks_exact(8)).filter(|(&e, g)| e != cell(g)).count() as u64
}

impl ScatterAdd {
    fn new(seed: u64, node: &NodeHandle, tasks: u64, cells: u64, hot: u64, ops: u64) -> Self {
        assert_eq!(ops % tasks, 0, "every task gets the same share");
        // Freshly allocated global memory is zeroed, like the histogram.
        let arr = node.run(move |ctx| ctx.alloc(cells * 8, Distribution::Remote));
        ScatterAdd {
            seed,
            tasks,
            cells,
            hot,
            ops,
            arr,
            expected: vec![0; cells as usize],
            stream: Arc::new(Vec::new()),
        }
    }
}

impl Workload for ScatterAdd {
    fn tasks(&self) -> u64 {
        self.tasks
    }

    fn sample_every(&self) -> u64 {
        1
    }

    fn prepare(&mut self, round: u64) {
        let stream = gen::scatter_stream(self.seed, round, self.ops, self.cells, self.hot);
        for (i, &cell) in stream.iter().enumerate() {
            let e = &mut self.expected[cell as usize];
            *e = e.wrapping_add(gen::scatter_delta(i as u64));
        }
        self.stream = Arc::new(stream);
    }

    fn run(&mut self, node: &NodeHandle, lanes: &Arc<Lanes>) -> RoundOutcome {
        let (tasks, arr) = (self.tasks, self.arr);
        let per_task = self.ops / tasks;
        let stream = Arc::clone(&self.stream);
        let lanes = Arc::clone(lanes);
        let failed = Arc::new(AtomicU64::new(0));
        let failed_in = Arc::clone(&failed);
        let ((), call) = timed_run(|| {
            node.run(move |ctx| {
                ctx.parfor(SpawnPolicy::Local, tasks, 1, move |ctx, task| {
                    let mut samples = lanes.take(task);
                    let first = task * per_task;
                    for i in first..first + per_task {
                        let cell = u64::from(stream[i as usize]);
                        ctx.atomic_add_nb(&arr, cell * 8, gen::scatter_delta(i));
                    }
                    let start_ns = now_ns();
                    let drained = ctx.wait_commands();
                    samples.push(Sample { start_ns, dur_ns: now_ns() - start_ns });
                    if drained.is_err() {
                        failed_in.fetch_add(per_task, Ordering::Relaxed);
                    }
                    lanes.put_back(task, samples);
                });
            })
        });
        RoundOutcome::new(self.ops, failed.load(Ordering::Relaxed), call)
    }

    fn finish(&mut self, node: &NodeHandle) -> u64 {
        let (arr, cells) = (self.arr, self.cells);
        let got = node.run(move |ctx| {
            let mut got = vec![0u8; cells as usize * 8];
            let read = ctx.get(&arr, 0, &mut got);
            ctx.free(arr);
            read.map(|()| got)
        });
        match got {
            Ok(got) => mismatching_cells(&self.expected, &got),
            Err(_) => cells,
        }
    }
}

// ---------------------------------------------------------------------
// chase_tcp
// ---------------------------------------------------------------------

struct Chase {
    hops: u64,
    arr: GmtArray,
    perm: Arc<Vec<u64>>,
    /// Where the chase stands; each round continues from here.
    at: u64,
    /// Where the host-side walk says the prepared round must end.
    expected_end: u64,
}

/// Where `hops` steps along `perm` from `from` end.
pub fn host_walk(perm: &[u64], from: u64, hops: u64) -> u64 {
    (0..hops).fold(from, |at, _| perm[at as usize])
}

impl Chase {
    fn new(seed: u64, node: &NodeHandle, elems: u64, hops: u64) -> Self {
        let perm = Arc::new(gen::single_cycle(seed, elems));
        let fill = Arc::clone(&perm);
        let arr = node.run(move |ctx| {
            let arr = ctx.alloc(elems * 8, Distribution::Remote);
            let bytes: Vec<u8> = fill.iter().flat_map(|p| p.to_le_bytes()).collect();
            ctx.put(&arr, 0, &bytes).expect("loading the permutation");
            arr
        });
        Chase { hops, arr, perm, at: 0, expected_end: 0 }
    }
}

impl Workload for Chase {
    fn tasks(&self) -> u64 {
        1
    }

    fn sample_every(&self) -> u64 {
        1
    }

    fn prepare(&mut self, _round: u64) {
        self.expected_end = host_walk(&self.perm, self.at, self.hops);
    }

    fn run(&mut self, node: &NodeHandle, lanes: &Arc<Lanes>) -> RoundOutcome {
        let (arr, hops, from) = (self.arr, self.hops, self.at);
        let lanes = Arc::clone(lanes);
        let (walked, call) = timed_run(|| {
            node.run(move |ctx| {
                let mut samples = lanes.take(0);
                let mut at = from;
                let mut errors = 0u64;
                for _ in 0..hops {
                    let start_ns = now_ns();
                    let next = ctx.get_value::<u64>(&arr, at);
                    samples.push(Sample { start_ns, dur_ns: now_ns() - start_ns });
                    match next {
                        Ok(next) => at = next,
                        Err(_) => errors += 1,
                    }
                }
                lanes.put_back(0, samples);
                (at, errors)
            })
        });
        let (end, errors) = walked;
        // A wrong end point does not say which hop went wrong: the whole
        // round counts as failed.
        let failed = if end == self.expected_end && errors == 0 { 0 } else { hops };
        self.at = self.expected_end;
        RoundOutcome::new(hops, failed, call)
    }

    fn finish(&mut self, node: &NodeHandle) -> u64 {
        let (arr, perm) = (self.arr, Arc::clone(&self.perm));
        node.run(move |ctx| {
            let mut got = vec![0u8; perm.len() * 8];
            let read = ctx.get(&arr, 0, &mut got);
            ctx.free(arr);
            let expected: Vec<u8> = perm.iter().flat_map(|p| p.to_le_bytes()).collect();
            match read {
                Ok(()) => mismatching_slots(&expected, 8, &got),
                Err(_) => perm.len() as u64,
            }
        })
    }
}

// ---------------------------------------------------------------------
// bfs_shm
// ---------------------------------------------------------------------

struct Bfs {
    seed: u64,
    csr: Arc<Csr>,
    graph: Option<DistGraph>,
    source: u64,
    reference: Vec<u64>,
}

/// The graph `bfs_shm` traverses for `seed`.
pub fn bfs_graph(seed: u64, vertices: u64, degree: u64) -> Csr {
    uniform_random(GraphSpec { vertices, avg_degree: degree, seed })
}

/// Edges a traversal with these levels examines: the out-degrees of the
/// vertices it reaches.
pub fn traversed_edges(csr: &Csr, reference: &[u64]) -> u64 {
    (0..csr.vertices()).filter(|&v| reference[v as usize] != u64::MAX).map(|v| csr.degree(v)).sum()
}

/// Whether the kernel's levels (`-1` = unreached) equal the sequential
/// reference's (`u64::MAX` = unreached).
pub fn levels_match(reference: &[u64], got: &[i64]) -> bool {
    reference.len() == got.len()
        && reference
            .iter()
            .zip(got)
            .all(|(&r, &g)| if r == u64::MAX { g == -1 } else { g == r as i64 })
}

impl Bfs {
    fn new(seed: u64, node: &NodeHandle, vertices: u64, degree: u64) -> Self {
        let csr = Arc::new(bfs_graph(seed, vertices, degree));
        let load = Arc::clone(&csr);
        let graph = node.run(move |ctx| DistGraph::from_csr(ctx, &load));
        Bfs { seed, csr, graph: Some(graph), source: 0, reference: Vec::new() }
    }
}

impl Workload for Bfs {
    fn tasks(&self) -> u64 {
        1
    }

    fn sample_every(&self) -> u64 {
        1
    }

    fn prepare(&mut self, round: u64) {
        self.source = gen::Rng::new(self.seed, "bfs-source", round).below(self.csr.vertices());
        self.reference = self.csr.bfs_levels(self.source);
    }

    fn run(&mut self, node: &NodeHandle, lanes: &Arc<Lanes>) -> RoundOutcome {
        let graph = self.graph.expect("the graph lives until finish");
        let source = self.source;
        let (result, call) = timed_run(|| node.run(move |ctx| gmt_bfs(ctx, &graph, source)));
        let mut samples = lanes.take(0);
        samples.push(Sample { start_ns: call.start_ns, dur_ns: call.end_ns - call.start_ns });
        lanes.put_back(0, samples);
        let ops = traversed_edges(&self.csr, &self.reference);
        let ok = levels_match(&self.reference, &result.levels) && result.traversed_edges == ops;
        RoundOutcome::new(ops, if ok { 0 } else { ops }, call)
    }

    fn finish(&mut self, node: &NodeHandle) -> u64 {
        if let Some(graph) = self.graph.take() {
            node.run(move |ctx| graph.free(ctx));
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_six_and_unique() {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "blocking_small_sim",
                "scatter_add_sim",
                "bulk_copy_tcp",
                "bulk_copy_shm",
                "chase_tcp",
                "bfs_shm"
            ]
        );
        assert!(SPECS.iter().all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert!(spec_by_name("chase_tcp").is_some());
        assert!(spec_by_name("chase").is_none());
    }

    #[test]
    fn bench_config_is_valid_and_names_table_iv() {
        let c = bench_config();
        c.validate().unwrap();
        assert_eq!((c.num_workers, c.num_helpers, c.buffer_size), (1, 1, 65_536));
    }

    #[test]
    fn put_get_verifier_rejects_a_flipped_byte() {
        let patterns = gen::slot_patterns(1, 8, 16);
        let mut got = patterns.clone();
        assert_eq!(mismatching_slots(&patterns, 16, &got), 0);
        assert!(slot_matches(&patterns, 16, 3, &got[48..64]));
        got[50] ^= 1;
        assert!(!slot_matches(&patterns, 16, 3, &got[48..64]));
        // Slot 3's bytes are not slot 2's.
        assert!(!slot_matches(&patterns, 16, 2, &patterns[48..64]));
        got[0] ^= 0x80;
        assert_eq!(mismatching_slots(&patterns, 16, &got), 2);
    }

    #[test]
    fn scatter_verifier_rejects_a_lost_add() {
        let expected = vec![5i64, -2, 0, 9];
        let mut got: Vec<u8> = expected.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(mismatching_cells(&expected, &got), 0);
        got[24..32].copy_from_slice(&8i64.to_le_bytes());
        assert_eq!(mismatching_cells(&expected, &got), 1);
    }

    #[test]
    fn chase_verifier_rejects_a_wrong_pointer() {
        let perm = gen::single_cycle(4, 64);
        let end = host_walk(&perm, 0, 10);
        assert_eq!(host_walk(&perm, host_walk(&perm, 0, 4), 6), end);
        let mut broken = perm.clone();
        let third = host_walk(&perm, 0, 3) as usize;
        broken[third] = (broken[third] + 1) % 64;
        assert_ne!(host_walk(&broken, 0, 10), end);
    }

    #[test]
    fn bfs_verifier_rejects_a_wrong_level() {
        let csr = bfs_graph(3, 64, 3);
        let reference = csr.bfs_levels(0);
        let mut got: Vec<i64> =
            reference.iter().map(|&l| if l == u64::MAX { -1 } else { l as i64 }).collect();
        assert!(levels_match(&reference, &got));
        got[7] += 1;
        assert!(!levels_match(&reference, &got));
        assert!(!levels_match(&reference, &got[..63]));
        assert!(traversed_edges(&csr, &reference) <= csr.edges());
    }

    /// Every workload, one tiny round on its own transport, through the
    /// same code the measured run uses.
    #[test]
    fn tiny_rounds_verify_on_every_transport() {
        for spec in SPECS {
            let spec = spec.tiny();
            let cluster = spec.fabric.start(2, bench_config()).unwrap();
            let node = cluster.node(0);
            let mut w = spec.build(42, node);
            let lanes = Lanes::new(w.tasks(), 1);
            for round in 0..2 {
                w.prepare(round);
                let out = w.run(node, &lanes);
                assert!(out.ops > 0, "{}", spec.name);
                assert_eq!(out.failed, 0, "{}", spec.name);
            }
            let mut samples = 0;
            lanes.drain(|_, _| samples += 1);
            assert!(samples > 0, "{}", spec.name);
            assert_eq!(w.finish(node), 0, "{}", spec.name);
            cluster.shutdown();
        }
    }
}
