//! Discrete-event simulator of a cluster running fine-grained global
//! operations.
//!
//! One engine simulates every machine of the paper's evaluation; the
//! [`MachineParams`] decide whether operations coalesce (GMT) or travel
//! one message each (MPI/UPC/XMT), how many issue/service streams a node
//! has, and what everything costs. The workload model is the paper's:
//! blocking fine-grained operations issued by many concurrent tasks, each
//! op being a request to a (mostly remote) node followed by a reply.
//!
//! Modeled resources per node:
//!
//! * **workers** — `workers_per_node` parallel issue streams; a blocked
//!   task occupies no stream (that is the latency-tolerance mechanism);
//! * **aggregation buffers** — per-destination, with capacity- and
//!   timeout-based dispatch (GMT only);
//! * **NIC** — a single injection port serializing outgoing messages at
//!   `overhead + bytes/bandwidth` each (matching `gmt_net::NetworkModel`);
//! * **helpers** — `helpers_per_node` parallel service streams executing
//!   incoming commands and emitting replies through the same machinery.
//!
//! Determinism: one seeded RNG, strict `(time, seq)` event ordering.

use crate::params::MachineParams;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// Shape of the operations a task issues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPattern {
    /// Payload bytes carried by the request (e.g. a put's data).
    pub req_bytes: u32,
    /// Payload bytes carried by the reply (e.g. a get's data).
    pub reply_bytes: u32,
    /// Fraction of operations that hit the local node (no network).
    pub local_fraction: f64,
}

impl OpPattern {
    /// A blocking put of `size` bytes to a remote node (Figures 2/5/6).
    pub fn remote_put(size: u32) -> Self {
        OpPattern { req_bytes: size, reply_bytes: 0, local_fraction: 0.0 }
    }
}

/// One bulk-synchronous phase of a workload (a BFS level, a walk round…).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub tasks_per_node: u64,
    pub ops_per_task: u64,
    pub pattern: OpPattern,
    /// How many nodes run tasks this phase (`None` = all). The paper's
    /// point-to-point transfer-rate figures (2/5/6) have a single sending
    /// node; the kernel workloads run everywhere.
    pub senders: Option<usize>,
}

impl Phase {
    /// A phase where every node runs `tasks_per_node` tasks.
    pub fn all_nodes(tasks_per_node: u64, ops_per_task: u64, pattern: OpPattern) -> Self {
        Phase { tasks_per_node, ops_per_task, pattern, senders: None }
    }

    /// A phase where only the first node sends (point-to-point figures).
    pub fn one_sender(tasks: u64, ops_per_task: u64, pattern: OpPattern) -> Self {
        Phase { tasks_per_node: tasks, ops_per_task, pattern, senders: Some(1) }
    }
}

/// Aggregate outcome of a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimReport {
    pub elapsed_ns: u64,
    pub ops_completed: u64,
    /// Network messages injected (aggregation buffers or single commands).
    pub messages: u64,
    /// Total bytes on the wire (payload + headers).
    pub wire_bytes: u64,
    /// Total request+reply payload bytes moved.
    pub payload_bytes: u64,
}

impl SimReport {
    /// Payload bandwidth in MB/s (the paper's "transfer rate").
    pub fn payload_mb_s(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.payload_bytes as f64 * 1e3 / self.elapsed_ns as f64
    }
}

#[derive(Debug, Clone, Copy)]
enum CmdKind {
    /// A request from (origin, task); the helper answers with a reply of
    /// `reply_bytes` payload.
    Req { origin: u32, task: u32, reply_bytes: u32 },
    /// A reply completing one blocking op of `task` (at this node).
    Reply { task: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Cmd {
    kind: CmdKind,
    wire_bytes: u32,
}

#[derive(Debug, Default)]
struct Buffer {
    cmds: Vec<Cmd>,
    bytes: u32,
}

#[derive(Debug)]
struct PendingBuffer {
    buf: Buffer,
    stamp: u64,
}

enum Ev {
    /// A worker at `node` finished issuing `task`'s current operation.
    WorkerFree { node: u32, task: u32 },
    /// Flush the (node → dst) aggregation buffer if `stamp` still matches.
    AggTimeout { node: u32, dst: u32, stamp: u64 },
    /// The NIC at `node` finished serializing a message.
    NicFree { node: u32 },
    /// A message lands at `node`.
    Arrive { node: u32, buf: Buffer },
    /// A helper at `node` finished executing `cmd`.
    HelperFree { node: u32, cmd: Cmd },
    /// A node-local operation of `task` completed.
    LocalDone { node: u32, task: u32 },
}

struct Task {
    remaining_ops: u64,
}

struct Node {
    idle_workers: usize,
    ready: VecDeque<u32>,
    tasks: Vec<Task>,
    /// Per-destination pending aggregation buffer (GMT only).
    agg: Vec<Option<PendingBuffer>>,
    nic_busy: bool,
    nic_q: VecDeque<(u32, Buffer)>,
    idle_helpers: usize,
    cmd_q: VecDeque<Cmd>,
}

/// The simulator.
pub struct Sim {
    params: MachineParams,
    nodes: Vec<Node>,
    now: SimTime,
    events: BinaryHeap<Reverse<(SimTime, u64)>>,
    payloads: std::collections::HashMap<u64, Ev>,
    seq: u64,
    stamp: u64,
    rng: SmallRng,
    pattern: OpPattern,
    tasks_done: u64,
    tasks_total: u64,
    report: SimReport,
}

impl Sim {
    pub fn new(params: MachineParams, nodes: usize, seed: u64) -> Self {
        assert!(nodes >= 1);
        let node = |_i: usize| Node {
            idle_workers: params.workers_per_node,
            ready: VecDeque::new(),
            tasks: Vec::new(),
            agg: (0..nodes).map(|_| None).collect(),
            nic_busy: false,
            nic_q: VecDeque::new(),
            idle_helpers: params.helpers_per_node,
            cmd_q: VecDeque::new(),
        };
        Sim {
            params,
            nodes: (0..nodes).map(node).collect(),
            now: 0,
            events: BinaryHeap::new(),
            payloads: std::collections::HashMap::new(),
            seq: 0,
            stamp: 0,
            rng: SmallRng::seed_from_u64(seed),
            pattern: OpPattern::remote_put(8),
            tasks_done: 0,
            tasks_total: 0,
            report: SimReport::default(),
        }
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let id = self.seq;
        self.seq += 1;
        self.events.push(Reverse((at, id)));
        self.payloads.insert(id, ev);
    }

    /// Runs one phase to completion; returns its elapsed simulated time.
    pub fn run_phase(&mut self, phase: Phase) -> SimReport {
        assert!(self.events.is_empty(), "phase started with events in flight");
        let start = self.now;
        let before = self.report;
        self.pattern = phase.pattern;
        self.tasks_done = 0;
        let senders = phase.senders.unwrap_or(self.nodes.len()).min(self.nodes.len());
        self.tasks_total = phase.tasks_per_node * senders as u64;
        if self.tasks_total == 0 || phase.ops_per_task == 0 {
            return SimReport::default();
        }
        // Install tasks and start as many as there are workers.
        for n in 0..self.nodes.len() {
            let node = &mut self.nodes[n];
            let tasks = if n < senders { phase.tasks_per_node } else { 0 };
            node.tasks = (0..tasks).map(|_| Task { remaining_ops: phase.ops_per_task }).collect();
            node.ready = (0..tasks as u32).collect();
            node.idle_workers = self.params.workers_per_node;
        }
        for n in 0..senders as u32 {
            self.kick_workers(n);
        }
        // Event loop.
        while let Some(Reverse((t, id))) = self.events.pop() {
            debug_assert!(t >= self.now);
            self.now = t;
            let ev = self.payloads.remove(&id).expect("event payload");
            self.handle(ev);
            if self.tasks_done == self.tasks_total {
                // Drain bookkeeping events (timeouts for empty buffers…).
                self.events.clear();
                self.payloads.clear();
                break;
            }
        }
        assert_eq!(self.tasks_done, self.tasks_total, "simulation stalled");
        let mut r = self.report;
        r.elapsed_ns = self.now - start;
        r.ops_completed -= before.ops_completed;
        r.messages -= before.messages;
        r.wire_bytes -= before.wire_bytes;
        r.payload_bytes -= before.payload_bytes;
        r
    }

    /// Starts idle workers on ready tasks at `node`.
    fn kick_workers(&mut self, node: u32) {
        let op_ns = self.params.worker_op_ns;
        let at = self.now + op_ns;
        let n = &mut self.nodes[node as usize];
        let mut to_schedule = Vec::new();
        while n.idle_workers > 0 {
            let Some(task) = n.ready.pop_front() else { break };
            n.idle_workers -= 1;
            to_schedule.push(task);
        }
        for task in to_schedule {
            self.schedule(at, Ev::WorkerFree { node, task });
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::WorkerFree { node, task } => {
                self.issue_op(node, task);
                // The worker is free again: pick the next ready task.
                self.nodes[node as usize].idle_workers += 1;
                self.kick_workers(node);
            }
            Ev::LocalDone { node, task } => self.op_completed(node, task),
            Ev::AggTimeout { node, dst, stamp } => {
                let pend = &mut self.nodes[node as usize].agg[dst as usize];
                if pend.as_ref().is_some_and(|p| p.stamp == stamp) {
                    let buf = pend.take().unwrap().buf;
                    self.dispatch(node, dst, buf);
                }
            }
            Ev::NicFree { node } => {
                self.nodes[node as usize].nic_busy = false;
                self.pump_nic(node);
            }
            Ev::Arrive { node, buf } => {
                let n = &mut self.nodes[node as usize];
                n.cmd_q.extend(buf.cmds);
                self.kick_helpers(node);
            }
            Ev::HelperFree { node, cmd } => {
                self.execute_cmd(node, cmd);
                self.nodes[node as usize].idle_helpers += 1;
                self.kick_helpers(node);
            }
        }
    }

    /// The op of `task` (issued by a worker that is now free) takes
    /// effect: either a local access or a request command toward a
    /// uniformly random remote node.
    fn issue_op(&mut self, node: u32, task: u32) {
        let local_fraction =
            if self.params.scrambled_memory { 0.0 } else { self.pattern.local_fraction };
        let local = local_fraction > 0.0 && self.rng.gen_bool(local_fraction.min(1.0));
        if local || self.nodes.len() == 1 {
            let at = self.now + self.params.local_op_ns;
            self.schedule(at, Ev::LocalDone { node, task });
            return;
        }
        // Uniform random other node.
        let mut dst = self.rng.gen_range(0..self.nodes.len() as u32 - 1);
        if dst >= node {
            dst += 1;
        }
        let cmd = Cmd {
            kind: CmdKind::Req { origin: node, task, reply_bytes: self.pattern.reply_bytes },
            wire_bytes: self.params.wire_bytes(self.pattern.req_bytes),
        };
        self.emit_cmd(node, dst, cmd);
    }

    /// Routes a command through the aggregation machinery (or straight to
    /// the NIC when aggregation is off).
    fn emit_cmd(&mut self, node: u32, dst: u32, cmd: Cmd) {
        match self.params.aggregation {
            None => {
                let buf = Buffer { bytes: cmd.wire_bytes, cmds: vec![cmd] };
                self.dispatch(node, dst, buf);
            }
            Some(agg) => {
                let pend = &mut self.nodes[node as usize].agg[dst as usize];
                let full = match pend {
                    Some(p) => {
                        p.buf.cmds.push(cmd);
                        p.buf.bytes += cmd.wire_bytes;
                        p.buf.bytes >= agg.buffer_bytes
                    }
                    None => {
                        let stamp = self.stamp;
                        self.stamp += 1;
                        *pend = Some(PendingBuffer {
                            buf: Buffer { bytes: cmd.wire_bytes, cmds: vec![cmd] },
                            stamp,
                        });
                        let at = self.now + agg.timeout_ns;
                        self.schedule(at, Ev::AggTimeout { node, dst, stamp });
                        cmd.wire_bytes >= agg.buffer_bytes
                    }
                };
                if full {
                    let buf = self.nodes[node as usize].agg[dst as usize]
                        .take()
                        .expect("full buffer present")
                        .buf;
                    self.dispatch(node, dst, buf);
                }
            }
        }
    }

    /// Hands a buffer to the node's injection port.
    fn dispatch(&mut self, node: u32, dst: u32, buf: Buffer) {
        self.nodes[node as usize].nic_q.push_back((dst, buf));
        self.pump_nic(node);
    }

    fn pump_nic(&mut self, node: u32) {
        if self.nodes[node as usize].nic_busy {
            return;
        }
        let Some((dst, buf)) = self.nodes[node as usize].nic_q.pop_front() else { return };
        let ser = self.params.net.serialization_ns(buf.bytes as usize);
        let lat = self.params.net.wire_latency_ns;
        self.report.messages += 1;
        self.report.wire_bytes += buf.bytes as u64;
        self.nodes[node as usize].nic_busy = true;
        self.schedule(self.now + ser, Ev::NicFree { node });
        self.schedule(self.now + ser + lat, Ev::Arrive { node: dst, buf });
    }

    fn kick_helpers(&mut self, node: u32) {
        let svc = self.params.helper_cmd_ns;
        let at = self.now + svc;
        let n = &mut self.nodes[node as usize];
        let mut to_schedule = Vec::new();
        while n.idle_helpers > 0 {
            let Some(cmd) = n.cmd_q.pop_front() else { break };
            n.idle_helpers -= 1;
            to_schedule.push(cmd);
        }
        for cmd in to_schedule {
            self.schedule(at, Ev::HelperFree { node, cmd });
        }
    }

    fn execute_cmd(&mut self, node: u32, cmd: Cmd) {
        match cmd.kind {
            CmdKind::Req { origin, task, reply_bytes } => {
                let reply = Cmd {
                    kind: CmdKind::Reply { task },
                    wire_bytes: self.params.wire_bytes(reply_bytes),
                };
                self.emit_cmd(node, origin, reply);
            }
            CmdKind::Reply { task } => self.op_completed(node, task),
        }
    }

    fn op_completed(&mut self, node: u32, task: u32) {
        self.report.ops_completed += 1;
        self.report.payload_bytes += (self.pattern.req_bytes + self.pattern.reply_bytes) as u64;
        let n = &mut self.nodes[node as usize];
        let t = &mut n.tasks[task as usize];
        debug_assert!(t.remaining_ops > 0);
        t.remaining_ops -= 1;
        if t.remaining_ops == 0 {
            self.tasks_done += 1;
        } else {
            n.ready.push_back(task);
            self.kick_workers(node);
        }
    }
}

/// Convenience: simulate one homogeneous phase.
pub fn simulate(params: MachineParams, nodes: usize, phase: Phase, seed: u64) -> SimReport {
    let mut sim = Sim::new(params, nodes, seed);
    sim.run_phase(phase)
}

/// Convenience: simulate a sequence of bulk-synchronous phases; returns
/// (total report, per-phase reports).
pub fn simulate_phases(
    params: MachineParams,
    nodes: usize,
    phases: &[Phase],
    seed: u64,
) -> (SimReport, Vec<SimReport>) {
    let mut sim = Sim::new(params, nodes, seed);
    let mut per_phase = Vec::with_capacity(phases.len());
    let mut total = SimReport::default();
    for &p in phases {
        let r = sim.run_phase(p);
        total.elapsed_ns += r.elapsed_ns;
        total.ops_completed += r.ops_completed;
        total.messages += r.messages;
        total.wire_bytes += r.wire_bytes;
        total.payload_bytes += r.payload_bytes;
        per_phase.push(r);
    }
    (total, per_phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MachineParams;

    fn put_phase(tasks: u64, ops: u64, size: u32) -> Phase {
        Phase::all_nodes(tasks, ops, OpPattern::remote_put(size))
    }

    #[test]
    fn single_op_round_trip_time_is_exact() {
        // One task, one op, aggregation off: elapsed must be exactly
        // worker + ser(req) + lat + helper + ser(reply) + lat + helper.
        let p = MachineParams::mpi();
        let r = simulate(p, 2, put_phase(1, 1, 8), 1);
        let net = p.net;
        let expected = p.worker_op_ns
            + net.serialization_ns(p.wire_bytes(8) as usize)
            + net.wire_latency_ns
            + p.helper_cmd_ns
            + net.serialization_ns(p.wire_bytes(0) as usize)
            + net.wire_latency_ns
            + p.helper_cmd_ns;
        assert_eq!(r.elapsed_ns, expected);
        assert_eq!(r.ops_completed, 2); // one per node: both nodes run tasks
        assert_eq!(r.messages, 4); // req+reply per node
    }

    #[test]
    fn deterministic_given_seed() {
        let p = MachineParams::gmt();
        let a = simulate(p, 4, put_phase(64, 32, 16), 9);
        let b = simulate(p, 4, put_phase(64, 32, 16), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn more_tasks_never_lower_throughput() {
        let p = MachineParams::gmt();
        let mut last = 0.0;
        for tasks in [16u64, 64, 256, 1024] {
            let r = simulate(p, 2, put_phase(tasks, 64, 8), 3);
            let bw = r.payload_mb_s();
            assert!(bw >= last * 0.95, "throughput regressed at {tasks} tasks: {bw} < {last}");
            last = bw;
        }
    }

    #[test]
    fn aggregation_reduces_message_count_by_orders_of_magnitude() {
        let with = simulate(MachineParams::gmt(), 2, put_phase(1024, 64, 8), 5);
        let without = simulate(MachineParams::gmt_no_aggregation(), 2, put_phase(1024, 64, 8), 5);
        assert_eq!(with.ops_completed, without.ops_completed);
        assert!(
            without.messages > with.messages * 50,
            "messages: with={} without={}",
            with.messages,
            without.messages
        );
    }

    #[test]
    fn gmt_beats_mpi_on_fine_grained_puts() {
        // The headline claim at high concurrency.
        let gmt = simulate(MachineParams::gmt(), 2, put_phase(15_360, 16, 8), 7);
        let mpi = simulate(MachineParams::mpi(), 2, put_phase(32, 16 * 480, 8), 7);
        let ratio = gmt.payload_mb_s() / mpi.payload_mb_s();
        assert!(ratio > 3.0, "GMT only {ratio:.2}x over MPI");
    }

    #[test]
    fn saturation_respects_worker_bound() {
        // Throughput can never exceed what the workers can issue.
        let p = MachineParams::gmt();
        let r = simulate(p, 2, put_phase(4096, 64, 8), 11);
        let max_ops_s = p.workers_per_node as f64 * 1e9 / p.worker_op_ns as f64;
        // Per node; ops_completed counts all nodes.
        let ops_s_per_node = r.ops_completed as f64 / 2.0 / (r.elapsed_ns as f64 / 1e9);
        assert!(ops_s_per_node <= max_ops_s * 1.01);
    }

    #[test]
    fn local_ops_bypass_the_network() {
        let p = MachineParams::gmt();
        let phase = Phase::all_nodes(
            32,
            16,
            OpPattern { req_bytes: 8, reply_bytes: 0, local_fraction: 1.0 },
        );
        let r = simulate(p, 2, phase, 13);
        assert_eq!(r.messages, 0);
        assert_eq!(r.ops_completed, 2 * 32 * 16);
    }

    #[test]
    fn single_node_everything_is_local() {
        let r = simulate(MachineParams::gmt(), 1, put_phase(16, 8, 8), 17);
        assert_eq!(r.messages, 0);
        assert_eq!(r.ops_completed, 16 * 8);
    }

    #[test]
    fn phases_accumulate() {
        let p = MachineParams::mpi();
        let phases = [put_phase(4, 4, 8), put_phase(8, 2, 64)];
        let (total, per) = simulate_phases(p, 2, &phases, 19);
        assert_eq!(per.len(), 2);
        assert_eq!(total.ops_completed, per[0].ops_completed + per[1].ops_completed);
        assert_eq!(total.elapsed_ns, per[0].elapsed_ns + per[1].elapsed_ns);
        assert_eq!(per[0].ops_completed, 2 * 4 * 4);
        assert_eq!(per[1].ops_completed, 2 * 8 * 2);
    }

    #[test]
    fn timeout_flushes_partial_buffers() {
        // Few tasks, tiny ops: buffers can never fill, so only the
        // timeout can move them. The phase must still complete, in a time
        // dominated by the round-trip of two timeouts.
        let p = MachineParams::gmt();
        let agg = p.aggregation.unwrap();
        let r = simulate(p, 2, put_phase(4, 2, 8), 23);
        assert_eq!(r.ops_completed, 2 * 4 * 2);
        assert!(r.elapsed_ns >= agg.timeout_ns, "finished before any timeout");
        assert!(r.elapsed_ns < 20 * agg.timeout_ns, "took too many rounds");
    }

    #[test]
    fn larger_messages_move_more_bytes_per_second() {
        let p = MachineParams::mpi();
        let small = simulate(p, 2, put_phase(32, 128, 8), 29);
        let large = simulate(p, 2, put_phase(32, 128, 4096), 29);
        assert!(large.payload_mb_s() > small.payload_mb_s() * 10.0);
    }
}
