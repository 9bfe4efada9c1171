//! Node bring-up, thread specialization and the cluster facade.
//!
//! "Each node executes an instance of GMT, and the various instances
//! communicate through commands" (§IV-A). A [`Cluster`] hosts all node
//! instances in one process, wired through a pluggable
//! [`gmt_net::Transport`] backend — the simulated [`gmt_net::Fabric`]
//! (default; deterministic, fault-injectable), a TCP loopback mesh
//! (`GMT_TRANSPORT=tcp-loopback`) or a mesh of shared-memory rings
//! (`GMT_TRANSPORT=shm`). A [`NodeRuntime`] is the
//! multi-process shape: one node per OS process over a transport built
//! by [`gmt_net::connect`], booted by `gmt-launch`. Either way,
//! every node runs its configured worker threads, helper threads and
//! the single communication server, exactly as in Figure 1.

use crate::aggregation::{AggShared, AggStats};
use crate::commserver;
use crate::config::Config;
use crate::helper;
use crate::metrics::{NodeMetrics, ThreadTracer};
use crate::task::{Itb, OpTable, RootTask};
use crate::worker;
use crate::{memory::NodeMemory, NodeId};
use crossbeam::queue::SegQueue;
use gmt_metrics::trace::TraceSink;
use gmt_metrics::MetricsSnapshot;
use gmt_net::{
    loopback_mesh, shm_mesh, DeliveryMode, Fabric, FaultPlan, Payload, TrafficStats, Transport,
    TransportSelect,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One node's view of cluster membership: per-peer death flags plus a
/// monotonic **epoch** counting confirmed deaths. Because every death is
/// disseminated until all survivors confirm it, converged dead sets imply
/// converged epochs — comparing a stored epoch against the current one is
/// a constant-time "has anybody died since?" check, which is how barriers
/// avoid hanging on dead participants.
#[derive(Debug)]
pub struct Membership {
    dead: Vec<AtomicBool>,
    epoch: AtomicU64,
}

/// A consistent point-in-time membership view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Deaths confirmed so far (monotonic).
    pub epoch: u64,
    /// The confirmed-dead node ids, ascending.
    pub dead: Vec<NodeId>,
}

impl Membership {
    fn new(nodes: usize) -> Self {
        Membership {
            dead: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Whether `node` is confirmed dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead[node].load(Ordering::Acquire)
    }

    /// Marks `node` dead; returns `true` (and bumps the epoch) only on the
    /// first confirmation. The flag is set before the epoch moves, so a
    /// reader that observes the new epoch also observes the death.
    pub(crate) fn mark_dead(&self, node: NodeId) -> bool {
        if !self.dead[node].swap(true, Ordering::AcqRel) {
            self.epoch.fetch_add(1, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Deaths confirmed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Confirmed-dead node ids, ascending.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        (0..self.dead.len()).filter(|&n| self.is_dead(n)).collect()
    }

    /// A consistent snapshot: the epoch is re-read after collecting the
    /// dead set and the collection retried if a death landed in between.
    pub fn view(&self) -> MembershipView {
        loop {
            let epoch = self.epoch();
            let dead = self.dead_nodes();
            if self.epoch() == epoch {
                return MembershipView { epoch, dead };
            }
        }
    }
}

/// Per-peer flow-control state, published by the communication server
/// (the only writer) and read by the stuck-task watchdog and
/// [`NodeHandle::backpressured_peers`]. A peer is *backpressured* while
/// the reliability layer holds buffers for it because its in-flight
/// window is full — the peer is slow or its link is throttled, but it is
/// **not** dead. Emitters never read it: a full window's one answer is
/// the link's hold queue.
#[derive(Debug)]
pub struct FlowState {
    backpressured: Vec<AtomicBool>,
}

impl FlowState {
    fn new(nodes: usize) -> Self {
        FlowState { backpressured: (0..nodes).map(|_| AtomicBool::new(false)).collect() }
    }

    /// Marks `dst` backpressured (or clears it). Called only from the
    /// communication-server thread.
    pub fn set_backpressured(&self, dst: NodeId, on: bool) {
        self.backpressured[dst].store(on, Ordering::Release);
    }

    /// Is the window toward `dst` currently full?
    pub fn is_backpressured(&self, dst: NodeId) -> bool {
        self.backpressured[dst].load(Ordering::Acquire)
    }

    /// Every currently backpressured peer, ascending.
    pub fn backpressured_peers(&self) -> Vec<NodeId> {
        (0..self.backpressured.len()).filter(|&d| self.is_backpressured(d)).collect()
    }
}

/// State shared by every node of one cluster.
#[derive(Debug)]
pub struct ClusterShared {
    /// Allocation-id source. The real GMT derives unique ids from a
    /// collective allocation protocol; a counter is the local
    /// equivalent. Minting steps by [`alloc_stride`](Self::alloc_stride)
    /// so multi-process nodes (which cannot share one counter) carve
    /// disjoint, interleaved id sequences: node `k` of `N` starts at
    /// `k + 1` and steps by `N`. Ids stay *dense* either way —
    /// `NodeMemory`'s two-level segment table indexes by id and caps out
    /// at a few million, so high-bit namespacing is not an option.
    pub next_alloc_id: AtomicU64,
    /// Step between consecutive ids minted by this runtime instance:
    /// `1` in-process (one shared counter), the cluster size when each
    /// node is its own process.
    pub alloc_stride: u64,
    /// True when peers live in **other OS processes** (`NodeRuntime` /
    /// gmt-launch). Spawn commands then ship parFor bodies by value —
    /// vtable offset plus captured bytes ([`ParForBody::to_wire_bytes`])
    /// — instead of the in-process `Arc` pointer, which would be a
    /// foreign address on arrival.
    pub cross_process: bool,
}

/// Everything the threads of one node share.
pub struct NodeShared {
    pub node_id: NodeId,
    pub nodes: usize,
    pub config: Config,
    pub memory: NodeMemory,
    pub agg: Arc<AggShared>,
    /// Iteration blocks awaiting workers (§IV-D).
    pub itb_queue: SegQueue<Arc<Itb>>,
    /// Root tasks submitted from outside the runtime.
    pub root_queue: SegQueue<RootTask>,
    /// Received aggregation buffers awaiting helpers: (source node, bytes).
    /// Payloads are pooled: dropping one (after processing) returns the
    /// buffer to the *sending* node's channel pool.
    pub helper_in: SegQueue<(NodeId, Payload)>,
    /// Set once at shutdown.
    pub stop: AtomicBool,
    pub cluster: Arc<ClusterShared>,
    /// This node's instrument registry and resolved handles (`worker.*`,
    /// `helper.*`, `comm.*`, `reliable.*`, plus the aggregation layer's
    /// `agg.*` registered into the same registry).
    pub metrics: Arc<NodeMetrics>,
    /// Shared view of the fabric's traffic counters, folded into
    /// [`NodeHandle::metrics_snapshot`] as `net.*`.
    pub net: Arc<TrafficStats>,
    /// The transport this node is attached to, kept so
    /// [`NodeHandle::metrics_snapshot`] can fold backend-specific
    /// counters (`net.shm.*`) in alongside the shared `net.*` schema.
    pub transport: Arc<dyn Transport>,
    /// This node's membership view: per-peer death flags plus the epoch,
    /// maintained by the communication server's failure detector.
    pub membership: Membership,
    /// Which peers' windows are full, maintained by the communication
    /// server from the link's `Held` / `WindowOpen` / `Dead` actions.
    pub flow: FlowState,
    /// Set (never cleared) once any task on this node runs with an
    /// operation deadline — config-wide or per-task. While clear, helpers
    /// skip the reply-abandon handshake entirely, so undeadlined programs
    /// pay one Acquire load per reply at most.
    pub deadlines_armed: AtomicBool,
    /// Per-peer "gmt_free toward this dead peer already warned" latches.
    pub free_warned: Vec<AtomicBool>,
    /// Operations awaiting an application-level completion, counted per
    /// task and peer: where a reply's token is resolved, and what the
    /// communication server error-completes toward a peer confirmed dead.
    /// Its bound slots are the node's live tasks, which is what the
    /// stuck-task watchdog walks.
    pub ops: OpTable,
}

impl NodeShared {
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Whether `node` was confirmed dead by the failure detector.
    pub fn peer_is_dead(&self, node: NodeId) -> bool {
        self.membership.is_dead(node)
    }

    /// The confirmed-dead set as a bitmask — the form degraded layouts
    /// capture at allocation time.
    ///
    /// # Panics
    ///
    /// Panics past 64 nodes with deaths present (the mask cannot name
    /// them; degraded allocation is capped there).
    pub fn dead_mask(&self) -> u64 {
        let dead = self.membership.dead_nodes();
        if dead.is_empty() {
            return 0;
        }
        assert!(self.nodes <= 64, "degraded allocation supports at most 64 nodes");
        dead.iter().fold(0u64, |m, &n| m | 1 << n)
    }

    /// Marks `node` dead in the membership view; `true` only on the first
    /// confirmation (the epoch bumps exactly once per death).
    pub(crate) fn mark_peer_dead(&self, node: NodeId) -> bool {
        self.membership.mark_dead(node)
    }

    /// Watchdog sweep over the op table's bound slots: reports tasks parked
    /// on remote completions for longer than the configured deadline, and —
    /// when an operation deadline is armed — **enforces** it by
    /// force-waking tasks parked past it (their `wait_commands` then
    /// returns [`GmtError::DeadlineExceeded`]).
    /// Returns how many tasks are currently stuck. One diagnostic is
    /// printed per park (not per sweep).
    ///
    /// Tasks parked toward a **backpressured** peer are exempt from both
    /// the stuck count and deadline enforcement (their park clock keeps
    /// restarting, counted in `watchdog.backpressure_deferrals`): a
    /// throttled link must not read as stuck tasks or trip
    /// `op_deadline_ns` false positives.
    ///
    /// [`GmtError::DeadlineExceeded`]: crate::error::GmtError::DeadlineExceeded
    pub fn sweep_stuck_tasks(&self, now_ns: u64) -> usize {
        let deadline = self.config.stuck_task_deadline_ns;
        let op_deadline = self.config.op_deadline_ns;
        let flow = &self.flow;
        let mut stuck = 0usize;
        // Nothing serialises this walk against another caller's or against
        // the slots being bound again under it: what it writes is one-shot
        // (`claim_warning`, the parked flag `expire_deadline` clears) or
        // addressed to the token seen here (see `OpTable`).
        for (token, ctl) in self.ops.bound() {
            if let Some((since_ns, dst, opcode, pending)) = ctl.parked_info() {
                // A task waiting on a *backpressured* peer is slow, not
                // stuck: the peer is alive, its window is just full. The
                // park clock restarts so neither the stuck report nor
                // op-deadline enforcement fires while flow control is
                // the cause — both re-arm from now once the peer
                // recovers (or its death converts the wait to an error).
                if dst.is_some_and(|d| flow.is_backpressured(d)) {
                    self.metrics.backpressure_deferrals.add(self.metrics.comm_shard(), 1);
                    ctl.note_parked(now_ns);
                    continue;
                }
                let age = now_ns.saturating_sub(since_ns);
                let enforce = match ctl.op_deadline() {
                    0 => op_deadline,
                    per_task => per_task,
                };
                if enforce > 0 && age >= enforce && ctl.expire_deadline(token) {
                    self.metrics.deadline_expired.add(self.metrics.comm_shard(), 1);
                    eprintln!(
                        "[gmt] warn: node {}: operation deadline ({} ms) expired; \
                         force-waking task with {pending} completion(s) in flight",
                        self.node_id,
                        enforce / 1_000_000,
                    );
                    continue;
                }
                if age >= deadline {
                    stuck += 1;
                    if ctl.claim_warning() {
                        let toward = match dst {
                            Some(d) => format!("last command {} toward node {d}", {
                                crate::command::op_name(opcode)
                            }),
                            None => "no command recorded".to_string(),
                        };
                        eprintln!(
                            "[gmt] warn: node {}: task stuck for {} ms waiting on {pending} \
                             completion(s); {toward}",
                            self.node_id,
                            age / 1_000_000,
                        );
                    }
                }
            }
        }
        stuck
    }
}

impl std::fmt::Debug for NodeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeShared").field("node_id", &self.node_id).finish()
    }
}

/// Handle to one node of a running cluster.
pub struct NodeHandle {
    shared: Arc<NodeShared>,
}

impl NodeHandle {
    /// Submits a root task ("task zero") to this node and blocks the
    /// calling (external) thread until it completes, returning its result.
    ///
    /// The closure runs as a GMT task on one of this node's workers, with
    /// full access to the GMT API through the provided [`TaskCtx`].
    ///
    /// # Panics
    ///
    /// If the task panicked, the panic payload is carried back and resumed
    /// on the calling thread with its original message. Panics with a
    /// generic message if the runtime shut down under the task.
    ///
    /// [`TaskCtx`]: crate::api::TaskCtx
    pub fn run<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&crate::api::TaskCtx<'_>) -> R + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        self.shared.root_queue.push(RootTask {
            f: Box::new(move |ctx| {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
                let _ = tx.send(r);
            }),
        });
        match rx.recv() {
            Ok(Ok(r)) => r,
            // Re-raise the task's own panic (payload intact) on the
            // submitting thread instead of a generic channel error.
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => panic!("GMT root task did not complete (runtime shut down)"),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.shared.node_id
    }

    /// Aggregation counters of this node (snapshot summed over the
    /// per-thread statistic shards).
    pub fn agg_stats(&self) -> AggStats {
        self.shared.agg.stats()
    }

    /// Transport failures the communication server observed.
    pub fn net_errors(&self) -> u64 {
        self.shared.metrics.net_errors.sum()
    }

    /// This node's instrument handles (live counters/gauges/histograms).
    pub fn metrics(&self) -> &Arc<NodeMetrics> {
        &self.shared.metrics
    }

    /// A serializable point-in-time view of every instrument of this
    /// node — runtime registry (`worker.*`, `agg.*`, `helper.*`,
    /// `comm.*`, `reliable.*`) plus this node's fabric traffic counters
    /// folded in as `net.*`. `MetricsSnapshot::to_json()` renders it as
    /// JSON.
    ///
    /// Counter shards are summed without stopping writers, so totals are
    /// exact once the node is quiescent (same contract as
    /// [`NodeHandle::agg_stats`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.registry().snapshot();
        for (name, value) in self.shared.net.node(self.shared.node_id).counters() {
            snap.push_counter(name, value);
        }
        for (name, value) in self.shared.transport.backend_counters() {
            snap.push_counter(&name, value);
        }
        snap
    }

    /// Honors `GMT_METRICS_OUT`: when it names a directory, writes
    /// [`NodeHandle::metrics_snapshot`] there as `<tag>-node<id>.json`,
    /// the layout CI uploads as failure artifacts. A failed write is
    /// reported on stderr and otherwise ignored.
    pub fn write_metrics_out(&self, tag: &str) {
        let Ok(dir) = std::env::var("GMT_METRICS_OUT") else { return };
        if dir.is_empty() {
            return;
        }
        let _ = std::fs::create_dir_all(&dir);
        let path = format!("{dir}/{tag}-node{}.json", self.shared.node_id);
        if let Err(e) = std::fs::write(&path, self.metrics_snapshot().to_json()) {
            eprintln!("[gmt] could not write {path}: {e}");
        }
    }

    /// Peers this node has confirmed dead (silence past the death timeout,
    /// an observed link loss, or a death notice from another survivor).
    pub fn dead_peers(&self) -> Vec<NodeId> {
        self.shared.membership.dead_nodes()
    }

    /// This node's membership epoch (confirmed deaths so far). Survivors
    /// of the same cluster converge to identical epochs once death
    /// notices have propagated.
    pub fn membership_epoch(&self) -> u64 {
        self.shared.membership.epoch()
    }

    /// A consistent snapshot of this node's membership view.
    pub fn membership(&self) -> MembershipView {
        self.shared.membership.view()
    }

    /// Runs a watchdog sweep now and returns the number of tasks parked on
    /// remote completions past the configured deadline. Tasks waiting on
    /// a [backpressured](Self::backpressured_peers) peer are reported
    /// separately, never as stuck.
    pub fn stuck_tasks(&self) -> usize {
        let now = self.shared.agg.tick();
        self.shared.sweep_stuck_tasks(now)
    }

    /// Peers this node currently holds traffic for because their
    /// in-flight window is full (slow or throttled, but **alive** —
    /// disjoint from [`dead_peers`](Self::dead_peers)).
    pub fn backpressured_peers(&self) -> Vec<NodeId> {
        self.shared.flow.backpressured_peers()
    }

    /// Live global allocations on this node.
    pub fn live_allocations(&self) -> usize {
        self.shared.memory.live_allocations()
    }

    /// Low-level access to the node's shared state (benchmark harness and
    /// tests; not part of the paper's API surface).
    pub fn shared(&self) -> &Arc<NodeShared> {
        &self.shared
    }
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle").field("node", &self.shared.node_id).finish()
    }
}

/// A running in-process GMT cluster (every node as threads of this
/// process, over the sim fabric, a TCP loopback mesh or shared-memory
/// rings).
pub struct Cluster {
    nodes: Vec<NodeHandle>,
    /// `Some` on the sim backend only: the owner of the wire thread under
    /// the endpoints below, dropped (which drains it in bounded time)
    /// after they shut down.
    fabric: Option<Fabric>,
    /// One transport per node; explicitly shut down (drained) after the
    /// comm threads join.
    transports: Vec<Arc<dyn Transport>>,
    /// Cluster-wide traffic counters (all transports of one in-process
    /// cluster share a single table on either backend).
    net: Arc<TrafficStats>,
    /// One comm-server thread per node; each joins its node's workers and
    /// helpers before it returns.
    threads: Vec<JoinHandle<()>>,
    stopped: bool,
    trace: Option<TraceHub>,
}

/// Event-trace collection for the nodes one process hosts (all of a
/// [`Cluster`]'s, the one of a [`NodeRuntime`]): one SPSC lane per runtime
/// thread, exported as Chrome `trace_event` JSON after every thread joined.
struct TraceHub {
    sink: Arc<TraceSink>,
    path: PathBuf,
    first_node: NodeId,
    lanes_per_node: usize,
}

impl TraceHub {
    /// Builds the hub for `nodes` when `GMT_TRACE=chrome:<dir>` is set. The
    /// value always names a directory and every hub writes its own file
    /// there, so the clusters of one test binary and the node processes of
    /// one launch — all of which see the variable — never share a path.
    fn from_env(nodes: std::ops::Range<NodeId>, config: &Config) -> Option<TraceHub> {
        let spec = std::env::var("GMT_TRACE").ok()?;
        let Some(dir) = spec.strip_prefix("chrome:").filter(|d| !d.is_empty()) else {
            eprintln!("[gmt] warn: GMT_TRACE={spec:?} ignored (expected chrome:<dir>)");
            return None;
        };
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(dir).join(format!("gmt-trace-{}-{n}.json", std::process::id()));
        let (workers, helpers) = (config.num_workers, config.num_helpers);
        let first_node = nodes.start;
        let mut sink = TraceSink::new(crate::config::TRACE_CAPACITY);
        for node in nodes {
            for w in 0..workers {
                sink.add_lane(format!("n{node}.worker{w}"), node as u64, w as u64);
            }
            for h in 0..helpers {
                sink.add_lane(format!("n{node}.helper{h}"), node as u64, (workers + h) as u64);
            }
            sink.add_lane(format!("n{node}.comm"), node as u64, (workers + helpers) as u64);
        }
        Some(TraceHub {
            sink: Arc::new(sink),
            path,
            first_node,
            lanes_per_node: workers + helpers + 1,
        })
    }

    /// The tracer for `lane_in_node` (channel index; comm server =
    /// workers + helpers) of `node`.
    fn tracer(&self, node: NodeId, lane_in_node: usize) -> ThreadTracer {
        let lane = (node - self.first_node) * self.lanes_per_node + lane_in_node;
        ThreadTracer::new(self.sink.writer(lane))
    }

    /// Writes the trace file. Every runtime thread must have joined, so
    /// that all `LaneWriter`s are dropped and the sink is sole-owned again.
    fn export(self) {
        let Some(mut sink) = Arc::into_inner(self.sink) else {
            eprintln!("[gmt] warn: trace sink still shared; export skipped");
            return;
        };
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&self.path, sink.chrome_trace_json()) {
            Ok(()) => eprintln!("[gmt] trace written to {}", self.path.display()),
            Err(e) => eprintln!("[gmt] warn: writing trace {}: {e}", self.path.display()),
        }
    }
}

/// One booted node: its shared state plus its comm-server thread, which
/// joins the node's workers and helpers before it returns.
struct NodeBoot {
    shared: Arc<NodeShared>,
    comm: JoinHandle<()>,
}

/// Brings up one node over an already-built transport: allocates its
/// shared state and spawns its worker/helper/comm threads. Common to
/// [`Cluster`] (N nodes in-process) and [`NodeRuntime`] (one node per
/// process).
fn boot_node(
    node_id: NodeId,
    nodes: usize,
    config: &Config,
    cluster_shared: &Arc<ClusterShared>,
    transport: Arc<dyn Transport>,
    trace: Option<&TraceHub>,
) -> Result<NodeBoot, String> {
    let threads_per_node = config.num_workers + config.num_helpers;
    if config.buffer_size > transport.max_frame() {
        return Err(format!(
            "buffer_size {} does not fit this transport's largest frame ({} B)",
            config.buffer_size,
            transport.max_frame()
        ));
    }
    // The tracer of one runtime thread; an empty handle unless GMT_TRACE
    // was set.
    let make_tracer = |lane: usize| match trace {
        Some(hub) => hub.tracer(node_id, lane),
        None => ThreadTracer::disabled(),
    };
    let metrics = NodeMetrics::new(config.num_workers, config.num_helpers);
    let agg = AggShared::new_in_registry(
        nodes,
        threads_per_node,
        config.num_buf_per_channel,
        config.buffer_size,
        config.cmd_block_entries,
        config.cmd_block_timeout_ns,
        config.aggregation_timeout_ns,
        crate::reliable::HEADER_LEN,
        config.combine_window,
        metrics.registry(),
    );
    let shared = Arc::new(NodeShared {
        node_id,
        nodes,
        config: config.clone(),
        memory: NodeMemory::new(),
        agg,
        itb_queue: SegQueue::new(),
        root_queue: SegQueue::new(),
        helper_in: SegQueue::new(),
        stop: AtomicBool::new(false),
        cluster: Arc::clone(cluster_shared),
        metrics,
        net: Arc::clone(transport.stats()),
        transport: Arc::clone(&transport),
        membership: Membership::new(nodes),
        flow: FlowState::new(nodes),
        deadlines_armed: AtomicBool::new(config.op_deadline_ns > 0),
        free_warned: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
        ops: OpTable::new(nodes),
    });
    let mut emitters = Vec::with_capacity(threads_per_node);
    for w in 0..config.num_workers {
        let s = Arc::clone(&shared);
        let tracer = make_tracer(w);
        emitters.push(
            std::thread::Builder::new()
                .name(format!("gmt-n{node_id}-w{w}"))
                .spawn(move || worker::worker_main(s, w, tracer))
                .map_err(|e| format!("spawning worker: {e}"))?,
        );
    }
    for h in 0..config.num_helpers {
        let s = Arc::clone(&shared);
        let chan = config.num_workers + h;
        let tracer = make_tracer(chan);
        emitters.push(
            std::thread::Builder::new()
                .name(format!("gmt-n{node_id}-h{h}"))
                .spawn(move || helper::helper_main(s, chan, tracer))
                .map_err(|e| format!("spawning helper: {e}"))?,
        );
    }
    let s = Arc::clone(&shared);
    let tracer = make_tracer(threads_per_node);
    let comm = std::thread::Builder::new()
        .name(format!("gmt-n{node_id}-comm"))
        .spawn(move || commserver::comm_main(s, transport, tracer, emitters))
        .map_err(|e| format!("spawning comm server: {e}"))?;
    Ok(NodeBoot { shared, comm })
}

impl Cluster {
    /// Starts `nodes` GMT node instances with the given per-node config,
    /// on the backend the `GMT_TRANSPORT` environment variable selects
    /// (`sim`, the default, `tcp-loopback`, or `shm` — the CI transport
    /// matrix). A config with a network cost model always runs on the
    /// sim: throttled delivery is what enforces the model.
    pub fn start(nodes: usize, config: Config) -> Result<Cluster, String> {
        let select = if config.network.is_some() {
            TransportSelect::Sim
        } else {
            TransportSelect::from_env()?
        };
        Self::start_with(nodes, config, select)
    }

    /// Starts a cluster pinned to the simulated fabric, regardless of
    /// `GMT_TRANSPORT`. Time-shaping faults and network cost models only
    /// exist here.
    pub fn start_sim(nodes: usize, config: Config) -> Result<Cluster, String> {
        Self::start_with(nodes, config, TransportSelect::Sim)
    }

    /// Starts a cluster pinned to the TCP loopback mesh: real sockets,
    /// real framing, one process. The comm stack (reliability,
    /// membership, flow control) runs unchanged; seeded [`FaultPlan`]s
    /// work via the frame shim, cost models do not.
    pub fn start_tcp_loopback(nodes: usize, config: Config) -> Result<Cluster, String> {
        Self::start_with(nodes, config, TransportSelect::TcpLoopback)
    }

    /// Starts a cluster pinned to the shared-memory ring mesh: real
    /// frames through lock-free SPSC rings, one process. The comm stack
    /// runs unchanged; seeded [`FaultPlan`]s work via the frame shim,
    /// cost models do not.
    pub fn start_shm(nodes: usize, config: Config) -> Result<Cluster, String> {
        Self::start_with(nodes, config, TransportSelect::Shm)
    }

    fn start_with(
        nodes: usize,
        config: Config,
        select: TransportSelect,
    ) -> Result<Cluster, String> {
        if nodes == 0 {
            return Err("a cluster needs at least one node".into());
        }
        config.validate()?;
        if select != TransportSelect::Sim && config.network.is_some() {
            return Err("a network cost model needs the sim backend (throttled delivery); \
                 use Cluster::start_sim"
                .into());
        }
        fn erase<T: Transport + 'static>(mesh: Vec<T>) -> Vec<Arc<dyn Transport>> {
            mesh.into_iter().map(|t| Arc::new(t) as Arc<dyn Transport>).collect()
        }
        let mut fabric = None;
        let transports = match select {
            TransportSelect::Sim => {
                let mode = match config.network {
                    Some(model) => DeliveryMode::Throttled(model),
                    None => DeliveryMode::Instant,
                };
                erase(fabric.insert(Fabric::new(nodes, mode)).endpoints())
            }
            TransportSelect::TcpLoopback => erase(
                loopback_mesh(nodes).map_err(|e| format!("building the TCP loopback mesh: {e}"))?,
            ),
            TransportSelect::Shm => erase(
                shm_mesh(nodes)
                    .map_err(|e| format!("building the shared-memory ring mesh: {e}"))?,
            ),
        };
        let net = Arc::clone(transports[0].stats());
        let cluster_shared = Arc::new(ClusterShared {
            next_alloc_id: AtomicU64::new(1),
            alloc_stride: 1,
            cross_process: false,
        });
        let trace = TraceHub::from_env(0..nodes, &config);
        let mut handles = Vec::with_capacity(nodes);
        let mut threads = Vec::new();
        for (node_id, transport) in transports.iter().enumerate() {
            let boot = boot_node(
                node_id,
                nodes,
                &config,
                &cluster_shared,
                Arc::clone(transport),
                trace.as_ref(),
            )?;
            threads.push(boot.comm);
            handles.push(NodeHandle { shared: boot.shared });
        }
        Ok(Cluster { nodes: handles, fabric, transports, net, threads, stopped: false, trace })
    }

    /// Handle to node `i`.
    pub fn node(&self, i: NodeId) -> &NodeHandle {
        &self.nodes[i]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Network traffic counters (messages/bytes per node), whichever
    /// backend carries them.
    pub fn net_stats(&self) -> &TrafficStats {
        &self.net
    }

    /// Installs a seeded [`FaultPlan`] on every node's send path,
    /// whichever backend this cluster runs. Drop/dup/flap/kill replay
    /// identically from a seed on all three; time-shaping faults (jitter,
    /// throttle, stall) need the cost model and only act on the sim. Over
    /// TCP a kill also severs the victim's streams, and over shm its
    /// rings (real crash semantics), which [`Cluster::clear_faults`]
    /// cannot undo.
    pub fn install_faults(&self, plan: FaultPlan) {
        for t in &self.transports {
            t.install_faults(plan.clone());
        }
    }

    /// Removes any installed fault plan from every node's send path.
    pub fn clear_faults(&self) {
        for t in &self.transports {
            t.clear_faults();
        }
    }

    /// Stops every node and joins all runtime threads.
    ///
    /// Outstanding root tasks are not awaited: callers own their joins via
    /// [`NodeHandle::run`]'s blocking behaviour.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for n in &self.nodes {
            n.shared.stop.store(true, Ordering::SeqCst);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Drain the transports after every comm thread is gone (the
        // Transport contract: bounded, idempotent, pools stay whole).
        for t in &self.transports {
            t.shutdown();
        }
        drop(self.fabric.take());
        if let Some(hub) = self.trace.take() {
            hub.export();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("nodes", &self.nodes.len()).finish()
    }
}

/// One GMT node running in *this* process as part of a multi-process
/// cluster — the shape `gmt-launch` boots N of.
///
/// Where [`Cluster`] owns every node, a `NodeRuntime` owns exactly one:
/// the same worker/helper/comm thread complement, attached to an
/// externally-built [`Transport`] (normally from
/// [`gmt_net::connect`]) whose `node()`/`nodes()` determine this
/// node's identity. The reliability, membership and flow-control layers
/// run unchanged; every peer is simply in another process.
///
/// Allocation ids are minted process-locally with a stride (node `k` of
/// `N` mints `k+1, k+1+N, k+2N+1, …`), so no cross-process counter is
/// needed and ids from different nodes never collide.
pub struct NodeRuntime {
    node: NodeHandle,
    transport: Arc<dyn Transport>,
    /// The comm-server thread, which joins the workers and helpers.
    comm: Option<JoinHandle<()>>,
    stopped: bool,
    trace: Option<TraceHub>,
}

impl NodeRuntime {
    /// Boots this process's node over `transport`.
    ///
    /// Fails on an invalid config or one with a network cost model —
    /// cost models are enforced by the sim fabric's throttled delivery,
    /// which has no multi-process equivalent.
    pub fn start(transport: Arc<dyn Transport>, config: Config) -> Result<NodeRuntime, String> {
        config.validate()?;
        if config.network.is_some() {
            return Err("a network cost model needs the sim backend (Cluster::start_sim)".into());
        }
        let node_id = transport.node();
        let nodes = transport.nodes();
        let cluster_shared = Arc::new(ClusterShared {
            next_alloc_id: AtomicU64::new(1 + node_id as u64),
            alloc_stride: nodes as u64,
            cross_process: true,
        });
        let trace = TraceHub::from_env(node_id..node_id + 1, &config);
        let boot = boot_node(
            node_id,
            nodes,
            &config,
            &cluster_shared,
            Arc::clone(&transport),
            trace.as_ref(),
        )?;
        Ok(NodeRuntime {
            node: NodeHandle { shared: boot.shared },
            transport,
            comm: Some(boot.comm),
            stopped: false,
            trace,
        })
    }

    /// Handle to this process's node (submit root tasks, read metrics).
    pub fn node(&self) -> &NodeHandle {
        &self.node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// Cluster size.
    pub fn nodes(&self) -> usize {
        self.node.shared().nodes
    }

    /// Stops this node's threads and drains its transport. Peers are
    /// *not* told — coordinate end-of-job first (gmt-launch uses the
    /// rendezvous control channel), or surviving peers will eventually
    /// declare this node dead.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.node.shared().stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.comm.take() {
            let _ = t.join();
        }
        self.transport.shutdown();
        if let Some(hub) = self.trace.take() {
            hub.export();
        }
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("node", &self.node.id())
            .field("nodes", &self.nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::FlowState;

    #[test]
    fn flow_state_tracks_backpressured_peers() {
        let flow = FlowState::new(4);
        assert!(flow.backpressured_peers().is_empty());
        flow.set_backpressured(2, true);
        flow.set_backpressured(2, true); // idempotent
        assert!(flow.is_backpressured(2));
        assert_eq!(flow.backpressured_peers(), vec![2]);
        flow.set_backpressured(1, true);
        assert_eq!(flow.backpressured_peers(), vec![1, 2]);
        flow.set_backpressured(2, false);
        flow.set_backpressured(2, false); // idempotent clear
        flow.set_backpressured(1, false);
        assert!(flow.backpressured_peers().is_empty());
    }
}
