//! Runtime instrumentation: the per-node metrics registry and the event
//! tracer.
//!
//! Every instrument the runtime exposes is registered here, once, at node
//! bring-up — [`NodeMetrics::new`] names them all, so this module is the
//! catalogue of what [`NodeHandle::metrics_snapshot`] reports:
//!
//! | prefix      | instruments                                                         |
//! |-------------|---------------------------------------------------------------------|
//! | `worker.*`  | task-state transitions: context switches, spawns/finishes/panics,   |
//! |             | parks, wakeups, iteration-block claims; live/parked task gauges     |
//! | `agg.*`     | aggregation pipeline: commands, blocks, buffers, timeout and idle   |
//! |             | flushes, pool waits/drops, buffer fill-level histogram (registered  |
//! |             | by [`AggShared::new_in_registry`])                                  |
//! | `helper.*`  | commands executed, by opcode; batched-datapath efficiency           |
//! |             | (`helper.batch.*`: buffers batched, same-segment run lengths,       |
//! |             | segments resolved per buffer, same-offset RMWs merged)              |
//! | `comm.*`    | buffers/bytes over the wire, sweep-gap and buffers-per-sweep        |
//! |             | histograms, transport errors                                        |
//! | `reliable.*`| retransmits, piggybacked vs standalone acks, dedup hits, dead peers |
//! | `net.flow.*`| flow control: window-occupancy histogram at stamp time, unacked     |
//! |             | high-water gauge, buffers held at the window, backpressure          |
//! |             | transitions, emit parks + park-time histogram, shed combine-flushes |
//! | `detector.*`| failure detector: heartbeats sent/received, suspicions raised/      |
//! |             | cleared, death notices sent/received, membership epoch bumps        |
//! | `free.*`    | `gmt_free` toward dead peers (swallowed `RemoteDead`s)              |
//! | `watchdog.*`| operation deadlines expired (enforcement force-wakes);              |
//! |             | backpressure deferrals (parked tasks excused from stuck reporting)  |
//!
//! Counters are sharded one cell per runtime thread (workers, helpers,
//! plus one shard for the communication server), so hot-path updates are
//! relaxed adds on thread-private cache lines — the same discipline the
//! aggregation statistics used before they were folded in here. Time
//! histograms are fed from the coarse clock; nothing in this module calls
//! `Instant::now` on a hot path.
//!
//! [`ThreadTracer`] is the per-thread handle of the event tracer. When
//! `GMT_TRACE` is set at boot (`GMT_TRACE=chrome:/tmp/run/`, a directory),
//! each runtime thread writes to its own SPSC ring ([`gmt_metrics::trace`])
//! and the cluster — or, in a multi-process run, each node — exports
//! Chrome `trace_event` JSON to a file of its own there at shutdown. Unset,
//! every handle is empty and a call site costs one branch.
//!
//! [`NodeHandle::metrics_snapshot`]: crate::runtime::NodeHandle::metrics_snapshot
//! [`AggShared::new_in_registry`]: crate::aggregation::AggShared::new_in_registry

use crate::command;
use gmt_metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Number of wire opcodes (`command::op_name` covers `1..=N_OPCODES`).
pub const N_OPCODES: usize = 12;

/// Every named instrument of one node, with resolved handles so hot paths
/// never touch the registry lock.
pub struct NodeMetrics {
    registry: Arc<Registry>,
    /// Counter shard of the communication-server thread (workers and
    /// helpers use their channel index).
    comm_shard: usize,

    // -- workers ------------------------------------------------------
    /// Coroutine resumes (each is one user-level context switch; the
    /// switch back is implied).
    pub ctx_switches: Counter,
    pub tasks_spawned: Counter,
    pub tasks_finished: Counter,
    pub tasks_panicked: Counter,
    /// Blocking yields that actually parked (pending remote completions).
    pub task_parks: Counter,
    /// Ready-queue pops (helper-driven re-readies of parked tasks).
    pub wakeups: Counter,
    /// Chunks claimed from iteration blocks — the shared-queue analogue
    /// of steal attempts in a work-stealing runtime.
    pub itb_claims: Counter,
    pub live_tasks: Gauge,
    /// Tasks parked on remote completions. Every ready-queue entry is one
    /// park, so the gauge returns to 0 once the node is quiescent.
    pub parked_tasks: Gauge,

    // -- helpers ------------------------------------------------------
    /// Commands executed, indexed by `opcode - 1`
    /// (`helper.cmd.<op_name>`).
    pub cmd_counters: Vec<Counter>,
    /// Received buffers processed by the helpers.
    pub batch_buffers: Counter,
    /// Length of each same-segment run applied through one
    /// `NodeMemory::with` resolution (batching efficiency: long
    /// runs amortize the generation-checked lookup well).
    pub batch_run_len: Histogram,
    /// Distinct segment resolutions per buffer (lower is better; one per
    /// command is the unbatched cost).
    pub batch_segments_per_buffer: Histogram,
    /// Atomic adds absorbed by the same-offset pre-merge (each is one
    /// RMW that never happened).
    pub batch_rmw_merged: Counter,

    // -- communication server ----------------------------------------
    pub comm_buffers_sent: Counter,
    pub comm_bytes_sent: Counter,
    pub comm_buffers_recv: Counter,
    pub comm_bytes_recv: Counter,
    /// Transport failures (send errors, malformed packets).
    pub net_errors: Counter,
    /// Coarse-clock gap between sweeps that moved traffic (ns).
    pub sweep_gap_ns: Histogram,
    /// Aggregation buffers shipped per progressing sweep.
    pub sweep_buffers: Histogram,

    // -- reliability layer -------------------------------------------
    pub retransmits: Counter,
    /// Pending acks that rode out on a data buffer instead of costing a
    /// standalone packet.
    pub acks_piggybacked: Counter,
    pub acks_standalone: Counter,
    /// Inbound buffers suppressed as duplicates.
    pub dedup_hits: Counter,
    pub peers_dead: Counter,
    /// Operations error-completed because their destination was confirmed
    /// dead (the death sweep and every later re-drain).
    pub ops_failed: Counter,

    // -- flow control (`net.flow.*`) ---------------------------------
    /// Unacked in-flight buffers toward the destination at each data
    /// stamp (window occupancy; a full histogram tail means the window
    /// binds).
    pub flow_window_occupancy: Histogram,
    /// High-water mark of any peer's unacked count (the slow-peer soak
    /// asserts this never exceeds `flow_window`). Comm-thread-only
    /// writer; maintained as a max via add-the-delta.
    pub flow_unacked_watermark: Gauge,
    /// Buffers currently held back at the sender by a closed window.
    pub flow_held: Gauge,
    /// Buffers that had to be held at submission (window full).
    pub flow_holds: Counter,
    /// Peer transitions into the Backpressured state.
    pub flow_backpressure_events: Counter,
    /// Emitting tasks parked on a backpressured destination.
    pub flow_parks: Counter,
    /// Coarse time each such park lasted before the window reopened (or
    /// the park deadline let the emit proceed).
    pub flow_park_ns: Histogram,

    // -- failure detector / membership -------------------------------
    /// Standalone heartbeats emitted (idle links only).
    pub heartbeats_sent: Counter,
    pub heartbeats_recv: Counter,
    /// Suspicions raised against silent peers.
    pub suspicions_raised: Counter,
    /// Suspicions cleared by renewed traffic.
    pub suspicions_cleared: Counter,
    /// Death notices disseminated to survivors.
    pub notices_sent: Counter,
    /// Death notices received from survivors.
    pub notices_received: Counter,
    /// Membership epoch bumps (first confirmations of a death).
    pub epoch_bumps: Counter,

    // -- graceful degradation ----------------------------------------
    /// `gmt_free` toward an already-dead peer: the `RemoteDead` is
    /// swallowed by design (the allocation dies with the peer) but
    /// counted here.
    pub free_remote_dead_swallowed: Counter,
    /// Operation deadlines expired by the watchdog (enforcement).
    pub deadline_expired: Counter,
    /// Watchdog sweeps that excused a parked task because its destination
    /// peer was merely backpressured: the park's age clock restarts
    /// instead of reporting it stuck or expiring its deadline.
    pub backpressure_deferrals: Counter,
}

impl NodeMetrics {
    /// Registers every runtime instrument. `workers + helpers` channel
    /// threads get shards `0..workers+helpers`; the communication server
    /// writes shard `workers + helpers`.
    pub fn new(workers: usize, helpers: usize) -> Arc<Self> {
        let threads = workers + helpers;
        let registry = Arc::new(Registry::new(threads + 1));
        let r = &registry;
        Arc::new(NodeMetrics {
            comm_shard: threads,
            ctx_switches: r.counter("worker.ctx_switches"),
            tasks_spawned: r.counter("worker.tasks_spawned"),
            tasks_finished: r.counter("worker.tasks_finished"),
            tasks_panicked: r.counter("worker.tasks_panicked"),
            task_parks: r.counter("worker.task_parks"),
            wakeups: r.counter("worker.wakeups"),
            itb_claims: r.counter("worker.itb_claims"),
            live_tasks: r.gauge("worker.live_tasks"),
            parked_tasks: r.gauge("worker.parked_tasks"),
            cmd_counters: (1..=N_OPCODES as u8)
                .map(|op| r.counter(&format!("helper.cmd.{}", command::op_name(op))))
                .collect(),
            batch_buffers: r.counter("helper.batch.buffers"),
            batch_run_len: r.histogram("helper.batch.run_len", &[1, 2, 4, 8, 16, 32, 64, 128]),
            batch_segments_per_buffer: r
                .histogram("helper.batch.segments_per_buffer", &[1, 2, 4, 8, 16, 32]),
            batch_rmw_merged: r.counter("helper.batch.rmw_merged"),
            comm_buffers_sent: r.counter("comm.buffers_sent"),
            comm_bytes_sent: r.counter("comm.bytes_sent"),
            comm_buffers_recv: r.counter("comm.buffers_recv"),
            comm_bytes_recv: r.counter("comm.bytes_recv"),
            net_errors: r.counter("comm.net_errors"),
            sweep_gap_ns: r.histogram(
                "comm.sweep_gap_ns",
                // 10 µs .. 10 ms: a progressing sweep under instant
                // delivery lands in the first buckets; throttled runs and
                // scheduler preemption fill the tail.
                &[10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000],
            ),
            sweep_buffers: r.histogram("comm.sweep_buffers", &[1, 2, 4, 8, 16, 32]),
            retransmits: r.counter("reliable.retransmits"),
            acks_piggybacked: r.counter("reliable.acks_piggybacked"),
            acks_standalone: r.counter("reliable.acks_standalone"),
            dedup_hits: r.counter("reliable.dedup_hits"),
            peers_dead: r.counter("reliable.peers_dead"),
            ops_failed: r.counter("reliable.ops_failed"),
            flow_window_occupancy: r.histogram(
                "net.flow.window",
                // Power-of-two occupancy buckets around the default
                // window of 32; the tail bucket collects windowless runs.
                &[1, 2, 4, 8, 16, 32, 64, 128],
            ),
            flow_unacked_watermark: r.gauge("net.flow.unacked_watermark"),
            flow_held: r.gauge("net.flow.held"),
            flow_holds: r.counter("net.flow.holds"),
            flow_backpressure_events: r.counter("net.flow.backpressure_events"),
            flow_parks: r.counter("net.flow.parks"),
            flow_park_ns: r.histogram(
                "net.flow.park_ns",
                // 10 µs .. 10 ms: sub-sweep parks land in the first
                // buckets, watchdog-bounded parks in the tail.
                &[10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000],
            ),
            heartbeats_sent: r.counter("detector.heartbeats_sent"),
            heartbeats_recv: r.counter("detector.heartbeats_recv"),
            suspicions_raised: r.counter("detector.suspicions_raised"),
            suspicions_cleared: r.counter("detector.suspicions_cleared"),
            notices_sent: r.counter("detector.notices_sent"),
            notices_received: r.counter("detector.notices_received"),
            epoch_bumps: r.counter("detector.epoch_bumps"),
            free_remote_dead_swallowed: r.counter("free.remote_dead_swallowed"),
            deadline_expired: r.counter("watchdog.deadline_expired"),
            backpressure_deferrals: r.counter("watchdog.backpressure_deferrals"),
            registry,
        })
    }

    /// The registry all instruments live in (snapshots; registering
    /// additional instruments such as the aggregation layer's).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Counter shard of the communication-server thread.
    #[inline]
    pub fn comm_shard(&self) -> usize {
        self.comm_shard
    }

    /// The counter for commands of `opcode` (1-based wire opcode).
    #[inline]
    pub fn cmd_counter(&self, opcode: u8) -> &Counter {
        &self.cmd_counters[(opcode - 1) as usize]
    }
}

impl std::fmt::Debug for NodeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMetrics").field("comm_shard", &self.comm_shard).finish()
    }
}

/// Per-thread tracer handle: the writer of this thread's lane when
/// `GMT_TRACE` was set at boot, `None` otherwise — every call is then one
/// predicted branch.
pub struct ThreadTracer {
    writer: Option<gmt_metrics::trace::LaneWriter>,
}

impl ThreadTracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        ThreadTracer { writer: None }
    }

    pub(crate) fn new(writer: Option<gmt_metrics::trace::LaneWriter>) -> Self {
        ThreadTracer { writer }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.writer.is_some()
    }

    /// Nanoseconds on the trace timebase (0 when disabled) — pair with
    /// [`Self::span`].
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.writer.as_ref().map_or(0, |w| w.now_ns())
    }

    /// Records a span from `start_ns` (a prior [`Self::now_ns`]) to now.
    #[inline]
    pub fn span(&self, name: &'static str, start_ns: u64, arg: u64) {
        if let Some(w) = &self.writer {
            w.span(name, start_ns, arg);
        }
    }

    /// Records an instant event.
    #[inline]
    pub fn instant(&self, name: &'static str, arg: u64) {
        if let Some(w) = &self.writer {
            w.instant(name, arg);
        }
    }
}

impl std::fmt::Debug for ThreadTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTracer").field("enabled", &self.enabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_register_and_snapshot() {
        let m = NodeMetrics::new(2, 1);
        assert_eq!(m.comm_shard(), 3);
        m.ctx_switches.add(0, 5);
        m.ctx_switches.add(1, 7);
        m.cmd_counter(1).add(2, 3); // put, helper shard
        m.comm_bytes_sent.add(m.comm_shard(), 1024);
        m.live_tasks.inc();
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("worker.ctx_switches"), Some(12));
        assert_eq!(snap.counter("helper.cmd.put"), Some(3));
        assert_eq!(snap.counter("comm.bytes_sent"), Some(1024));
        assert_eq!(snap.gauge("worker.live_tasks"), Some(1));
        assert!(snap.histogram("comm.sweep_gap_ns").is_some());
        // One counter per opcode, all named.
        for op in 1..=N_OPCODES as u8 {
            let name = format!("helper.cmd.{}", command::op_name(op));
            assert_eq!(snap.counter(&name), Some(if op == 1 { 3 } else { 0 }), "{name}");
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = ThreadTracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.now_ns(), 0);
        t.span("x", 0, 0);
        t.instant("y", 1);
    }
}
