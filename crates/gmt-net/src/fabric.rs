//! The in-process interconnect fabric: the sim leaf of the framed
//! transport.
//!
//! A [`Fabric`] connects `n` nodes; each node holds an [`Endpoint`] — a
//! [`FramedTransport`] over a [`SimLink`] — with MPI-like semantics:
//! non-blocking `send`, polled `try_recv`, blocking `recv`. The
//! [`framed`](crate::framed) core owns everything a frame transport
//! does regardless of its medium (the inbox and the self-send loopback,
//! the fault shim, traffic accounting, the shutdown gate); the leaf only
//! hands each payload to the destination node's inbox, zero-copy, like an
//! MPI point-to-point message on one communicator: per-link FIFO.
//!
//! Two delivery modes:
//!
//! * [`DeliveryMode::Instant`] — messages become receivable immediately.
//!   Used by functional tests and by benchmarks that account time through
//!   the cost model instead of wall clock.
//! * [`DeliveryMode::Throttled`] — a wire thread enforces the
//!   [`NetworkModel`] in wall-clock time: each source's injection port
//!   serializes its messages (`overhead + bytes/bandwidth`) and delivery
//!   happens one wire latency later. This makes latency-tolerance effects
//!   (the whole point of GMT's multithreading) observable for real inside
//!   one process. The time-shaping faults of a [`FaultPlan`](crate::FaultPlan)
//!   (throttle, stall, jitter) act here and only here.

use crate::fault::FaultDecision;
use crate::framed::{Core, FramedTransport, Link, MAX_FRAME};
use crate::model::NetworkModel;
use crate::payload::Payload;
use crate::stats::TrafficStats;
use crate::transport::Transport;
use crate::NodeId;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Message tag, like an MPI tag: lets receivers classify traffic.
pub type Tag = u32;

/// A message in flight.
///
/// The payload may be a pooled buffer travelling zero-copy from the
/// sender's aggregation pipeline; dropping the packet (after processing)
/// returns such a buffer to its pool. See [`Payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub src: NodeId,
    pub dst: NodeId,
    pub tag: Tag,
    pub payload: Payload,
}

/// Errors surfaced by a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination is out of range.
    NoSuchNode { dst: NodeId, nodes: usize },
    /// The connection to `dst` is gone: a write failed, a kill severed
    /// the link, or the peer shut down.
    LinkDown { src: NodeId, dst: NodeId },
    /// This transport (or the fabric's wire under it) has been shut down.
    Closed,
    /// The payload exceeds what one frame can carry on this transport.
    FrameTooLarge { len: usize, max: usize },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoSuchNode { dst, nodes } => {
                write!(f, "destination node {dst} out of range (fabric has {nodes} nodes)")
            }
            NetError::LinkDown { src, dst } => write!(f, "link {src} -> {dst} is down"),
            NetError::Closed => write!(f, "fabric closed"),
            NetError::FrameTooLarge { len, max } => {
                write!(f, "{len} B payload exceeds the transport's {max} B frame limit")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// How messages travel from sender to receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Immediate delivery; the cost model is not enforced in wall time.
    Instant,
    /// A wire thread enforces the embedded [`NetworkModel`] in wall time.
    Throttled(NetworkModel),
}

/// What every endpoint of one fabric shares.
struct Sim {
    mode: DeliveryMode,
    /// Inboxes, one per node.
    inboxes: Vec<Sender<Packet>>,
    /// What to wake after a delivery into each inbox; see
    /// [`Link::wake_on_arrival`].
    arrivals: Arrivals,
    /// Whether each node's endpoint still takes frames: its shutdown
    /// closes it, and a push toward it is then a lost link. A flag that
    /// publishes no other data, hence `Relaxed`.
    open: Vec<AtomicBool>,
    /// Wire-thread input (throttled mode only). Taken out (disconnecting
    /// the channel) when the fabric drops, so the wire thread exits and
    /// can be joined; subsequent sends observe [`NetError::Closed`].
    wire_tx: RwLock<Option<Sender<(Instant, Packet)>>>,
    /// Per-source injection port (throttled mode): busy serializing until
    /// this instant.
    ports: Vec<Mutex<Instant>>,
    /// `Arc` so the runtime can keep reading traffic counters (metrics
    /// snapshots) without holding the whole fabric alive.
    stats: Arc<TrafficStats>,
}

/// An in-process cluster interconnect between `n` nodes.
pub struct Fabric {
    sim: Arc<Sim>,
    inbox_rx: Vec<Receiver<Packet>>,
    wire_thread: Option<JoinHandle<()>>,
}

/// One node's attachment to the fabric.
pub type Endpoint = FramedTransport<SimLink>;

impl Fabric {
    /// Builds a fabric connecting `nodes` nodes.
    pub fn new(nodes: usize, mode: DeliveryMode) -> Self {
        assert!(nodes > 0, "a fabric needs at least one node");
        let (inboxes, inbox_rx): (Vec<_>, Vec<_>) =
            (0..nodes).map(|_| channel::unbounded::<Packet>()).unzip();
        let arrivals: Arrivals = (0..nodes).map(|_| OnceLock::new()).collect();
        let (wire_tx, wire_thread) = match mode {
            DeliveryMode::Instant => (None, None),
            DeliveryMode::Throttled(_) => {
                let (tx, rx) = channel::unbounded::<(Instant, Packet)>();
                let (inboxes, arrivals) = (inboxes.clone(), Arc::clone(&arrivals));
                let handle = std::thread::Builder::new()
                    .name("gmt-net-wire".into())
                    .spawn(move || wire_loop(rx, inboxes, arrivals))
                    .expect("spawn wire thread");
                (Some(tx), Some(handle))
            }
        };
        let now = Instant::now();
        let sim = Arc::new(Sim {
            mode,
            inboxes,
            arrivals,
            open: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            wire_tx: RwLock::new(wire_tx),
            ports: (0..nodes).map(|_| Mutex::new(now)).collect(),
            stats: Arc::new(TrafficStats::new(nodes)),
        });
        Fabric { sim, inbox_rx, wire_thread }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.inbox_rx.len()
    }

    /// Traffic counters (the `Arc` outlives the fabric).
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.sim.stats
    }

    /// Creates the endpoint for `node`, with its own fault plan and
    /// shutdown gate. One per node at a time: its shutdown (or drop)
    /// closes the node's inbox to new frames.
    pub fn endpoint(&self, node: NodeId) -> Endpoint {
        let sim = &self.sim;
        let core = Core::new(node, self.nodes(), Arc::clone(&sim.stats), sim.inboxes[node].clone());
        sim.open[node].store(true, Ordering::Relaxed);
        let link = SimLink { core: Arc::clone(&core), sim: Arc::clone(sim) };
        FramedTransport::new(core, self.inbox_rx[node].clone(), link)
    }

    /// All endpoints, index = node id.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        (0..self.nodes()).map(|n| self.endpoint(n)).collect()
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        // Take the only wire-thread sender out of `sim`: the channel
        // disconnects (endpoints sending afterwards observe
        // `NetError::Closed`), the wire thread delivers whatever is still
        // queued *immediately* — shutdown does not honour remaining model
        // delay — and exits, so the join is bounded.
        if let Some(handle) = self.wire_thread.take() {
            drop(self.sim.wire_tx.write().take());
            let _ = handle.join();
        }
    }
}

/// Per-node wakers of the receivers that asked, shared with the wire
/// thread.
type Arrivals = Arc<[OnceLock<Waker>]>;

/// Puts `pkt` into its destination's inbox and wakes the receiver.
fn deliver_to(
    inboxes: &[Sender<Packet>],
    arrivals: &Arrivals,
    pkt: Packet,
) -> Result<(), NetError> {
    let dst = pkt.dst;
    inboxes[dst].send(pkt).map_err(|_| NetError::Closed)?;
    if let Some(w) = arrivals[dst].get() {
        w.wake_by_ref();
    }
    Ok(())
}

/// Wire thread: delivers packets at their deadline, in deadline order.
fn wire_loop(rx: Receiver<(Instant, Packet)>, inboxes: Vec<Sender<Packet>>, arrivals: Arrivals) {
    // Keyed (deadline, seq): simultaneous deliveries keep submission order.
    let mut queue: BTreeMap<(Instant, u64), Packet> = BTreeMap::new();
    let mut seq = 0u64;
    // The receiver may be gone during shutdown; ignore.
    let deliver = |pkt: Packet| drop(deliver_to(&inboxes, &arrivals, pkt));
    loop {
        let now = Instant::now();
        while queue.first_key_value().is_some_and(|(&(due, _), _)| due <= now) {
            deliver(queue.pop_first().expect("a due packet").1);
        }
        // Wait for new input until the next deadline (or forever).
        let received = match queue.first_key_value() {
            Some((&(due, _), _)) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match received {
            Ok((deadline, pkt)) => {
                queue.insert((deadline, seq), pkt);
                seq += 1;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // The fabric is shutting down. Flush what is queued in
                // deadline order but deliver immediately — honouring
                // remaining model delay here would make drop() block for
                // the full modeled backlog.
                queue.into_values().for_each(deliver);
                return;
            }
        }
    }
}

/// The sim leaf: hands each frame's payload — zero-copy — to the
/// destination's inbox, at once or through the wire thread.
pub struct SimLink {
    core: Arc<Core>,
    sim: Arc<Sim>,
}

impl SimLink {
    /// Occupies this node's injection port for one frame's serialization,
    /// inflated by a throttle fault, and returns when the port is done.
    /// The slowdown backpressures later sends exactly like a slow NIC.
    fn serialize(&self, model: NetworkModel, bytes: usize, fault: &FaultDecision) -> Instant {
        let mut ser_ns = model.serialization_ns(bytes);
        if fault.throttle_factor > 1.0 {
            ser_ns = (ser_ns as f64 * fault.throttle_factor) as u64;
            self.sim.stats.record_throttle(self.core.node);
        }
        let mut busy_until = self.sim.ports[self.core.node].lock();
        *busy_until = (*busy_until).max(Instant::now()) + Duration::from_nanos(ser_ns);
        *busy_until
    }
}

impl Link for SimLink {
    fn max_frame(&self) -> usize {
        MAX_FRAME
    }

    fn push(
        &self,
        dst: NodeId,
        tag: Tag,
        payload: Payload,
        fault: Option<FaultDecision>,
    ) -> Result<(), NetError> {
        let (sim, src) = (&*self.sim, self.core.node);
        if !sim.open[dst].load(Ordering::Relaxed) {
            self.core.note_conn_lost(dst, "peer shut down");
            return Err(NetError::LinkDown { src, dst });
        }
        let bytes = payload.len();
        let pkt = Packet { src, dst, tag, payload };
        let DeliveryMode::Throttled(model) = sim.mode else {
            sim.stats.record_recv(dst, bytes);
            return deliver_to(&sim.inboxes, &sim.arrivals, pkt);
        };
        let fault = fault.unwrap_or(FaultDecision::CLEAN);
        if fault.stalled {
            sim.stats.record_stall(src);
        }
        let delay =
            Duration::from_nanos(model.wire_latency_ns.saturating_add(fault.extra_delay_ns));
        let deadline = self.serialize(model, bytes, &fault) + delay;
        let wire = sim.wire_tx.read();
        let tx = wire.as_ref().ok_or(NetError::Closed)?;
        sim.stats.record_recv(dst, bytes);
        tx.send((deadline, pkt)).map_err(|_| NetError::Closed)
    }

    /// One receiver per node for the fabric's life: a later endpoint of
    /// the same node is declined and polls.
    fn wake_on_arrival(&self, waker: &Waker) -> bool {
        self.sim.arrivals[self.core.node].set(waker.clone()).is_ok()
    }

    /// In throttled mode a dropped frame still occupies the port: the NIC
    /// serialized it, the wire ate it. This is what makes loss compose
    /// with the cost model.
    fn dropped(&self, bytes: usize, fault: &FaultDecision) {
        if let DeliveryMode::Throttled(model) = self.sim.mode {
            self.serialize(model, bytes, fault);
        }
    }

    /// Nothing to cut: a sim kill is the plan's `Down(Killed)` and its
    /// blackholing, so clearing the plan revives the peer.
    fn sever(&self, _peer: NodeId) {}

    fn close(&self) {
        self.sim.open[self.core.node].store(false, Ordering::Relaxed);
    }
}

impl Endpoint {
    /// Non-blocking send of a plain `Vec<u8>` or a pooled [`Payload`]; a
    /// pooled buffer crosses the fabric without copies and returns to its
    /// pool when the receiver drops it (or at once, on a failed send).
    pub fn send(&self, dst: NodeId, tag: Tag, payload: impl Into<Payload>) -> Result<(), NetError> {
        Transport::send(self, dst, tag, payload.into())
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Packet, NetError> {
        self.inbox_rx.recv().map_err(|_| NetError::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DownCause, FaultPlan, LinkState};

    #[test]
    fn throttled_mode_delivers_everything_in_order() {
        // A fast model so the test stays quick, but nonzero so the wire
        // thread path is exercised.
        let model = NetworkModel {
            per_msg_overhead_ns: 10_000, // 10 µs
            bandwidth_bytes_per_sec: 1 << 32,
            wire_latency_ns: 5_000,
        };
        let fabric = Fabric::new(2, DeliveryMode::Throttled(model));
        let eps = fabric.endpoints();
        let start = Instant::now();
        for i in 0..50u8 {
            eps[0].send(1, 0, vec![i]).unwrap();
        }
        for i in 0..50u8 {
            let pkt = eps[1].recv_timeout(Duration::from_secs(5)).expect("delivery");
            assert_eq!(pkt.payload, vec![i]);
        }
        // 50 messages × 10 µs serialization ≥ 500 µs of port time.
        assert!(start.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn throttled_mode_enforces_serialization_rate() {
        let model = NetworkModel {
            per_msg_overhead_ns: 1_000_000, // 1 ms per message
            bandwidth_bytes_per_sec: u64::MAX,
            wire_latency_ns: 0,
        };
        let fabric = Fabric::new(2, DeliveryMode::Throttled(model));
        let eps = fabric.endpoints();
        let start = Instant::now();
        for _ in 0..5 {
            eps[0].send(1, 0, vec![1]).unwrap();
        }
        for _ in 0..5 {
            eps[1].recv_timeout(Duration::from_secs(5)).expect("delivery");
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(5), "too fast: {elapsed:?}");
    }

    #[test]
    fn distinct_sources_do_not_serialize_against_each_other() {
        let model = NetworkModel {
            per_msg_overhead_ns: 30_000_000, // 30 ms
            bandwidth_bytes_per_sec: u64::MAX,
            wire_latency_ns: 0,
        };
        let fabric = Fabric::new(3, DeliveryMode::Throttled(model));
        let eps = fabric.endpoints();
        let start = Instant::now();
        eps[0].send(2, 0, vec![0]).unwrap();
        eps[1].send(2, 0, vec![1]).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(eps[2].recv_timeout(Duration::from_secs(5)).unwrap().payload[0]);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
        // Two ports in parallel: total ≈ 30 ms, not 60 ms.
        assert!(start.elapsed() < Duration::from_millis(55));
    }

    #[test]
    fn fault_plan_drops_silently_and_deterministically() {
        let run = |seed: u64| {
            let fabric = Fabric::new(2, DeliveryMode::Instant);
            let eps = fabric.endpoints();
            eps[0].install_faults(FaultPlan::new(seed).drop(0, 1, 0.3));
            let mut got = Vec::new();
            for i in 0..200u8 {
                eps[0].send(1, 0, vec![i]).unwrap(); // silent: Ok even when dropped
            }
            while let Some(pkt) = eps[1].try_recv() {
                got.push(pkt.payload[0]);
            }
            let s = fabric.stats().node(0);
            assert_eq!(s.sent_msgs, 200);
            assert_eq!(s.dropped_msgs + got.len() as u64, 200);
            assert!(s.dropped_msgs > 0, "0.3 drop probability never fired");
            (got, s.dropped_msgs)
        };
        let (got_a, drops_a) = run(42);
        let (got_b, drops_b) = run(42);
        assert_eq!(got_a, got_b, "same seed must replay the same drop pattern");
        assert_eq!(drops_a, drops_b);
        let (got_c, _) = run(43);
        assert_ne!(got_a, got_c, "different seed should differ (vanishingly unlikely otherwise)");
    }

    #[test]
    fn clearing_a_kill_revives_the_peer() {
        let fabric = Fabric::new(2, DeliveryMode::Instant);
        let eps = fabric.endpoints();
        eps[0].install_faults(FaultPlan::new(0).kill(1));
        assert_eq!(eps[0].link_state(1), LinkState::Down(DownCause::Killed));
        eps[0].send(1, 0, vec![1]).unwrap(); // blackholed
        eps[0].clear_faults();
        assert_eq!(eps[0].link_state(1), LinkState::Up);
        eps[0].send(1, 0, vec![2]).unwrap();
        assert_eq!(eps[1].recv().unwrap().payload, vec![2]);
    }

    #[test]
    fn throttled_drops_still_consume_serialization_time() {
        // 1 ms per message, all of them dropped: the port must still have
        // serialized every frame, so wall time >= 5 ms even though nothing
        // arrives. This is what makes loss compose with the cost model.
        let model = NetworkModel {
            per_msg_overhead_ns: 1_000_000,
            bandwidth_bytes_per_sec: u64::MAX,
            wire_latency_ns: 0,
        };
        let fabric = Fabric::new(2, DeliveryMode::Throttled(model));
        let eps = fabric.endpoints();
        eps[0].install_faults(FaultPlan::new(1).drop(0, 1, 1.0));
        for _ in 0..5 {
            eps[0].send(1, 0, vec![1]).unwrap();
        }
        assert_eq!(fabric.stats().node(0).dropped_msgs, 5);
        // The port's busy_until has advanced 5 ms into the future: a clean
        // probe message sent now cannot arrive before that.
        eps[0].clear_faults();
        let start = Instant::now();
        eps[0].send(1, 0, vec![2]).unwrap();
        let pkt = eps[1].recv_timeout(Duration::from_secs(5)).expect("probe delivery");
        assert_eq!(pkt.payload, vec![2]);
        assert!(
            start.elapsed() >= Duration::from_millis(5),
            "dropped packets did not consume port time: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn throttled_flap_window_composes_with_wire_thread() {
        let model = NetworkModel {
            per_msg_overhead_ns: 10_000,
            bandwidth_bytes_per_sec: u64::MAX,
            wire_latency_ns: 1_000,
        };
        let fabric = Fabric::new(2, DeliveryMode::Throttled(model));
        let eps = fabric.endpoints();
        // Link down for the first 50 ms after install.
        eps[0].install_faults(FaultPlan::new(3).flap(0, 1, 0, 50_000_000));
        eps[0].send(1, 0, vec![1]).unwrap(); // inside the window: eaten
        std::thread::sleep(Duration::from_millis(60));
        eps[0].send(1, 0, vec![2]).unwrap(); // window over: delivered
        let pkt = eps[1].recv_timeout(Duration::from_secs(5)).expect("post-flap delivery");
        assert_eq!(pkt.payload, vec![2]);
        assert!(eps[1].try_recv().is_none(), "flapped packet leaked through");
        assert_eq!(fabric.stats().node(0).dropped_msgs, 1);
    }

    #[test]
    fn send_after_fabric_drop_reports_closed() {
        let model = NetworkModel {
            per_msg_overhead_ns: 1_000,
            bandwidth_bytes_per_sec: u64::MAX,
            wire_latency_ns: 0,
        };
        let fabric = Fabric::new(2, DeliveryMode::Throttled(model));
        let eps = fabric.endpoints();
        eps[0].send(1, 0, vec![1]).unwrap();
        drop(fabric); // joins the wire thread; queued packet flushed
        assert_eq!(eps[1].recv().unwrap().payload, vec![1]);
        assert_eq!(eps[0].send(1, 0, vec![2]), Err(NetError::Closed));
    }

    #[test]
    fn many_to_one_concurrent_senders() {
        let fabric = Fabric::new(5, DeliveryMode::Instant);
        let mut eps = fabric.endpoints();
        let sink = eps.pop().expect("node 4");
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(src, ep)| {
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        ep.send(4, src as Tag, i.to_le_bytes().to_vec()).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut per_src = vec![0u32; 4];
        for _ in 0..1000 {
            let pkt = sink.recv().unwrap();
            // FIFO per source: payload value must equal count seen so far.
            let v = u32::from_le_bytes(pkt.payload.as_slice().try_into().unwrap());
            assert_eq!(v, per_src[pkt.src]);
            per_src[pkt.src] += 1;
        }
        assert_eq!(per_src, vec![250; 4]);
    }
}
