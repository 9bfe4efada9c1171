//! The in-process interconnect fabric.
//!
//! A [`Fabric`] connects `n` nodes; each node holds an [`Endpoint`] with
//! MPI-like semantics: non-blocking `send`, polled `try_recv`, blocking
//! `recv`. Messages between a given (source, destination)
//! pair are delivered in send order, like MPI point-to-point messages on
//! one communicator.
//!
//! Faults are injected one way, by installing a seeded
//! [`FaultPlan`] ([`Fabric::install_faults`]): sends keep succeeding and
//! the packet is lost, duplicated or delayed on the wire.
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
//!   one process.

use crate::fault::{FaultDecision, FaultPlan};
use crate::framed::{InstalledShim, MAX_FRAME};
use crate::model::NetworkModel;
use crate::payload::Payload;
use crate::stats::TrafficStats;
use crate::transport::{DownCause, LinkState, Transport};
use crate::NodeId;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;
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

/// Errors surfaced by the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination is out of range.
    NoSuchNode { dst: NodeId, nodes: usize },
    /// The connection to `dst` is gone (a real wire only: a write failed,
    /// or a kill severed the link).
    LinkDown { src: NodeId, dst: NodeId },
    /// The fabric has been shut down.
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

/// Per-source injection-port state for throttled delivery.
struct Port {
    /// Wall-clock time until which the port is busy serializing.
    busy_until: Instant,
}

struct Shared {
    nodes: usize,
    mode: DeliveryMode,
    /// Inboxes, one per node.
    inbox_tx: Vec<Sender<Packet>>,
    /// Wire-thread input (throttled mode only). Taken out (disconnecting
    /// the channel) when the fabric drops, so the wire thread exits and
    /// can be joined; subsequent sends observe [`NetError::Closed`].
    wire_tx: RwLock<Option<Sender<(Instant, Packet)>>>,
    ports: Vec<Mutex<Port>>,
    /// `Arc` so the runtime can keep reading traffic counters (metrics
    /// snapshots) without holding the whole fabric alive.
    stats: Arc<TrafficStats>,
    /// Probabilistic / scheduled fault plan; its faults are *silent*.
    plan: RwLock<Option<InstalledShim>>,
}

impl Shared {
    fn install_faults(&self, plan: FaultPlan) {
        *self.plan.write() = Some(InstalledShim::new(plan, self.nodes));
    }

    fn clear_faults(&self) {
        *self.plan.write() = None;
    }
}

/// An in-process cluster interconnect between `n` nodes.
pub struct Fabric {
    shared: Arc<Shared>,
    inbox_rx: Vec<Receiver<Packet>>,
    wire_thread: Option<JoinHandle<()>>,
}

impl Fabric {
    /// Builds a fabric connecting `nodes` nodes.
    pub fn new(nodes: usize, mode: DeliveryMode) -> Self {
        assert!(nodes > 0, "a fabric needs at least one node");
        let (inbox_tx, inbox_rx): (Vec<_>, Vec<_>) =
            (0..nodes).map(|_| channel::unbounded::<Packet>()).unzip();
        let now = Instant::now();
        let (wire_tx, wire_thread) = match mode {
            DeliveryMode::Instant => (None, None),
            DeliveryMode::Throttled(_) => {
                let (tx, rx) = channel::unbounded::<(Instant, Packet)>();
                let inboxes = inbox_tx.clone();
                let handle = std::thread::Builder::new()
                    .name("gmt-net-wire".into())
                    .spawn(move || wire_loop(rx, inboxes))
                    .expect("spawn wire thread");
                (Some(tx), Some(handle))
            }
        };
        let shared = Arc::new(Shared {
            nodes,
            mode,
            inbox_tx,
            wire_tx: RwLock::new(wire_tx),
            ports: (0..nodes).map(|_| Mutex::new(Port { busy_until: now })).collect(),
            stats: Arc::new(TrafficStats::new(nodes)),
            plan: RwLock::new(None),
        });
        Fabric { shared, inbox_rx, wire_thread }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.shared.nodes
    }

    /// The cost model in effect (for [`DeliveryMode::Throttled`]), if any.
    pub fn model(&self) -> Option<NetworkModel> {
        match self.shared.mode {
            DeliveryMode::Instant => None,
            DeliveryMode::Throttled(m) => Some(m),
        }
    }

    /// Traffic counters (the `Arc` outlives the fabric).
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.shared.stats
    }

    /// Creates the endpoint for `node`. May be called repeatedly; all
    /// clones of a node's endpoint share (and compete for) one inbox.
    pub fn endpoint(&self, node: NodeId) -> Endpoint {
        assert!(node < self.shared.nodes, "node {node} out of range");
        Endpoint { node, shared: Arc::clone(&self.shared), rx: self.inbox_rx[node].clone() }
    }

    /// All endpoints, index = node id.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        (0..self.shared.nodes).map(|n| self.endpoint(n)).collect()
    }

    /// Installs a [`FaultPlan`]; replaces any previous plan. Plan faults
    /// are *silent*: the send succeeds, the packet vanishes (or
    /// duplicates, or is delayed) in the fabric — which is what a
    /// reliability layer has to survive. Flap schedules and decision
    /// sequences restart at installation time.
    pub fn install_faults(&self, plan: FaultPlan) {
        self.shared.install_faults(plan);
    }

    /// Removes any installed [`FaultPlan`]; the fabric is lossless again.
    pub fn clear_faults(&self) {
        self.shared.clear_faults();
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        // Take the only wire-thread sender out of `shared`: the channel
        // disconnects (endpoints sending afterwards observe
        // `NetError::Closed`), the wire thread delivers whatever is still
        // queued *immediately* — shutdown does not honour remaining model
        // delay — and exits, so the join is bounded.
        if let Some(handle) = self.wire_thread.take() {
            drop(self.shared.wire_tx.write().take());
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.shared.nodes)
            .field("mode", &self.shared.mode)
            .finish()
    }
}

/// Wire thread: delivers packets at their deadline, in deadline order.
fn wire_loop(rx: Receiver<(Instant, Packet)>, inboxes: Vec<Sender<Packet>>) {
    // (deadline, seq) orders simultaneous deliveries by submission.
    let mut heap: BinaryHeap<Reverse<(Instant, u64)>> = BinaryHeap::new();
    let mut payloads: std::collections::HashMap<u64, Packet> = std::collections::HashMap::new();
    let mut seq = 0u64;
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while let Some(&Reverse((deadline, s))) = heap.peek() {
            if deadline > now {
                break;
            }
            heap.pop();
            let pkt = payloads.remove(&s).expect("packet for heap entry");
            // Receiver may be gone during shutdown; ignore.
            let _ = inboxes[pkt.dst].send(pkt);
        }
        // Wait for new input until the next deadline (or forever).
        let wait = heap.peek().map(|Reverse((d, _))| d.saturating_duration_since(Instant::now()));
        let received = match wait {
            Some(d) => rx.recv_timeout(d).map_err(|e| match e {
                channel::RecvTimeoutError::Timeout => None,
                channel::RecvTimeoutError::Disconnected => Some(()),
            }),
            None => rx.recv().map_err(|_| Some(())),
        };
        match received {
            Ok((deadline, pkt)) => {
                heap.push(Reverse((deadline, seq)));
                payloads.insert(seq, pkt);
                seq += 1;
            }
            Err(Some(())) => {
                // Input disconnected: the fabric is shutting down. Flush
                // what is queued in deadline order but deliver immediately —
                // honouring remaining model delay here would make drop()
                // block for the full modeled backlog.
                let mut rest: Vec<_> = heap.into_sorted_vec();
                rest.reverse(); // into_sorted_vec on Reverse puts latest first
                rest.sort_by_key(|Reverse(k)| *k);
                for Reverse((_deadline, s)) in rest {
                    let pkt = payloads.remove(&s).expect("packet for heap entry");
                    let _ = inboxes[pkt.dst].send(pkt);
                }
                return;
            }
            Err(None) => { /* timeout: loop to deliver due packets */ }
        }
    }
}

/// One node's attachment to the fabric.
#[derive(Clone)]
pub struct Endpoint {
    node: NodeId,
    shared: Arc<Shared>,
    rx: Receiver<Packet>,
}

impl Endpoint {
    /// This endpoint's node id (MPI rank).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the fabric.
    pub fn nodes(&self) -> usize {
        self.shared.nodes
    }

    /// The cost model in effect, if delivery is throttled.
    pub fn model(&self) -> Option<NetworkModel> {
        match self.shared.mode {
            DeliveryMode::Instant => None,
            DeliveryMode::Throttled(m) => Some(m),
        }
    }

    /// Non-blocking send (like `MPI_Isend` whose buffer is handed off).
    ///
    /// Messages to the same destination arrive in send order. Sending to
    /// self is allowed and loops back through the same machinery.
    ///
    /// Accepts a plain `Vec<u8>` or a pooled [`Payload`]; a pooled buffer
    /// crosses the fabric without copies and returns to its pool when the
    /// receiver drops it (or immediately, on a failed send).
    pub fn send(&self, dst: NodeId, tag: Tag, payload: impl Into<Payload>) -> Result<(), NetError> {
        let payload = payload.into();
        let shared = &*self.shared;
        if dst >= shared.nodes {
            return Err(NetError::NoSuchNode { dst, nodes: shared.nodes });
        }
        // Silent-fault decision from the installed plan, if any. The
        // decision is made here, but in throttled mode a dropped packet
        // still consumes the port's serialization time below: the NIC
        // serialized the frame, the wire ate it.
        let decision = match shared.plan.read().as_ref() {
            Some(shim) => shim.decide(self.node, dst),
            None => FaultDecision::CLEAN,
        };
        let bytes = payload.len();
        shared.stats.record_send(self.node, bytes);
        let pkt = Packet { src: self.node, dst, tag, payload };
        match shared.mode {
            DeliveryMode::Instant => {
                if decision.drop {
                    shared.stats.record_drop(self.node);
                    return Ok(());
                }
                if decision.duplicate {
                    shared.stats.record_dup(self.node);
                    shared.stats.record_recv(dst, bytes);
                    let _ = shared.inbox_tx[dst].send(pkt.clone());
                }
                shared.stats.record_recv(dst, bytes);
                shared.inbox_tx[dst].send(pkt).map_err(|_| NetError::Closed)
            }
            DeliveryMode::Throttled(model) => {
                let deadline = {
                    let mut port = shared.ports[self.node].lock();
                    let now = Instant::now();
                    let start = port.busy_until.max(now);
                    // A bandwidth-throttle fault inflates serialization:
                    // the port stays busy longer, so the slowdown
                    // backpressures later sends exactly like a slow NIC.
                    let mut ser_ns = model.serialization_ns(bytes);
                    if decision.throttle_factor > 1.0 {
                        ser_ns = (ser_ns as f64 * decision.throttle_factor) as u64;
                        shared.stats.record_throttle(self.node);
                    }
                    let busy = Duration::from_nanos(ser_ns);
                    port.busy_until = start + busy;
                    port.busy_until + Duration::from_nanos(model.wire_latency_ns)
                };
                if decision.drop {
                    shared.stats.record_drop(self.node);
                    return Ok(());
                }
                if decision.stalled {
                    shared.stats.record_stall(self.node);
                }
                let deadline = deadline + Duration::from_nanos(decision.extra_delay_ns);
                let guard = shared.wire_tx.read();
                let tx = guard.as_ref().ok_or(NetError::Closed)?;
                if decision.duplicate {
                    shared.stats.record_dup(self.node);
                    shared.stats.record_recv(dst, bytes);
                    let _ = tx.send((deadline, pkt.clone()));
                }
                shared.stats.record_recv(dst, bytes);
                tx.send((deadline, pkt)).map_err(|_| NetError::Closed)
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Packet> {
        self.rx.try_recv().ok()
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Packet, NetError> {
        self.rx.recv().map_err(|_| NetError::Closed)
    }

    /// The fabric's traffic counters (shared by all endpoints).
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.shared.stats
    }
}

impl Transport for Endpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn nodes(&self) -> usize {
        self.shared.nodes
    }

    fn max_frame(&self) -> usize {
        MAX_FRAME
    }

    fn send(&self, dst: NodeId, tag: Tag, payload: Payload) -> Result<(), NetError> {
        Endpoint::send(self, dst, tag, payload)
    }

    fn try_recv(&self) -> Option<Packet> {
        Endpoint::try_recv(self)
    }

    /// A kill in the installed plan is the in-process stand-in for a
    /// fabric's port-down notification, which any survivor can observe.
    /// The sim has no connections to lose.
    fn link_state(&self, peer: NodeId) -> LinkState {
        if self.shared.plan.read().as_ref().is_some_and(|shim| shim.is_killed(peer)) {
            LinkState::Down(DownCause::Killed)
        } else {
            LinkState::Up
        }
    }

    fn install_faults(&self, plan: FaultPlan) {
        self.shared.install_faults(plan);
    }

    fn clear_faults(&self) {
        self.shared.clear_faults();
    }

    fn stats(&self) -> &Arc<TrafficStats> {
        &self.shared.stats
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("node", &self.node).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive_instant() {
        let fabric = Fabric::new(2, DeliveryMode::Instant);
        let eps = fabric.endpoints();
        eps[0].send(1, 7, vec![1, 2, 3]).unwrap();
        let pkt = eps[1].recv().unwrap();
        assert_eq!(pkt.src, 0);
        assert_eq!(pkt.dst, 1);
        assert_eq!(pkt.tag, 7);
        assert_eq!(pkt.payload, vec![1, 2, 3]);
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn out_of_range_destination_is_an_error() {
        let fabric = Fabric::new(2, DeliveryMode::Instant);
        let ep = fabric.endpoint(0);
        assert_eq!(ep.send(5, 0, vec![]), Err(NetError::NoSuchNode { dst: 5, nodes: 2 }));
    }

    #[test]
    fn stats_track_messages_and_bytes() {
        let fabric = Fabric::new(2, DeliveryMode::Instant);
        let eps = fabric.endpoints();
        eps[0].send(1, 0, vec![0; 100]).unwrap();
        eps[0].send(1, 0, vec![0; 28]).unwrap();
        let s = fabric.stats();
        assert_eq!(s.node(0).sent_msgs, 2);
        assert_eq!(s.node(0).sent_bytes, 128);
        assert_eq!(s.node(1).recv_bytes, 128);
    }

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
            fabric.install_faults(FaultPlan::new(seed).drop(0, 1, 0.3));
            let eps = fabric.endpoints();
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
    fn fault_plan_duplicates_packets() {
        let fabric = Fabric::new(2, DeliveryMode::Instant);
        fabric.install_faults(FaultPlan::new(9).dup(0, 1, 1.0));
        let eps = fabric.endpoints();
        eps[0].send(1, 0, vec![5]).unwrap();
        assert_eq!(eps[1].recv().unwrap().payload, vec![5]);
        assert_eq!(eps[1].recv().unwrap().payload, vec![5]);
        assert_eq!(fabric.stats().node(0).duplicated_msgs, 1);
        assert_eq!(fabric.stats().node(1).recv_msgs, 2);
    }

    #[test]
    fn killed_node_blackholes_without_errors() {
        let fabric = Fabric::new(3, DeliveryMode::Instant);
        fabric.install_faults(FaultPlan::new(0).kill(2));
        let eps = fabric.endpoints();
        eps[0].send(2, 0, vec![1]).unwrap();
        eps[2].send(0, 0, vec![2]).unwrap();
        eps[0].send(1, 0, vec![3]).unwrap(); // unaffected link
        assert!(eps[2].try_recv().is_none());
        assert!(eps[0].try_recv().is_none());
        assert_eq!(eps[1].recv().unwrap().payload, vec![3]);
        fabric.clear_faults();
        eps[0].send(2, 0, vec![4]).unwrap();
        assert_eq!(eps[2].recv().unwrap().payload, vec![4]);
    }

    #[test]
    fn kills_are_observable_by_any_endpoint() {
        let fabric = Fabric::new(3, DeliveryMode::Instant);
        assert_eq!(fabric.endpoint(0).link_state(2), LinkState::Up, "no plan installed");
        fabric.install_faults(FaultPlan::new(0).kill(2));
        for ep in fabric.endpoints() {
            assert_eq!(ep.link_state(2), LinkState::Down(DownCause::Killed));
            assert_eq!(ep.link_state(1), LinkState::Up);
        }
        fabric.clear_faults();
        assert_eq!(fabric.endpoint(0).link_state(2), LinkState::Up);
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
        fabric.install_faults(FaultPlan::new(1).drop(0, 1, 1.0));
        let eps = fabric.endpoints();
        for _ in 0..5 {
            eps[0].send(1, 0, vec![1]).unwrap();
        }
        assert_eq!(fabric.stats().node(0).dropped_msgs, 5);
        // The port's busy_until has advanced 5 ms into the future: a clean
        // probe message sent now cannot arrive before that.
        fabric.clear_faults();
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
        // Link down for the first 50 ms after install.
        fabric.install_faults(FaultPlan::new(3).flap(0, 1, 0, 50_000_000));
        let eps = fabric.endpoints();
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
        let eps = fabric.endpoints();
        let sink = eps[4].clone();
        let handles: Vec<_> = (0..4)
            .map(|src| {
                let ep = eps[src].clone();
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
