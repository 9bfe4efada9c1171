//! The pluggable transport abstraction.
//!
//! Everything above the wire — the reliability layer, the failure
//! detector, flow control, the aggregation datapath — talks to the
//! network through the object-safe [`Transport`] trait, which holds
//! exactly the calls the runtime makes. One implementation exists,
//! [`FramedTransport`](crate::framed::FramedTransport), written once over
//! three leaves:
//!
//! * the in-process simulated fabric ([`crate::fabric`]) — deterministic,
//!   zero-copy, optionally enforcing the network cost model in wall time.
//!   This is the test and experimentation backend.
//! * per-peer TCP streams ([`crate::tcp`]: one runtime node per OS
//!   process, or a loopback mesh inside one process for CI);
//! * lock-free SPSC rings in one shared-memory segment ([`crate::shm`]:
//!   same-host, zero syscalls on the hot path).
//!
//! # Contract
//!
//! A `Transport` connects one node to a fixed-size cluster of `nodes()`
//! peers addressed `0..nodes()` (the node's own id included; self-sends
//! loop back through the inbox). The guarantees the upper layers rely on:
//!
//! * **Per-link FIFO**: packets between a given (source, destination)
//!   pair that *are* delivered arrive in send order. The reliability
//!   layer's cumulative acks assume this.
//! * **No delivery guarantee**: `send` returning `Ok` means the packet
//!   was accepted, not that it will arrive. Loss, duplication and delay
//!   are legal (an installed fault plan injects them deliberately; TCP
//!   loses whole tails on connection death). `Err` is advisory — a failed
//!   send may still be retried by the caller's retransmit machinery.
//! * **Payload ownership**: `send` consumes the
//!   [`Payload`](crate::Payload); its drop — wherever it happens
//!   (receiver, failed send, shutdown drain) — returns any pooled buffer
//!   to its pool exactly once.
//! * **Polled receive, woken receiver**: the only receive is the
//!   non-blocking [`Transport::try_recv`], which is how the communication
//!   server consumes it. A receiver that sleeps between arrivals asks to
//!   be woken on each one ([`Transport::wake_on_arrival`]); the sim and
//!   TCP do that, the shm rings cannot (nothing watches them), and their
//!   receiver keeps polling.
//! * **Arrivals applied where they are read**: a transport with receive
//!   threads of its own (TCP) first offers each read's frames to the
//!   receiver's [`ArrivalHook`] ([`Transport::set_arrival_hook`]); what
//!   the hook leaves goes to the inbox as above, so a packet is either
//!   taken by the hook or receivable through `try_recv`, never both.
//!
//! # Shutdown/drain semantics
//!
//! [`Transport::shutdown`] must be **idempotent** and **bounded-time**:
//! it stops any background receive machinery (joining threads it owns),
//! after which `send` returns [`NetError::Closed`]. Packets already
//! queued in the inbox remain receivable via `try_recv` so a caller can
//! drain them; packets still buffered *below* the inbox (a wire thread's
//! heap, a socket buffer, a ring) are either delivered to the inbox or
//! dropped — and a drop must release any pooled buffer. Dropping a
//! transport mid-traffic must therefore neither hang nor leak pooled
//! buffers; `buffer_pools_whole_after_shutdown` (gmt-core) checks
//! exactly this over every backend.
//!
//! What the sim guarantees **beyond** the contract (and real wires do
//! not): instant or cost-modeled delivery, time-shaping faults, and loss
//! only when a fault plan asks for it. Code must not rely on any of
//! these outside sim-pinned tests.

use crate::fabric::{NetError, Packet, Tag};
use crate::fault::FaultPlan;
use crate::stats::TrafficStats;
use crate::NodeId;
use std::fmt;
use std::io::{self, ErrorKind};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// What a transport knows about the link to one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkState {
    /// Nothing observed against the peer.
    Up,
    /// The peer is unreachable for good; sticky.
    Down(DownCause),
}

/// Why a link is [`LinkState::Down`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownCause {
    /// The installed [`FaultPlan`] kills the peer — the stand-in for a
    /// fabric's port-down notification.
    Killed,
    /// First-hand evidence that the connection broke mid-run, with what
    /// was observed: EOF, a reset, a write failure, a severed ring, the
    /// peer's process gone.
    Lost(String),
}

impl fmt::Display for DownCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DownCause::Killed => write!(f, "fabric kill observed"),
            DownCause::Lost(what) => write!(f, "connection loss observed: {what}"),
        }
    }
}

/// What a transport's receive threads offer the frames they read to,
/// before the inbox: the receiver's own processing, run on the thread that
/// read them ([`Transport::set_arrival_hook`]).
pub trait ArrivalHook: Send + Sync {
    /// Takes the packets one read brought, in arrival order, by draining
    /// `pkts`, or leaves every one of them: those go to the inbox and wake
    /// the receiver, as they would without a hook. Must not block.
    fn arrived(&self, pkts: &mut Vec<Packet>);
}

/// One node's attachment to an interconnect backend. Object-safe so the
/// runtime can hold `Arc<dyn Transport>` and run unchanged over the
/// simulated fabric or a real wire.
pub trait Transport: Send + Sync {
    /// This node's id (MPI rank).
    fn node(&self) -> NodeId;

    /// Number of nodes in the cluster.
    fn nodes(&self) -> usize;

    /// The largest payload [`Transport::send`] accepts. The runtime
    /// checks its aggregation buffers against it at boot.
    fn max_frame(&self) -> usize;

    /// Non-blocking send; consumes the payload (pooled buffers return to
    /// their pool when the last handle drops). Per-link FIFO for
    /// delivered packets; no delivery guarantee (see module docs).
    fn send(&self, dst: NodeId, tag: Tag, payload: crate::Payload) -> Result<(), NetError>;

    /// Non-blocking receive from this node's inbox.
    fn try_recv(&self) -> Option<Packet>;

    /// Asks for `waker` to be woken whenever a packet becomes receivable,
    /// after it is, so the receiver may sleep between arrivals. `false`
    /// if this transport cannot: its arrivals only a poll finds (the shm
    /// rings), or it already wakes another receiver. Either way
    /// [`Transport::try_recv`] is unchanged.
    fn wake_on_arrival(&self, waker: Waker) -> bool;

    /// Asks the transport's receive threads to offer every read's frames
    /// to `hook` before the inbox. `false` if it has no receive threads of
    /// its own: the sim's frames arrive on the sender's or the wire
    /// thread, the shm rings on a poll, and only the inbox takes them.
    fn set_arrival_hook(&self, hook: Arc<dyn ArrivalHook>) -> bool;

    /// Polls [`Transport::try_recv`] until a packet arrives or `timeout`
    /// passes. For tests; the runtime never blocks in a receive.
    fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(pkt) = self.try_recv() {
                return Some(pkt);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// What this transport knows about the link to `peer`. The failure
    /// detector polls it and confirms a `Down` peer dead at once, instead
    /// of waiting out the death timeout's silence.
    fn link_state(&self, peer: NodeId) -> LinkState;

    /// Installs a seeded [`FaultPlan`] on this node's send path,
    /// replacing any previous plan; decisions restart from packet 0.
    /// Drop, duplicate, flap and kill replay identically from a seed on
    /// every backend; time-shaping faults only act on the sim. Each node
    /// has its own plan: a cluster-wide fault is installed on every node.
    fn install_faults(&self, plan: FaultPlan);

    /// Removes the installed fault plan. Links a kill severed stay down.
    fn clear_faults(&self);

    /// Traffic counters. A transport counts its sends on its own node's
    /// row and its receives on the receiver's; the transports of one
    /// fabric or in-process mesh share one table.
    fn stats(&self) -> &Arc<TrafficStats>;

    /// Backend-specific counters beyond the shared [`TrafficStats`]
    /// schema, as `(metric name, value)` pairs — e.g. the shm backend's
    /// `net.shm.*` ring-occupancy counters. The runtime folds them into
    /// metrics snapshots verbatim. Default: none.
    fn backend_counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Stops receive machinery and closes links. Idempotent, bounded-time
    /// (joins only threads the transport owns), releases pooled buffers
    /// it still holds; subsequent sends return [`NetError::Closed`] and
    /// already-queued inbox packets stay receivable. The sim's wire
    /// thread belongs to its [`Fabric`](crate::Fabric), whose `Drop`
    /// drains it under the same contract.
    fn shutdown(&self);
}

/// Which backend a runtime should attach to, resolved from the
/// `GMT_TRANSPORT` environment variable (the CI transport matrix knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportSelect {
    /// The in-process simulated fabric (default).
    Sim,
    /// A TCP mesh over 127.0.0.1, one stream per directed peer pair.
    TcpLoopback,
    /// Same-host shared-memory rings.
    Shm,
}

impl TransportSelect {
    /// Reads `GMT_TRANSPORT`: unset/empty/`sim` → [`Sim`]; `tcp` or
    /// `tcp-loopback` → [`TcpLoopback`]; `shm` → [`Shm`]; anything else
    /// is an error (a typo in a CI matrix must fail loudly, not
    /// silently run sim).
    ///
    /// [`Sim`]: TransportSelect::Sim
    /// [`TcpLoopback`]: TransportSelect::TcpLoopback
    /// [`Shm`]: TransportSelect::Shm
    pub fn from_env() -> Result<TransportSelect, String> {
        match std::env::var("GMT_TRANSPORT") {
            Err(_) => Ok(TransportSelect::Sim),
            Ok(v) => match v.as_str() {
                "" | "sim" => Ok(TransportSelect::Sim),
                "tcp" | "tcp-loopback" => Ok(TransportSelect::TcpLoopback),
                "shm" => Ok(TransportSelect::Shm),
                other => Err(format!(
                    "GMT_TRANSPORT={other:?} is not a transport (expected sim, tcp, \
                     tcp-loopback or shm)"
                )),
            },
        }
    }
}

/// How the processes of one cluster find each other; its form also picks
/// the wire ([`connect`]).
#[derive(Debug, Clone)]
pub enum Bootstrap {
    /// TCP, rendezvous address known up front (env-style bootstrap).
    /// Node 0 binds it; peers dial it.
    Addr(SocketAddr),
    /// TCP: node 0 binds an ephemeral port and publishes `ip:port` to
    /// this file (written to a temp name, then renamed, so readers never
    /// see a partial write); peers poll the file until it appears.
    File(PathBuf),
    /// Shared memory: a segment file node 0 creates `O_EXCL` and peers
    /// map.
    Shm(PathBuf),
}

impl Bootstrap {
    /// Parses the `GMT_BOOTSTRAP` syntax: `file:<path>`, `shm:<path>` or
    /// a literal `ip:port`.
    pub fn parse(s: &str) -> Result<Bootstrap, String> {
        if let Some(path) = s.strip_prefix("file:") {
            if path.is_empty() {
                return Err("empty bootstrap file path".into());
            }
            Ok(Bootstrap::File(PathBuf::from(path)))
        } else if let Some(path) = s.strip_prefix("shm:") {
            if path.is_empty() {
                return Err("empty shm segment path".into());
            }
            Ok(Bootstrap::Shm(PathBuf::from(path)))
        } else {
            s.parse::<SocketAddr>()
                .map(Bootstrap::Addr)
                .map_err(|e| format!("bad bootstrap address {s:?}: {e}"))
        }
    }
}

/// How long construction-time handshakes (rendezvous registration, mesh
/// accepts, hello reads, segment attach) may take before giving up with
/// an error — a crashed peer must fail the launch, not hang it.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// The end-of-job side channel a multi-process mesh is left with after
/// [`connect`]: node 0 and each peer tell each other when they are done,
/// so peers know when to shut down (a runtime has no application-level
/// "job finished" broadcast) and node 0 keeps its links up until they
/// have. A backend supplies the two primitives; the wait is written once.
pub trait DoneBarrier: Send {
    /// Tells the counterpart side this node is done. Cannot fail — a
    /// counterpart that already exited has effectively acknowledged.
    fn signal_done(&mut self);

    /// The counterparts (node 0: every peer; a peer: node 0) that have
    /// neither signalled done nor disappeared. Non-blocking. A peer that
    /// hung up, shut down or whose process is gone counts as done — it
    /// cannot be waited on.
    fn missing(&mut self) -> Vec<NodeId>;

    /// Waits at most `timeout` for every counterpart, returning the ids
    /// still [`missing`](DoneBarrier::missing) at the deadline — the
    /// barrier reports *who* went missing instead of hanging the
    /// launcher.
    fn wait_done_timeout(&mut self, timeout: Duration) -> Result<(), Vec<NodeId>> {
        let deadline = Instant::now() + timeout;
        loop {
            let missing = self.missing();
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(missing);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Joins this process to an N-process mesh as node `node`, over the wire
/// the bootstrap form names: [`Bootstrap::Shm`] attaches the shared
/// segment (see [`crate::shm`]), the other two run the TCP rendezvous
/// (see [`crate::tcp`]). Returns once every node has joined. Every
/// blocking step carries a bounded deadline (60 s), so one crashed
/// process fails the whole launch with an error naming the stage instead
/// of wedging it.
pub fn connect(
    node: NodeId,
    nodes: usize,
    bootstrap: &Bootstrap,
) -> io::Result<(Arc<dyn Transport>, Box<dyn DoneBarrier>)> {
    if nodes == 0 || node >= nodes {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!("node {node} out of range for {nodes} nodes"),
        ));
    }
    match bootstrap {
        Bootstrap::Shm(path) => crate::shm::attach(node, nodes, path),
        rendezvous => crate::tcp::rendezvous(node, nodes, rendezvous),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_parses_all_forms() {
        match Bootstrap::parse("file:/tmp/x") {
            Ok(Bootstrap::File(p)) => assert_eq!(p, PathBuf::from("/tmp/x")),
            other => panic!("unexpected: {other:?}"),
        }
        match Bootstrap::parse("127.0.0.1:9000") {
            Ok(Bootstrap::Addr(a)) => assert_eq!(a.port(), 9000),
            other => panic!("unexpected: {other:?}"),
        }
        match Bootstrap::parse("shm:/dev/shm/x.seg") {
            Ok(Bootstrap::Shm(p)) => assert_eq!(p, PathBuf::from("/dev/shm/x.seg")),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(Bootstrap::parse("file:").is_err());
        assert!(Bootstrap::parse("shm:").is_err());
        assert!(Bootstrap::parse("not-an-addr").is_err());
    }

    #[test]
    fn connect_rejects_a_node_outside_the_cluster() {
        let boot = Bootstrap::File(PathBuf::from("/nonexistent/never-read"));
        for (node, nodes) in [(2, 2), (0, 0)] {
            match connect(node, nodes, &boot) {
                Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
                Ok(_) => panic!("node {node} of {nodes} must be refused"),
            }
        }
    }
}
