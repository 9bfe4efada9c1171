//! The transport core under every backend.
//!
//! A [`FramedTransport<L>`] is everything about a frame transport that
//! does not depend on what carries the frames: the inbox and the
//! receiver's [`ArrivalHook`] in front of it, the self-send loopback, the
//! fault shim, sticky per-peer loss evidence, the pooled receive buffers,
//! traffic accounting and the shutdown gate. What does
//! depend on it is a [`Link`] — the in-process sim fabric
//! ([`crate::fabric`]), a TCP stream set ([`crate::tcp`]) or a
//! shared-memory ring set ([`crate::shm`]) — which only moves frames:
//! push one toward a peer, sever a peer, stop. `L` is a type parameter,
//! so the send and receive paths call their leaf directly; the runtime
//! above still sees one `Arc<dyn Transport>`.
//!
//! # Frame format
//!
//! On the real wires, `[len: u32 LE][tag: u32 LE]` followed by `len`
//! payload bytes, on a socket and in a ring alike (`encode_header` /
//! `decode_header`). The sim hands the payload itself to the receiver.
//!
//! # Fault shim
//!
//! [`Transport::install_faults`] applies a [`FaultPlan`] in userspace,
//! before a frame reaches the leaf: drop skips the push, duplicate
//! pushes a clone first (a refcount for shared payloads), a flap window
//! drops every frame inside it, and every push carries the decision, so
//! a leaf can act on it: TCP fragments its writes while any plan is
//! installed, so reassembly is exercised, and the sim applies the
//! time-shaping faults (throttle, stall, jitter) that need its cost
//! model. A kill also severs both directions of the link to the killed
//! peer, so in-flight frames are lost and the peer sees the link die,
//! exactly like a process death — which `clear_faults` cannot undo on a
//! real wire. Decisions are `InstalledShim::decide`, per node, and pure
//! in `(seed, link, n)`, so a seed replays one loss pattern on every
//! backend.
//!
//! # Loss evidence
//!
//! Leaves report EOF, resets, write failures, severed rings, vanished
//! peer processes and peers that shut down through
//! `Core::note_conn_lost`. The first report per
//! peer sticks: it is counted once in `conn_lost` and from then on
//! [`Transport::link_state`] answers `Down(Lost(cause))`, which the
//! failure detector treats as first-hand evidence of the death. Reports
//! after this transport's own shutdown began are ignored — tearing down
//! our side makes peers lose *us*, not the reverse.

use crate::fabric::{NetError, Packet, Tag};
use crate::fault::{FaultDecision, FaultPlan};
use crate::payload::{BufRelease, Payload};
use crate::stats::TrafficStats;
use crate::transport::{ArrivalHook, DownCause, LinkState, Transport};
use crate::NodeId;
use crossbeam::channel::{Receiver, Sender};
use crossbeam::queue::ArrayQueue;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;
use std::time::Instant;

/// Frame header: payload length + tag, both `u32` little-endian.
pub(crate) const FRAME_HEADER: usize = 8;

/// Refuse frames larger than this (a corrupt or hostile length prefix
/// must not allocate gigabytes). The aggregation layer's buffers are a
/// few KiB; 64 MiB leaves room for any future bulk path.
pub const MAX_FRAME: usize = 64 << 20;

/// Receive buffers cached per transport (the pool's ring capacity);
/// beyond this, spent buffers are freed instead of re-pooled.
const RECV_POOL_CAP: usize = 256;

pub(crate) fn encode_header(len: usize, tag: Tag) -> [u8; FRAME_HEADER] {
    let mut hdr = [0u8; FRAME_HEADER];
    hdr[..4].copy_from_slice(&(len as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&tag.to_le_bytes());
    hdr
}

/// `(payload length, tag)` of a frame header. The length is whatever the
/// wire said; callers bound it before allocating.
pub(crate) fn decode_header(hdr: &[u8]) -> (usize, Tag) {
    let word = |at: usize| -> [u8; 4] { hdr[at..at + 4].try_into().expect("4-byte slice") };
    (u32::from_le_bytes(word(0)) as usize, Tag::from_le_bytes(word(4)))
}

/// Pool of receive buffers. The TCP leaf copies (or reads) each frame
/// body into a pooled `Vec`, delivered as a pooled [`Payload`], so the
/// receive side recycles buffers exactly like the sim's channel pools.
/// (The shm leaf needs none: it lends each body where it landed.)
/// The ring's capacity is the cache's cap: a release into a full ring
/// frees the buffer, however many threads release at once.
pub(crate) struct RecvPool {
    bufs: ArrayQueue<Vec<u8>>,
}

impl RecvPool {
    /// An empty buffer to append a frame body to.
    pub(crate) fn get(&self) -> Vec<u8> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// A buffer of exactly `len` bytes for a body that is about to be
    /// read over it. Spent buffers keep their length in the pool, so a
    /// stream of equal-sized frames pays no zero-fill; the stale contents
    /// never escape, because a buffer is only delivered once `read_exact`
    /// has overwritten all of it.
    pub(crate) fn get_sized(&self, len: usize) -> Vec<u8> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.resize(len, 0);
        buf
    }
}

impl BufRelease for RecvPool {
    fn release(&self, buf: Vec<u8>) {
        let _ = self.bufs.push(buf);
    }
}

/// An installed [`FaultPlan`] with the state that makes its decisions
/// deterministic: the n-th packet on a directed link always gets the
/// n-th decision, however sends on other links interleave.
pub(crate) struct InstalledShim {
    plan: FaultPlan,
    installed_at: Instant,
    nodes: usize,
    /// Per-directed-link send counters (`src * nodes + dst`).
    counters: Vec<AtomicU64>,
}

impl InstalledShim {
    /// Decisions and flap schedules start from the moment of the call.
    pub(crate) fn new(plan: FaultPlan, nodes: usize) -> Self {
        let counters = (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect();
        InstalledShim { plan, installed_at: Instant::now(), nodes, counters }
    }

    /// The fate of the next packet on `src -> dst`.
    pub(crate) fn decide(&self, src: NodeId, dst: NodeId) -> FaultDecision {
        let n = self.counters[src * self.nodes + dst].fetch_add(1, Ordering::Relaxed);
        let t_ns = self.installed_at.elapsed().as_nanos() as u64;
        self.plan.decide(src, dst, n, t_ns)
    }

    pub(crate) fn is_killed(&self, node: NodeId) -> bool {
        self.plan.is_killed(node)
    }
}

/// What carries the frames of a [`FramedTransport`]: one directed link
/// per peer. A leaf is built over the transport's core and reports what
/// it receives and loses through it.
pub trait Link: Send + Sync + 'static {
    /// The largest payload one frame can carry on this link.
    fn max_frame(&self) -> usize;

    /// Moves one frame toward `dst` (never this node). `fault` is the
    /// installed plan's decision for it (never a drop), `None` without a
    /// plan. A link that turns out to be broken is reported through
    /// `Core::note_conn_lost` and returned as [`NetError::LinkDown`];
    /// after shutdown the answer is [`NetError::Closed`].
    fn push(
        &self,
        dst: NodeId,
        tag: Tag,
        payload: Payload,
        fault: Option<FaultDecision>,
    ) -> Result<(), NetError>;

    /// A `bytes`-long frame the fault shim dropped before the leaf saw
    /// it, for leaves that model what the frame would have cost.
    fn dropped(&self, _bytes: usize, _fault: &FaultDecision) {}

    /// A frame still below the inbox, for leaves that have no thread of
    /// their own to move arrivals there.
    fn poll(&self) -> Option<Packet> {
        None
    }

    /// Arranges for `waker` to be woken whenever a peer's frame reaches
    /// this node's inbox; `false` for a leaf whose arrivals only
    /// [`Link::poll`] finds, whose receiver must therefore keep polling.
    /// A leaf whose threads deliver through the core's inbox only says
    /// yes: the core wakes.
    fn wake_on_arrival(&self, _waker: &Waker) -> bool {
        false
    }

    /// Whether threads of the leaf's own read every arrival and hand it to
    /// the core (`Core::deliver`), and so can run an [`ArrivalHook`].
    fn has_readers(&self) -> bool {
        false
    }

    /// Irreversibly cuts both directions of the link to `peer` (an
    /// injected kill): frames in flight are lost and the peer observes
    /// the loss first-hand. A leaf with no link to cut leaves the kill to
    /// the plan.
    fn sever(&self, peer: NodeId);

    /// Stops the leaf's threads and closes its links. Called once, after
    /// the core's stop flag is set; must return in bounded time.
    fn close(&self);

    /// Leaf-specific counters, as `(metric name, value)` pairs.
    fn counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// The state of a framed transport that its leaf's threads share with it.
pub(crate) struct Core {
    pub(crate) node: NodeId,
    pub(crate) nodes: usize,
    stats: Arc<TrafficStats>,
    /// Sticky per-peer loss evidence: what the first report observed.
    lost: Vec<OnceLock<String>>,
    stop: AtomicBool,
    shim: RwLock<Option<InstalledShim>>,
    pool: Arc<RecvPool>,
    /// Self-sends and everything the leaf receives.
    inbox_tx: Sender<Packet>,
    /// Woken after every packet or batch that reaches the inbox, once the
    /// receiver asked.
    arrival: OnceLock<Waker>,
    /// Offered every batch of [`Core::deliver`] first, once the receiver
    /// installed it.
    hook: OnceLock<Arc<dyn ArrivalHook>>,
}

impl Core {
    /// A core whose self-sends, and whatever its leaf receives, go to
    /// `inbox_tx`.
    pub(crate) fn new(
        node: NodeId,
        nodes: usize,
        stats: Arc<TrafficStats>,
        inbox_tx: Sender<Packet>,
    ) -> Arc<Core> {
        Arc::new(Core {
            node,
            nodes,
            stats,
            lost: (0..nodes).map(|_| OnceLock::new()).collect(),
            stop: AtomicBool::new(false),
            shim: RwLock::new(None),
            pool: Arc::new(RecvPool { bufs: ArrayQueue::new(RECV_POOL_CAP) }),
            inbox_tx,
            arrival: OnceLock::new(),
            hook: OnceLock::new(),
        })
    }

    /// Whether this transport's shutdown has begun.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Whether loss evidence against `peer` is on record.
    pub(crate) fn is_lost(&self, peer: NodeId) -> bool {
        self.lost[peer].get().is_some()
    }

    /// Records first-hand evidence that the link to `peer` broke; see
    /// "Loss evidence" in the module docs.
    pub(crate) fn note_conn_lost(&self, peer: NodeId, cause: &str) {
        if self.stopping() || self.is_lost(peer) {
            return;
        }
        if self.lost[peer].set(cause.to_string()).is_ok() {
            self.stats.record_conn_lost(self.node);
        }
    }

    pub(crate) fn pool(&self) -> &RecvPool {
        &self.pool
    }

    /// `body`, a buffer from [`Core::pool`], as a pooled payload.
    pub(crate) fn pooled(&self, body: Vec<u8>) -> Payload {
        Payload::pooled(body, Arc::clone(&self.pool) as Arc<dyn BufRelease>)
    }

    /// Accounts one received frame carrying `payload`.
    pub(crate) fn received(&self, src: NodeId, tag: Tag, payload: Payload) -> Packet {
        self.stats.record_recv(self.node, payload.len());
        Packet { src, dst: self.node, tag, payload }
    }

    /// Queues a packet in the inbox and wakes the receiver. A full inbox
    /// cannot happen (unbounded); a closed one means the transport is
    /// gone and the packet is moot.
    pub(crate) fn enqueue(&self, pkt: Packet) {
        let _ = self.inbox_tx.send(pkt);
        self.wake();
    }

    /// Hands over the packets of one read, in arrival order: to the
    /// [`ArrivalHook`] if it takes them, otherwise to the inbox with one
    /// wake for the batch. Leaves `pkts` empty.
    pub(crate) fn deliver(&self, pkts: &mut Vec<Packet>) {
        if pkts.is_empty() {
            return;
        }
        if let Some(hook) = self.hook.get() {
            hook.arrived(pkts);
            if pkts.is_empty() {
                return;
            }
        }
        for pkt in pkts.drain(..) {
            let _ = self.inbox_tx.send(pkt);
        }
        self.wake();
    }

    fn wake(&self) {
        if let Some(w) = self.arrival.get() {
            w.wake_by_ref();
        }
    }
}

/// One node's attachment to a mesh of [`Link`]s. See the module docs;
/// the [`Transport`] contract (FIFO per link, no delivery guarantee,
/// pooled receive payloads, bounded shutdown) is documented on the trait.
pub struct FramedTransport<L: Link> {
    pub(crate) core: Arc<Core>,
    pub(crate) inbox_rx: Receiver<Packet>,
    pub(crate) link: L,
}

impl<L: Link> FramedTransport<L> {
    pub(crate) fn new(core: Arc<Core>, inbox_rx: Receiver<Packet>, link: L) -> Self {
        FramedTransport { core, inbox_rx, link }
    }

    /// Hands one copy of a frame to the leaf, or loops a self-send
    /// straight into the inbox, zero-copy.
    fn deliver(
        &self,
        dst: NodeId,
        tag: Tag,
        payload: Payload,
        fault: Option<FaultDecision>,
    ) -> Result<(), NetError> {
        let core = &*self.core;
        if dst != core.node {
            return self.link.push(dst, tag, payload, fault);
        }
        core.stats.record_recv(core.node, payload.len());
        core.enqueue(Packet { src: core.node, dst, tag, payload });
        Ok(())
    }
}

impl<L: Link> Transport for FramedTransport<L> {
    fn node(&self) -> NodeId {
        self.core.node
    }

    fn nodes(&self) -> usize {
        self.core.nodes
    }

    fn max_frame(&self) -> usize {
        self.link.max_frame()
    }

    fn send(&self, dst: NodeId, tag: Tag, payload: Payload) -> Result<(), NetError> {
        let core = &*self.core;
        if dst >= core.nodes {
            return Err(NetError::NoSuchNode { dst, nodes: core.nodes });
        }
        if core.stopping() {
            return Err(NetError::Closed);
        }
        let (len, max) = (payload.len(), self.link.max_frame());
        if len > max {
            return Err(NetError::FrameTooLarge { len, max });
        }
        core.stats.record_send(core.node, len);

        let fault = core.shim.read().as_ref().map(|shim| shim.decide(core.node, dst));
        if let Some(d) = &fault {
            if d.drop {
                // Silent loss: the sender's NIC does not know the switch
                // ate the frame. Dropping the payload here releases any
                // pooled buffer.
                core.stats.record_drop(core.node);
                self.link.dropped(len, d);
                return Ok(());
            }
            if d.duplicate {
                core.stats.record_dup(core.node);
                self.deliver(dst, tag, payload.clone(), fault)?;
            }
        }
        self.deliver(dst, tag, payload, fault)
    }

    fn wake_on_arrival(&self, waker: Waker) -> bool {
        self.link.wake_on_arrival(&waker) && self.core.arrival.set(waker).is_ok()
    }

    fn set_arrival_hook(&self, hook: Arc<dyn ArrivalHook>) -> bool {
        self.link.has_readers() && self.core.hook.set(hook).is_ok()
    }

    fn try_recv(&self) -> Option<Packet> {
        // Inbox first: what a leaf spilled there is older than anything
        // it still holds, so FIFO per link survives the detour.
        if let Ok(pkt) = self.inbox_rx.try_recv() {
            return Some(pkt);
        }
        self.link.poll()
    }

    fn link_state(&self, peer: NodeId) -> LinkState {
        if let Some(cause) = self.core.lost[peer].get() {
            return LinkState::Down(DownCause::Lost(cause.clone()));
        }
        if self.core.shim.read().as_ref().is_some_and(|s| s.is_killed(peer)) {
            return LinkState::Down(DownCause::Killed);
        }
        LinkState::Up
    }

    fn install_faults(&self, plan: FaultPlan) {
        let core = &*self.core;
        let self_killed = plan.is_killed(core.node);
        for peer in (0..core.nodes).filter(|&p| p != core.node) {
            if self_killed || plan.is_killed(peer) {
                self.link.sever(peer);
            }
        }
        *core.shim.write() = Some(InstalledShim::new(plan, core.nodes));
    }

    fn clear_faults(&self) {
        *self.core.shim.write() = None;
    }

    fn stats(&self) -> &Arc<TrafficStats> {
        &self.core.stats
    }

    fn backend_counters(&self) -> Vec<(String, u64)> {
        self.link.counters()
    }

    fn shutdown(&self) {
        if self.core.stop.swap(true, Ordering::AcqRel) {
            return; // idempotent
        }
        self.link.close();
    }
}

impl<L: Link> Drop for FramedTransport<L> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
