//! Multi-process TCP transport.
//!
//! Where [`fabric`](crate::fabric) simulates the interconnect inside one
//! process, this module is the real thing: one runtime node per OS
//! process (or per mesh slot in-process for CI), length-prefixed frames
//! over one `TcpStream` per directed peer pair, and one blocking reader
//! thread per inbound link that reassembles frames across partial reads
//! and feeds the same inbox path the sim uses. The reliability,
//! membership and flow-control layers above run unchanged.
//!
//! # Wire format
//!
//! Every message is one frame: `[len: u32 LE][tag: u32 LE]` followed by
//! `len` payload bytes. Connections open with a 12-byte hello —
//! `[magic][src node][cluster size]`, all `u32 LE` — so the acceptor can
//! attribute inbound frames to a [`NodeId`] without trusting addresses.
//!
//! # Send and receive path
//!
//! No timer sits between a frame's write and its delivery to the inbox,
//! and a frame costs one syscall and one copy on each side:
//!
//! * **Send** — header and body leave in one vectored write
//!   (`write_frame`); a small frame is one TCP segment, not two.
//! * **Wake on arrival** — each inbound link has its own reader thread
//!   (`gmt-tcp-rx-<node>-<src>`) parked in a blocking `read`, so the
//!   kernel wakes it when bytes land. The reader used to sweep every link
//!   nonblocking and sleep 100 µs between empty sweeps, which put that
//!   sleep (plus timer slack) into every round trip: a 64 B ping-pong took
//!   366 µs against 21 µs now (`net.ceil.tcp_rtt_us`, bench/e2e). One
//!   thread per link needs no readiness syscall and scales to N peers by
//!   construction; an idle reader costs nothing. Shutdown and injected
//!   kills unblock a reader by severing the `inbound_ctl` clone of its
//!   stream, so joins stay bounded.
//! * **Small frames batch** — reads land in a 16 KiB staging buffer and
//!   every whole frame in it is parsed out, so a burst of small frames
//!   still costs one `read`; each body is copied once, into its pooled
//!   receive buffer.
//! * **Large frames land in place** — a body of `IN_PLACE_MIN` bytes or
//!   more cannot fit the staging buffer whole: the part that arrived with
//!   the header is copied over and the rest is read straight into the
//!   pooled buffer, instead of `chunk` → `staging` → buffer in 16 KiB
//!   pieces (64 KiB frames: 39 µs → 17 µs, `net.ceil.tcp_frame_us`).
//!
//! # Construction
//!
//! * [`loopback_mesh`] wires N transports inside one process over
//!   127.0.0.1 — the CI `tcp-loopback` backend. They share one
//!   [`TrafficStats`] table so cluster-wide counters keep working.
//! * [`rendezvous`] is the multi-process path used by `gmt-launch`:
//!   node 0 listens at a bootstrap address (given directly or published
//!   through a file), peers dial in and register their data-listener
//!   addresses, node 0 broadcasts the full `NodeId` ↔ address map, and
//!   every pair then connects directly. The registration connections are
//!   kept as a [`Control`] side channel for end-of-job signalling.
//!
//! # Fault shim
//!
//! [`TcpTransport::install_faults`] applies a [`FaultPlan`] *in
//! userspace at the frame layer*: drop skips the write, duplicate writes
//! the frame twice, flap windows drop every frame inside the window, and
//! any installed shim fragments headers across separate writes so
//! reassembly over partial reads is exercised deterministically. Kill
//! faults get real crash semantics: both directions of every stream
//! touching a killed peer are severed, so in-flight frames are lost
//! exactly like a process death loses them. Decisions reuse
//! `FaultPlan::decide` with the same per-link counters as the fabric, so
//! a seed replays the same loss pattern over real sockets.
//! Jitter/throttle/stall shapes need the cost model and stay sim-only.
//!
//! # Connection-loss evidence
//!
//! The reader threads and the send path turn EOF, ECONNRESET and write
//! failures into sticky per-peer link-down evidence: counted once per
//! peer in `conn_lost`, surfaced through [`Transport::link_down`] and
//! [`Transport::observed_kill`], and logged (when the runtime enables
//! warnings) with the peer id and the I/O error. The failure detector
//! treats the evidence like a fabric-observed kill, so a crashed peer
//! process is declared dead in detection time, not retry-budget time.

use crate::fabric::{NetError, Packet, Tag};
use crate::fault::FaultPlan;
use crate::payload::{BufRelease, Payload};
use crate::stats::TrafficStats;
use crate::transport::Transport;
use crate::NodeId;
use crossbeam::channel::{self, Receiver, Sender};
use crossbeam::queue::SegQueue;
use parking_lot::{Mutex, RwLock};
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame header: payload length + tag, both `u32` little-endian.
const FRAME_HEADER: usize = 8;

/// Refuse frames larger than this (a corrupt or hostile length prefix
/// must not allocate gigabytes). The aggregation layer's buffers are a
/// few KiB; 64 MiB leaves room for any future bulk path.
pub const MAX_FRAME: usize = 64 << 20;

/// Bodies of at least this many bytes are received in place: read
/// straight into their pooled buffer instead of through the staging
/// buffer. Below it a frame fits the staging buffer whole, and letting
/// the next `read` fetch its tail also fetches whatever small frames
/// follow it.
const IN_PLACE_MIN: usize = 16 * 1024;

/// Per-link staging buffer: holds any frame smaller than [`IN_PLACE_MIN`]
/// whole, header included.
const STAGING_BYTES: usize = IN_PLACE_MIN + FRAME_HEADER;

/// Connection hello magic ("GMT1").
const HELLO_MAGIC: u32 = 0x474D_5431;

/// Done byte on the [`Control`] channel.
const CONTROL_DONE: u8 = 0xD0;

/// Receive buffers cached per transport; beyond this, spent buffers are
/// freed instead of re-pooled.
const RECV_POOL_CAP: usize = 256;

/// How long construction-time handshakes (rendezvous registration, mesh
/// accepts, hello reads) may take before giving up with an error — a
/// crashed peer must fail the launch, not hang it.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(60);

/// The handshake deadline, overridable via `GMT_RDV_TIMEOUT_MS` so tests
/// and chaos harnesses can fail a doomed launch in milliseconds instead
/// of the default 60 s.
pub(crate) fn handshake_timeout() -> Duration {
    std::env::var("GMT_RDV_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(HANDSHAKE_TIMEOUT)
}

/// Labels an I/O error with the rendezvous stage it happened in, so a
/// failed launch says *where* it died (e.g. "waiting for registrations
/// (have 1 of 3)"), not just "timed out".
fn stage_err(stage: impl std::fmt::Display, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("rendezvous: {stage}: {e}"))
}

/// Dials `addr` with exponential backoff until `deadline` — the listener
/// may not be up yet on a cold start, but a peer that never shows must
/// fail the launch, not hang it.
fn dial_with_retry(addr: SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(2);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("gave up dialing {addr} at the deadline: {e}"),
                    ));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
        }
    }
}

/// Pool of receive buffers. Incoming frames are copied out of a reader
/// thread's staging area (or read directly) into a pooled `Vec` and
/// delivered as a pooled [`Payload`], so the receive side recycles
/// buffers exactly like the sim's channel pools do. Shared with the shm
/// backend, whose receive side pools identically.
pub(crate) struct RecvPool {
    bufs: SegQueue<Vec<u8>>,
}

impl RecvPool {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RecvPool { bufs: SegQueue::new() })
    }

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
    fn get_sized(&self, len: usize) -> Vec<u8> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.resize(len, 0);
        buf
    }
}

impl BufRelease for RecvPool {
    fn release(&self, buf: Vec<u8>) {
        if self.bufs.len() < RECV_POOL_CAP {
            self.bufs.push(buf);
        }
    }
}

/// A [`FaultPlan`] installed on the send side, with the fabric's
/// per-directed-link counters so the n-th packet on a link always gets
/// the n-th decision. Shared with the shm backend — one shim, every
/// real transport.
pub(crate) struct InstalledShim {
    pub(crate) plan: FaultPlan,
    pub(crate) installed_at: Instant,
    /// Indexed by destination; this transport only ever sends from its
    /// own node.
    pub(crate) counters: Vec<AtomicU64>,
}

struct TcpShared {
    node: NodeId,
    nodes: usize,
    stats: Arc<TrafficStats>,
    /// Outbound stream per peer (`None` for self and for torn-down
    /// links). Each slot's mutex also serializes frame writes.
    outbound: Vec<Mutex<Option<TcpStream>>>,
    /// Clones of the inbound streams (the reader threads own the
    /// originals), kept so an injected kill or a shutdown can sever the
    /// receive side: that is what wakes a reader out of its blocking
    /// `read`.
    inbound_ctl: Vec<Mutex<Option<TcpStream>>>,
    /// Sticky per-peer connection-loss evidence (see
    /// [`TcpShared::note_conn_lost`]).
    link_down: Vec<AtomicBool>,
    /// Whether connection-loss events print a warning line; the runtime
    /// wires its `log_net_warnings` config here at boot.
    log_warnings: AtomicBool,
    inbox_tx: Sender<Packet>,
    stop: AtomicBool,
    shim: RwLock<Option<InstalledShim>>,
    pool: Arc<RecvPool>,
}

impl TcpShared {
    /// Records first-hand evidence that the connection to `peer` broke:
    /// a sticky link-down flag (feeds [`Transport::observed_kill`]), one
    /// `conn_lost` count per peer, and a warning line when enabled.
    /// Suppressed once this transport's own shutdown began — tearing
    /// down our streams makes peers see EOF, not us.
    fn note_conn_lost(&self, peer: NodeId, cause: &str) {
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        if self.link_down[peer].swap(true, Ordering::AcqRel) {
            return; // first evidence for this peer already recorded
        }
        self.stats.record_conn_lost(self.node);
        if self.log_warnings.load(Ordering::Relaxed) {
            eprintln!("[gmt-net] node {}: connection to node {peer} lost: {cause}", self.node);
        }
    }
}

/// One node's attachment to a TCP mesh. See the module docs; the
/// [`Transport`] contract (FIFO per link, no delivery guarantee, pooled
/// receive payloads, bounded shutdown) is documented on the trait.
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    inbox_rx: Receiver<Packet>,
    /// One reader thread per inbound link; taken (and joined) by shutdown.
    readers: Mutex<Vec<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Assembles a transport from already-handshaked streams and spawns
    /// one reader thread per inbound link. `inbound[i] = (src, stream)`;
    /// `outbound[dst]` is `None` for `dst == node`.
    fn assemble(
        node: NodeId,
        nodes: usize,
        inbound: Vec<(NodeId, TcpStream)>,
        outbound: Vec<Option<TcpStream>>,
        stats: Arc<TrafficStats>,
    ) -> io::Result<TcpTransport> {
        debug_assert_eq!(outbound.len(), nodes);
        let (inbox_tx, inbox_rx) = channel::unbounded();
        let mut inbound_ctl: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();
        for (src, stream) in &inbound {
            inbound_ctl[*src] = Some(stream.try_clone()?);
        }
        let shared = Arc::new(TcpShared {
            node,
            nodes,
            stats,
            outbound: outbound.into_iter().map(Mutex::new).collect(),
            inbound_ctl: inbound_ctl.into_iter().map(Mutex::new).collect(),
            link_down: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            log_warnings: AtomicBool::new(false),
            inbox_tx,
            stop: AtomicBool::new(false),
            shim: RwLock::new(None),
            pool: RecvPool::new(),
        });
        let transport = TcpTransport { shared, inbox_rx, readers: Mutex::new(Vec::new()) };
        for (src, stream) in inbound {
            let shared = Arc::clone(&transport.shared);
            // On a spawn failure `transport` drops, and its shutdown
            // joins the readers already running.
            let reader = std::thread::Builder::new()
                .name(format!("gmt-tcp-rx-{node}-{src}"))
                .spawn(move || reader_loop(shared, src, stream))?;
            transport.readers.lock().push(reader);
        }
        Ok(transport)
    }

    /// Installs a seeded [`FaultPlan`] as a userspace shim on this
    /// sender's frame layer (drop, duplicate, flap windows and kill;
    /// time-shaping faults are ignored — no cost model over real
    /// sockets). Kill faults additionally sever both directions of every
    /// stream touching a killed peer, giving them real crash semantics:
    /// in-flight frames are lost and the peer's reader sees the
    /// connection die, exactly like a process death. That severing is
    /// irreversible — [`TcpTransport::clear_faults`] cannot resurrect a
    /// killed link, just as a real crash cannot be un-crashed. Replaces
    /// any previous plan; decisions restart from packet 0 like the
    /// fabric's `install_faults`.
    pub fn install_faults(&self, plan: FaultPlan) {
        let shared = &*self.shared;
        let self_killed = plan.is_killed(shared.node);
        for peer in 0..shared.nodes {
            if peer == shared.node || !(self_killed || plan.is_killed(peer)) {
                continue;
            }
            if let Some(s) = shared.outbound[peer].lock().take() {
                s.shutdown(Shutdown::Both).ok();
            }
            if let Some(s) = shared.inbound_ctl[peer].lock().take() {
                s.shutdown(Shutdown::Both).ok();
            }
        }
        let counters = (0..shared.nodes).map(|_| AtomicU64::new(0)).collect();
        *shared.shim.write() = Some(InstalledShim { plan, installed_at: Instant::now(), counters });
    }

    /// Removes the fault shim; the send path writes every frame again.
    pub fn clear_faults(&self) {
        *self.shared.shim.write() = None;
    }
}

impl Transport for TcpTransport {
    fn node(&self) -> NodeId {
        self.shared.node
    }

    fn nodes(&self) -> usize {
        self.shared.nodes
    }

    fn send(&self, dst: NodeId, tag: Tag, payload: Payload) -> Result<(), NetError> {
        let shared = &*self.shared;
        if dst >= shared.nodes {
            return Err(NetError::NoSuchNode { dst, nodes: shared.nodes });
        }
        if shared.stop.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let bytes = payload.as_slice();
        assert!(bytes.len() <= MAX_FRAME, "frame larger than MAX_FRAME");
        shared.stats.record_send(shared.node, bytes.len());

        // Fault shim: same decision function and per-link counters as the
        // fabric, applied before the bytes reach the socket.
        let mut duplicate = false;
        let mut fragment = false;
        if let Some(shim) = shared.shim.read().as_ref() {
            let n = shim.counters[dst].fetch_add(1, Ordering::Relaxed);
            let t_ns = shim.installed_at.elapsed().as_nanos() as u64;
            let d = shim.plan.decide(shared.node, dst, n, t_ns);
            if d.drop {
                // Silent loss: the sender's NIC does not know the switch
                // ate the frame. Dropping the payload here releases any
                // pooled buffer.
                shared.stats.record_drop(shared.node);
                return Ok(());
            }
            duplicate = d.duplicate;
            // Under a shim, fragment every frame's header and body across
            // separate writes so reassembly over partial reads is
            // exercised, not just loss.
            fragment = true;
        }
        if duplicate {
            shared.stats.record_dup(shared.node);
        }

        if dst == shared.node {
            // Self-send: loop straight into the inbox, zero-copy.
            if duplicate {
                let copy = payload.clone();
                let _ = shared.inbox_tx.send(Packet { src: shared.node, dst, tag, payload: copy });
                shared.stats.record_recv(shared.node, bytes.len());
            }
            shared.stats.record_recv(shared.node, bytes.len());
            let _ = shared.inbox_tx.send(Packet { src: shared.node, dst, tag, payload });
            return Ok(());
        }

        let mut slot = shared.outbound[dst].lock();
        let stream = match slot.as_mut() {
            Some(s) => s,
            None => {
                return Err(if shared.stop.load(Ordering::Acquire) {
                    NetError::Closed
                } else {
                    NetError::LinkDown { src: shared.node, dst }
                });
            }
        };
        let writes = if duplicate { 2 } else { 1 };
        for _ in 0..writes {
            if let Err(e) = write_frame(stream, tag, bytes, fragment) {
                // The connection is gone; drop it so later sends fail
                // fast, and record the loss as link-down evidence for
                // the failure detector. Recovering the peer is the
                // reliability layer's job, not the socket's.
                stream.shutdown(Shutdown::Both).ok();
                *slot = None;
                drop(slot);
                shared.note_conn_lost(dst, &format!("write failed: {e}"));
                return Err(NetError::LinkDown { src: shared.node, dst });
            }
        }
        Ok(())
    }

    fn try_recv(&self) -> Option<Packet> {
        self.inbox_rx.try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        self.inbox_rx.recv_timeout(timeout).ok()
    }

    fn pending(&self) -> usize {
        self.inbox_rx.len()
    }

    fn observed_kill(&self, node: NodeId) -> bool {
        self.link_down(node)
            || self.shared.shim.read().as_ref().is_some_and(|s| s.plan.is_killed(node))
    }

    fn link_down(&self, node: NodeId) -> bool {
        self.shared.link_down[node].load(Ordering::Acquire)
    }

    fn set_log_warnings(&self, on: bool) {
        self.shared.log_warnings.store(on, Ordering::Relaxed);
    }

    fn stats(&self) -> &TrafficStats {
        &self.shared.stats
    }

    fn stats_arc(&self) -> Arc<TrafficStats> {
        Arc::clone(&self.shared.stats)
    }

    fn shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return; // idempotent
        }
        // Wake the readers: shutting the read side fails their blocking
        // reads, so these joins are bounded. Only the read side — a FIN
        // sent now would carry the receive window as it stands, possibly
        // zero, and nothing after it could reopen it. Frames already
        // parsed stay in the inbox; a partial frame dies with its reader
        // (its staging buffer and half-filled receive buffer are plain
        // Vecs — nothing pooled sits below the inbox on this backend).
        for slot in &self.shared.inbound_ctl {
            if let Some(s) = slot.lock().take() {
                s.shutdown(Shutdown::Read).ok();
            }
        }
        for h in std::mem::take(&mut *self.readers.lock()) {
            h.join().ok();
        }
        // Close the outbound links; peers observe EOF on their reader
        // side. With the readers gone every socket now closes for good,
        // and a peer blocked writing to us fails fast instead of filling
        // a dead socket buffer: bytes we left unread reset the
        // connection, and otherwise the closing FIN advertises the
        // drained buffer, so the peer's next segment meets a closed
        // socket and is reset.
        for slot in &self.shared.outbound {
            if let Some(s) = slot.lock().take() {
                s.shutdown(Shutdown::Both).ok();
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        Transport::shutdown(self);
    }
}

/// Writes one frame. Header and body leave in one vectored write — one
/// syscall and, for a small frame, one TCP segment. `fragment` instead
/// splits the header and body across separate flushed writes (fault-shim
/// mode) so the receiver's partial read reassembly is exercised
/// deterministically.
fn write_frame(stream: &mut TcpStream, tag: Tag, bytes: &[u8], fragment: bool) -> io::Result<()> {
    let mut hdr = [0u8; FRAME_HEADER];
    hdr[..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&tag.to_le_bytes());
    if fragment {
        stream.write_all(&hdr[..5])?;
        stream.flush()?;
        stream.write_all(&hdr[5..])?;
        if !bytes.is_empty() {
            let mid = bytes.len() / 2;
            stream.write_all(&bytes[..mid])?;
            stream.flush()?;
            stream.write_all(&bytes[mid..])?;
        }
        return stream.flush();
    }
    // `write_all_vectored` by hand: a full socket buffer can cut the
    // write short anywhere, header included.
    let mut sent = 0;
    while sent < FRAME_HEADER {
        match stream.write_vectored(&[IoSlice::new(&hdr[sent..]), IoSlice::new(bytes)]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.write_all(&bytes[sent - FRAME_HEADER..])
}

/// Hands one received frame body to the inbox as a pooled payload.
fn deliver(shared: &TcpShared, src: NodeId, tag: Tag, body: Vec<u8>) {
    shared.stats.record_recv(shared.node, body.len());
    let payload = Payload::pooled(body, Arc::clone(&shared.pool) as Arc<dyn BufRelease>);
    // A full inbox channel cannot happen (unbounded); a closed one means
    // the transport is gone and the packet is moot.
    let _ = shared.inbox_tx.send(Packet { src, dst: shared.node, tag, payload });
}

/// The reader thread of one inbound link: blocks in `read` until bytes
/// arrive, reassembles frames across partial reads and delivers them to
/// the inbox as pooled payloads (see "Send and receive path" in the
/// module docs). Runs until the stream ends — peer EOF, an I/O error, a
/// corrupt length prefix, or this transport's own shutdown / injected
/// kill severing the stream — and records that as link-down evidence. A
/// partial frame at that point is a torn tail: it is discarded, and
/// retransmission is the reliability layer's problem.
fn reader_loop(shared: Arc<TcpShared>, src: NodeId, mut stream: TcpStream) {
    let mut staging = vec![0u8; STAGING_BYTES];
    // Unparsed bytes are `staging[start..end]`.
    let (mut start, mut end) = (0, 0);
    let cause = 'link: loop {
        while end - start >= FRAME_HEADER {
            let word = |at: usize| -> [u8; 4] {
                staging[start + at..start + at + 4].try_into().expect("4-byte slice")
            };
            let len = u32::from_le_bytes(word(0)) as usize;
            let tag = Tag::from_le_bytes(word(4));
            if len > MAX_FRAME {
                // This stream can never re-synchronize: close it.
                stream.shutdown(Shutdown::Both).ok();
                break 'link "corrupt frame length prefix".to_string();
            }
            let body = start + FRAME_HEADER;
            if end - body >= len {
                let mut buf = shared.pool.get();
                buf.extend_from_slice(&staging[body..body + len]);
                deliver(&shared, src, tag, buf);
                start = body + len;
            } else if len >= IN_PLACE_MIN {
                // Staging holds nothing beyond this frame's head, so the
                // stream's next bytes are the rest of its body.
                let mut buf = shared.pool.get_sized(len);
                let have = end - body;
                buf[..have].copy_from_slice(&staging[body..end]);
                (start, end) = (0, 0);
                match stream.read_exact(&mut buf[have..]) {
                    Ok(()) => deliver(&shared, src, tag, buf),
                    Err(e) => break 'link format!("read failed mid-frame: {e}"),
                }
            } else {
                break; // the rest of a small body comes with the next read
            }
        }
        if start > 0 {
            // Make room: a small frame's tail must fit behind its head.
            staging.copy_within(start..end, 0);
            (start, end) = (0, end - start);
        }
        match stream.read(&mut staging[end..]) {
            Ok(0) => break "closed by peer (EOF)".to_string(),
            Ok(n) => end += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break format!("read failed: {e}"),
        }
    };
    shared.note_conn_lost(src, &cause);
}

fn write_hello(stream: &mut TcpStream, src: NodeId, nodes: usize) -> io::Result<()> {
    let mut hello = [0u8; 12];
    hello[..4].copy_from_slice(&HELLO_MAGIC.to_le_bytes());
    hello[4..8].copy_from_slice(&(src as u32).to_le_bytes());
    hello[8..].copy_from_slice(&(nodes as u32).to_le_bytes());
    stream.write_all(&hello)?;
    stream.flush()
}

fn read_hello(stream: &mut TcpStream, nodes: usize) -> io::Result<NodeId> {
    let mut hello = [0u8; 12];
    stream.read_exact(&mut hello)?;
    let magic = u32::from_le_bytes(hello[..4].try_into().expect("4-byte slice"));
    let src = u32::from_le_bytes(hello[4..8].try_into().expect("4-byte slice")) as usize;
    let peer_nodes = u32::from_le_bytes(hello[8..].try_into().expect("4-byte slice")) as usize;
    if magic != HELLO_MAGIC {
        return Err(io::Error::new(ErrorKind::InvalidData, "bad hello magic"));
    }
    if peer_nodes != nodes || src >= nodes {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("hello from node {src} of {peer_nodes} in a {nodes}-node cluster"),
        ));
    }
    Ok(src)
}

/// Accepts one connection, polling nonblocking until `deadline` — a
/// crashed peer fails the launch instead of hanging it.
fn accept_with_deadline(listener: &TcpListener, deadline: Instant) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        ErrorKind::TimedOut,
                        "timed out waiting for a peer to connect",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Performs the hello handshake on a freshly-accepted data connection
/// with a read timeout, so a stuck peer cannot hang construction.
fn accept_peer(
    listener: &TcpListener,
    nodes: usize,
    deadline: Instant,
) -> io::Result<(NodeId, TcpStream)> {
    let mut stream = accept_with_deadline(listener, deadline)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(handshake_timeout()))?;
    let src = read_hello(&mut stream, nodes)?;
    stream.set_read_timeout(None)?;
    Ok((src, stream))
}

/// Builds an N-node TCP mesh inside one process over 127.0.0.1 — the
/// `tcp-loopback` CI backend. All transports share one [`TrafficStats`]
/// table, so cluster-wide counters (metrics snapshots, bench harness)
/// behave exactly as over the sim fabric.
pub fn loopback_mesh(nodes: usize) -> io::Result<Vec<TcpTransport>> {
    assert!(nodes > 0, "a mesh needs at least one node");
    let stats = Arc::new(TrafficStats::new(nodes));
    let listeners: Vec<TcpListener> =
        (0..nodes).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> =
        listeners.iter().map(|l| l.local_addr()).collect::<io::Result<_>>()?;
    // Dial every directed pair first: connects complete against the
    // kernel's accept backlog and the 12-byte hellos fit in the socket
    // buffer, so no accept needs to run concurrently (deadlock-free).
    let mut outbound: Vec<Vec<Option<TcpStream>>> =
        (0..nodes).map(|_| (0..nodes).map(|_| None).collect()).collect();
    for (src, row) in outbound.iter_mut().enumerate() {
        for (dst, slot) in row.iter_mut().enumerate() {
            if src == dst {
                continue;
            }
            let mut s = TcpStream::connect(addrs[dst])?;
            s.set_nodelay(true).ok();
            write_hello(&mut s, src, nodes)?;
            *slot = Some(s);
        }
    }
    let deadline = Instant::now() + handshake_timeout();
    let mut transports = Vec::with_capacity(nodes);
    for (node, listener) in listeners.into_iter().enumerate() {
        let mut inbound = Vec::with_capacity(nodes - 1);
        for _ in 0..nodes - 1 {
            inbound.push(accept_peer(&listener, nodes, deadline)?);
        }
        transports.push(TcpTransport::assemble(
            node,
            nodes,
            inbound,
            std::mem::take(&mut outbound[node]),
            Arc::clone(&stats),
        )?);
    }
    Ok(transports)
}

/// How a peer process finds node 0's rendezvous listener.
#[derive(Debug, Clone)]
pub enum Bootstrap {
    /// The address is known up front (env-style bootstrap). Node 0 binds
    /// it; peers dial it.
    Addr(SocketAddr),
    /// Node 0 binds an ephemeral port and publishes `ip:port` to this
    /// file (written to a temp name, then renamed, so readers never see
    /// a partial write); peers poll the file until it appears.
    File(PathBuf),
    /// A shared-memory segment file for the same-host `shm` transport
    /// (see [`crate::shm::attach`]): node 0 creates it `O_EXCL`, peers
    /// map it. Not a TCP rendezvous at all — [`rendezvous`] rejects it.
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

/// The rendezvous side channel left over after [`rendezvous`]: node 0
/// keeps one stream per peer, each peer keeps its stream to node 0. The
/// launcher uses it to signal end-of-job so peers know when to shut
/// down (a runtime has no application-level "job finished" broadcast).
pub enum Control {
    /// Node 0's end: one stream per peer, labeled with the peer's id so
    /// barrier timeouts can name who went missing.
    Coordinator(Vec<(NodeId, TcpStream)>),
    /// A peer's end: the stream to node 0.
    Peer(TcpStream),
}

impl Control {
    fn counterparts(&mut self) -> Vec<(NodeId, &mut TcpStream)> {
        match self {
            Control::Coordinator(v) => v.iter_mut().map(|(id, s)| (*id, s)).collect(),
            Control::Peer(s) => vec![(0, s)],
        }
    }

    /// Sends the done byte to the other side(s). Errors are swallowed —
    /// a peer that already exited has effectively acknowledged.
    pub fn signal_done(&mut self) {
        for (_, s) in self.counterparts() {
            s.write_all(&[CONTROL_DONE]).ok();
            s.flush().ok();
        }
    }

    /// Blocks until the other side(s) send the done byte or hang up
    /// (process exit counts as done — EOF is an acknowledgement).
    pub fn wait_done(&mut self) {
        for (_, s) in self.counterparts() {
            s.set_read_timeout(None).ok();
            let mut byte = [0u8; 1];
            let _ = s.read(&mut byte);
        }
    }

    /// Like [`Control::wait_done`] but bounded: waits at most `timeout`
    /// in total, and returns the ids of nodes that neither signalled
    /// done nor hung up — the barrier reports *who* went missing instead
    /// of hanging the launcher. EOF and connection errors count as done
    /// (the peer is gone; it cannot be waited on).
    pub fn wait_done_timeout(&mut self, timeout: Duration) -> Result<(), Vec<NodeId>> {
        let deadline = Instant::now() + timeout;
        let mut missing = Vec::new();
        for (id, s) in self.counterparts() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                missing.push(id);
                continue;
            }
            s.set_read_timeout(Some(left)).ok();
            let mut byte = [0u8; 1];
            match s.read(&mut byte) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    missing.push(id);
                }
                Err(_) => {} // connection died: the peer is gone, counts as done
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(missing)
        }
    }
}

/// Registration message a peer sends node 0: magic, node id, cluster
/// size, then its data-listener address as a length-prefixed string.
fn write_registration(
    stream: &mut TcpStream,
    node: NodeId,
    nodes: usize,
    addr: &SocketAddr,
) -> io::Result<()> {
    write_hello(stream, node, nodes)?;
    let text = addr.to_string();
    let bytes = text.as_bytes();
    stream.write_all(&(bytes.len() as u16).to_le_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()
}

fn read_addr(stream: &mut TcpStream) -> io::Result<SocketAddr> {
    let mut len = [0u8; 2];
    stream.read_exact(&mut len)?;
    let mut text = vec![0u8; u16::from_le_bytes(len) as usize];
    stream.read_exact(&mut text)?;
    let text = std::str::from_utf8(&text)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("bad addr utf8: {e}")))?;
    text.parse()
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("bad addr {text:?}: {e}")))
}

/// Publishes node 0's rendezvous address: write to a temp name in the
/// same directory, then rename, so a polling peer never reads a torn
/// write.
fn publish_addr(path: &Path, addr: &SocketAddr) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, addr.to_string())?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Polls the bootstrap file until node 0 publishes its address.
fn poll_addr(path: &Path, deadline: Instant) -> io::Result<SocketAddr> {
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("bootstrap file {} never appeared", path.display()),
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Multi-process rendezvous: brings up this node's slice of an N-node
/// TCP mesh and returns the transport plus the [`Control`] side channel.
///
/// The protocol (node 0 listens, peers dial — per the launcher design):
///
/// 1. every node binds its *data* listener on an ephemeral port;
/// 2. node 0 binds the *rendezvous* listener ([`Bootstrap::Addr`]: that
///    address; [`Bootstrap::File`]: an ephemeral port, published to the
///    file atomically);
/// 3. each peer dials the rendezvous listener and registers
///    `(node id, data address)`;
/// 4. node 0 broadcasts the complete `NodeId` ↔ address map over the
///    registration connections — which then stay open as the control
///    channel;
/// 5. everyone dials every higher-numbered peer's data listener (hello
///    identifies the dialer) and accepts from every lower-numbered one,
///    completing the full mesh.
///
/// Every blocking step carries a bounded deadline ([`handshake_timeout`],
/// 60 s default, `GMT_RDV_TIMEOUT_MS` to override) plus retry/backoff on
/// dials, so one crashed process fails the whole launch with a
/// stage-attributed error instead of wedging it. Node 0 deletes a
/// [`Bootstrap::File`] once every peer has registered (the launcher also
/// cleans it up on its own exit paths).
pub fn rendezvous(
    node: NodeId,
    nodes: usize,
    bootstrap: &Bootstrap,
) -> io::Result<(TcpTransport, Control)> {
    assert!(nodes > 0 && node < nodes, "node {node} out of range for {nodes} nodes");
    if let Bootstrap::Shm(path) = bootstrap {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "bootstrap shm:{} is a shared-memory segment, not a TCP rendezvous; \
                 attach with GMT_TRANSPORT=shm (gmt_net::shm::attach)",
                path.display()
            ),
        ));
    }
    let deadline = Instant::now() + handshake_timeout();
    let data_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| stage_err("binding data listener", e))?;
    let data_addr = data_listener.local_addr()?;

    // Phase 1: learn the full address map through node 0.
    let (addrs, control) = if node == 0 {
        let rdv = match bootstrap {
            Bootstrap::Addr(a) => TcpListener::bind(a)
                .map_err(|e| stage_err(format_args!("binding rendezvous listener at {a}"), e))?,
            Bootstrap::File(path) => {
                let l = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| stage_err("binding rendezvous listener", e))?;
                publish_addr(path, &l.local_addr()?).map_err(|e| {
                    stage_err(format_args!("publishing bootstrap file {}", path.display()), e)
                })?;
                l
            }
            Bootstrap::Shm(_) => unreachable!("rejected at entry"),
        };
        let result = coordinate_registration(&rdv, nodes, data_addr, deadline);
        if let Bootstrap::File(path) = bootstrap {
            // Every peer has read the file by now (or the launch failed);
            // either way it must not outlive the rendezvous.
            std::fs::remove_file(path).ok();
        }
        result?
    } else {
        let rdv_addr = match bootstrap {
            Bootstrap::Addr(a) => *a,
            Bootstrap::File(path) => poll_addr(path, deadline).map_err(|e| {
                stage_err(format_args!("polling bootstrap file {}", path.display()), e)
            })?,
            Bootstrap::Shm(_) => unreachable!("rejected at entry"),
        };
        // Node 0 may not be listening yet; retry with backoff until the
        // deadline.
        let mut s = dial_with_retry(rdv_addr, deadline)
            .map_err(|e| stage_err("dialing node 0's rendezvous listener", e))?;
        s.set_nodelay(true).ok();
        write_registration(&mut s, node, nodes, &data_addr)
            .map_err(|e| stage_err("registering with node 0", e))?;
        s.set_read_timeout(Some(handshake_timeout()))?;
        let addrs: Vec<SocketAddr> = (0..nodes)
            .map(|_| read_addr(&mut s))
            .collect::<io::Result<_>>()
            .map_err(|e| stage_err("reading the address map from node 0", e))?;
        s.set_read_timeout(None)?;
        (addrs, Control::Peer(s))
    };

    // Phase 2: full mesh. Dial higher-numbered peers, accept
    // lower-numbered ones — each pair gets exactly one (bidirectional)
    // stream, and dialing cannot deadlock against accepting (connects
    // complete via the kernel backlog). Both sides clone the stream so
    // the reader thread and the send path each hold a handle.
    let mut outbound: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();
    let mut inbound = Vec::with_capacity(nodes - 1);
    for dst in node + 1..nodes {
        let mut s = dial_with_retry(addrs[dst], deadline)
            .map_err(|e| stage_err(format_args!("dialing node {dst}'s data listener"), e))?;
        s.set_nodelay(true).ok();
        write_hello(&mut s, node, nodes)
            .map_err(|e| stage_err(format_args!("greeting node {dst}"), e))?;
        inbound.push((dst, s.try_clone()?));
        outbound[dst] = Some(s);
    }
    for accepted in 0..node {
        let (src, stream) = accept_peer(&data_listener, nodes, deadline).map_err(|e| {
            stage_err(format_args!("accepting data connections (have {accepted} of {node})"), e)
        })?;
        outbound[src] = Some(stream.try_clone()?);
        inbound.push((src, stream));
    }

    let stats = Arc::new(TrafficStats::new(nodes));
    let transport = TcpTransport::assemble(node, nodes, inbound, outbound, stats)?;
    Ok((transport, control))
}

/// Node 0's half of rendezvous phase 1: accept every peer's
/// registration, then broadcast the complete address map. Split out so
/// the caller can clean up the bootstrap file on success *and* failure.
fn coordinate_registration(
    rdv: &TcpListener,
    nodes: usize,
    data_addr: SocketAddr,
    deadline: Instant,
) -> io::Result<(Vec<SocketAddr>, Control)> {
    let mut addrs: Vec<Option<SocketAddr>> = vec![None; nodes];
    addrs[0] = Some(data_addr);
    let mut regs: Vec<(NodeId, TcpStream)> = Vec::with_capacity(nodes - 1);
    for have in 0..nodes - 1 {
        let missing = || {
            let waiting: Vec<NodeId> =
                (1..nodes).filter(|n| !regs.iter().any(|(id, _)| id == n)).collect();
            format_args!(
                "waiting for registrations (have {have} of {}; missing {waiting:?})",
                nodes - 1
            )
            .to_string()
        };
        let mut s = accept_with_deadline(rdv, deadline).map_err(|e| stage_err(missing(), e))?;
        s.set_nodelay(true).ok();
        s.set_read_timeout(Some(handshake_timeout()))?;
        let peer = read_hello(&mut s, nodes).map_err(|e| stage_err(missing(), e))?;
        let addr = read_addr(&mut s)
            .map_err(|e| stage_err(format_args!("reading node {peer}'s data address"), e))?;
        if addrs[peer].replace(addr).is_some() {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("node {peer} registered twice"),
            ));
        }
        regs.push((peer, s));
    }
    let addrs: Vec<SocketAddr> = addrs.into_iter().map(|a| a.expect("all slots filled")).collect();
    // Broadcast the map over the registration connections — which then
    // stay open as the control channel, labeled by peer id.
    for (peer, s) in regs.iter_mut() {
        let broadcast = |e| stage_err(format_args!("broadcasting address map to node {peer}"), e);
        for a in &addrs {
            let text = a.to_string();
            s.write_all(&(text.len() as u16).to_le_bytes()).map_err(broadcast)?;
            s.write_all(text.as_bytes()).map_err(broadcast)?;
        }
        s.flush().map_err(broadcast)?;
    }
    Ok((addrs, Control::Coordinator(regs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_parses_both_forms() {
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
    fn rendezvous_rejects_an_shm_bootstrap() {
        match rendezvous(0, 2, &Bootstrap::Shm(PathBuf::from("/tmp/x.seg"))) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
            Ok(_) => panic!("shm bootstrap must not rendezvous over TCP"),
        }
    }

    #[test]
    fn frames_roundtrip_over_a_loopback_pair() {
        let mesh = loopback_mesh(2).expect("mesh");
        let (a, b) = (&mesh[0], &mesh[1]);
        for len in [0usize, 1, 7, 4096, 100_000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            a.send(1, 42, Payload::from(bytes.clone())).expect("send");
            let got = b.recv_timeout(Duration::from_secs(10)).expect("frame arrives");
            assert_eq!(got.src, 0);
            assert_eq!(got.dst, 1);
            assert_eq!(got.tag, 42);
            assert_eq!(got.payload.as_slice(), &bytes[..]);
            assert!(got.payload.is_pooled(), "receive side must pool buffers");
        }
        assert_eq!(a.stats().node(0).sent_msgs, 5);
        assert_eq!(b.stats().node(1).recv_msgs, 5);
    }

    /// A deterministic body for frame `i`.
    fn pattern(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|k| ((k * 31 + i * 7) % 251) as u8).collect()
    }

    /// Sends frames on both sides of the in-place threshold, small and
    /// large interleaved, and checks each arrives intact and in order.
    fn assert_boundary_sizes_roundtrip(mesh: &[TcpTransport]) {
        const BIG: usize = 1 << 20;
        let sizes =
            [0, BIG, 1, IN_PLACE_MIN, IN_PLACE_MIN - 1, 64 << 10, 0, 7, BIG, IN_PLACE_MIN - 1];
        // Two rounds, so the second reads over recycled (stale) buffers.
        for round in 0..2 {
            for (i, &len) in sizes.iter().enumerate() {
                mesh[0].send(1, i as Tag, Payload::from(pattern(i + round, len))).expect("send");
            }
            for (i, &len) in sizes.iter().enumerate() {
                let got = mesh[1].recv_timeout(Duration::from_secs(10)).expect("frame arrives");
                assert_eq!(got.tag, i as Tag, "frames arrived out of order");
                assert!(got.payload.as_slice() == pattern(i + round, len), "frame {i} corrupted");
                assert!(got.payload.is_pooled(), "receive side must pool buffers");
            }
        }
        assert!(mesh[1].try_recv().is_none(), "a frame was delivered twice");
    }

    #[test]
    fn frames_around_the_in_place_threshold_arrive_intact_and_fifo() {
        let mesh = loopback_mesh(2).expect("mesh");
        assert_boundary_sizes_roundtrip(&mesh);
        // Again with every header and body split across writes: a large
        // frame's head now reaches the reader in pieces, too.
        mesh[0].install_faults(FaultPlan::new(1));
        assert_boundary_sizes_roundtrip(&mesh);
    }

    /// Writes the header of a `len`-byte frame plus the first `body` bytes
    /// of its pattern straight onto `src`'s stream to `dst`, leaving the
    /// frame incomplete.
    fn write_frame_head(src: &TcpTransport, dst: NodeId, tag: Tag, len: usize, body: usize) {
        let mut head = (len as u32).to_le_bytes().to_vec();
        head.extend_from_slice(&tag.to_le_bytes());
        head.extend_from_slice(&pattern(tag as usize, len)[..body]);
        let mut slot = src.shared.outbound[dst].lock();
        slot.as_mut().expect("link is up").write_all(&head).expect("write frame head");
    }

    #[test]
    fn eof_mid_large_frame_is_counted_once_and_delivers_nothing() {
        let mesh = loopback_mesh(2).expect("mesh");
        mesh[0].send(1, 1, Payload::from(vec![1u8; 8])).expect("send");
        write_frame_head(&mesh[0], 1, 2, 4 * IN_PLACE_MIN, 1000);
        // The sender dies with most of the frame unsent.
        mesh[0].shared.outbound[1].lock().as_ref().unwrap().shutdown(Shutdown::Write).unwrap();
        poll_until("the torn frame to become link-down evidence", || mesh[1].link_down(0));
        let whole = mesh[1].recv_timeout(Duration::from_secs(10)).expect("the whole frame");
        assert_eq!(whole.tag, 1);
        assert!(mesh[1].try_recv().is_none(), "a torn frame must never be delivered");
        assert_eq!(mesh[1].stats().node(1).conn_lost, 1);
        // The reader of that link is gone; shutdown still joins cleanly
        // and does not count the loss again.
        Transport::shutdown(&mesh[1]);
        assert_eq!(mesh[1].stats().node(1).conn_lost, 1);
    }

    #[test]
    fn every_inbound_link_of_a_mesh_is_served_independently() {
        let mesh = loopback_mesh(3).expect("mesh");
        // Park the reader of link 0 -> 2 in the middle of a large frame.
        const LEN: usize = 2 * IN_PLACE_MIN;
        write_frame_head(&mesh[0], 2, 5, LEN, 100);
        // Every other directed link delivers meanwhile — also 1 -> 2,
        // into the node whose other reader is stuck.
        let links = [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)];
        for (src, dst) in links {
            mesh[src].send(dst, src as Tag, Payload::from(vec![src as u8; 32])).expect("send");
        }
        for (dst, node) in mesh.iter().enumerate() {
            let expected: Vec<NodeId> = links.iter().filter(|l| l.1 == dst).map(|l| l.0).collect();
            let mut from: Vec<NodeId> = expected
                .iter()
                .map(|_| {
                    let got = node.recv_timeout(Duration::from_secs(10)).expect("frame");
                    assert_eq!(got.payload.as_slice(), &[got.src as u8; 32][..]);
                    got.src
                })
                .collect();
            from.sort_unstable();
            assert_eq!(from, expected, "links into node {dst}");
        }
        assert!(mesh.iter().all(|node| node.try_recv().is_none()));
        // The stalled frame completes and arrives whole.
        let rest = pattern(5, LEN).split_off(100);
        mesh[0].shared.outbound[2].lock().as_mut().unwrap().write_all(&rest).expect("write rest");
        let got = mesh[2].recv_timeout(Duration::from_secs(10)).expect("the large frame");
        assert_eq!((got.src, got.tag), (0, 5));
        assert!(got.payload.as_slice() == pattern(5, LEN));
    }

    #[test]
    fn small_frame_round_trip_waits_for_no_timer() {
        // The polling reader slept 100 us between empty sweeps, which
        // put a floor of ~200 us under a round trip. A blocking reader is
        // woken by the arrival itself.
        let mesh = loopback_mesh(2).expect("mesh");
        let done = AtomicBool::new(false);
        let recv_spin = |t: &TcpTransport| loop {
            if let Some(p) = t.try_recv() {
                return Some(p);
            }
            if done.load(Ordering::Acquire) {
                return None;
            }
            std::thread::yield_now();
        };
        let best = std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(p) = recv_spin(&mesh[1]) {
                    mesh[1].send(0, p.tag, p.payload).expect("echo");
                }
            });
            // Best of five batches: other tests share the CPUs.
            let best = (0..5)
                .map(|_| {
                    let mut rtts: Vec<Duration> = (0..200)
                        .map(|_| {
                            let t0 = Instant::now();
                            mesh[0].send(1, 0, Payload::from(vec![1u8; 64])).expect("ping");
                            recv_spin(&mesh[0]).expect("pong");
                            t0.elapsed()
                        })
                        .collect();
                    rtts.sort_unstable();
                    rtts[rtts.len() / 2]
                })
                .min()
                .expect("five batches");
            done.store(true, Ordering::Release);
            best
        });
        assert!(best < Duration::from_micros(100), "median 64 B round trip took {best:?}");
    }

    #[test]
    fn self_send_loops_back() {
        let mesh = loopback_mesh(1).expect("mesh");
        mesh[0].send(0, 7, Payload::from(vec![1, 2, 3])).expect("send");
        let got = mesh[0].recv_timeout(Duration::from_secs(5)).expect("self packet");
        assert_eq!((got.src, got.dst, got.tag), (0, 0, 7));
        assert_eq!(got.payload.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn per_link_fifo_is_preserved() {
        let mesh = loopback_mesh(2).expect("mesh");
        for i in 0..500u32 {
            mesh[0].send(1, i, Payload::from(i.to_le_bytes().to_vec())).expect("send");
        }
        for i in 0..500u32 {
            let got = mesh[1].recv_timeout(Duration::from_secs(10)).expect("packet");
            assert_eq!(got.tag, i, "frames arrived out of order");
        }
    }

    #[test]
    fn shim_drop_blackholes_and_counts() {
        let mesh = loopback_mesh(2).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(1).drop(0, 1, 1.0));
        mesh[0].send(1, 9, Payload::from(vec![0u8; 64])).expect("drop is a successful send");
        assert_eq!(mesh[0].stats().node(0).dropped_msgs, 1);
        assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
        mesh[0].clear_faults();
        mesh[0].send(1, 10, Payload::from(vec![1])).expect("send");
        assert!(mesh[1].recv_timeout(Duration::from_secs(10)).is_some());
    }

    #[test]
    fn shim_dup_delivers_twice_over_real_framing() {
        let mesh = loopback_mesh(2).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(1).dup(0, 1, 1.0));
        mesh[0].send(1, 3, Payload::from(vec![9u8; 33])).expect("send");
        let first = mesh[1].recv_timeout(Duration::from_secs(10)).expect("first copy");
        let second = mesh[1].recv_timeout(Duration::from_secs(10)).expect("second copy");
        assert_eq!(first.payload, second.payload);
        assert_eq!(mesh[0].stats().node(0).duplicated_msgs, 1);
    }

    #[test]
    fn killed_peer_is_observed_and_blackholed() {
        let mesh = loopback_mesh(2).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(1).kill(1));
        assert!(mesh[0].observed_kill(1));
        assert!(!mesh[0].observed_kill(0));
        mesh[0].send(1, 1, Payload::from(vec![1])).expect("blackholed send succeeds");
        assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
    }

    #[test]
    fn shutdown_mid_traffic_neither_hangs_nor_errors_the_receiver() {
        let mesh = loopback_mesh(2).expect("mesh");
        let mut it = mesh.into_iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        let sender = std::thread::spawn(move || {
            // Hammer until the transport reports closed/down.
            loop {
                match a.send(1, 0, Payload::from(vec![5u8; 512])) {
                    Ok(()) => {}
                    Err(NetError::Closed) | Err(NetError::LinkDown { .. }) => break,
                    Err(e) => panic!("unexpected send error: {e:?}"),
                }
            }
            Transport::shutdown(&a);
            drop(a);
        });
        // Receive some traffic, then shut down while the peer still sends.
        for _ in 0..50 {
            if b.recv_timeout(Duration::from_secs(10)).is_none() {
                break;
            }
        }
        Transport::shutdown(&b);
        Transport::shutdown(&b); // idempotent
        assert!(matches!(b.send(0, 0, Payload::from(vec![1])), Err(NetError::Closed)));
        // Already-queued packets stay receivable after shutdown.
        while b.try_recv().is_some() {}
        drop(b); // peer sees EOF (if it had not already hit LinkDown)
        sender.join().expect("sender thread");
    }

    /// Polls until `cond` holds, failing the test at the deadline.
    fn poll_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn lost_peer_becomes_link_down_evidence_and_is_counted_once() {
        let mesh = loopback_mesh(2).expect("mesh");
        let mut it = mesh.into_iter();
        let a = it.next().unwrap();
        let b = it.next().unwrap();
        assert!(!a.link_down(1) && !a.observed_kill(1), "no evidence before the loss");

        // b dies (shutdown closes its streams like a process exit would).
        Transport::shutdown(&b);
        poll_until("reader EOF to become link-down evidence", || a.link_down(1));
        assert!(a.observed_kill(1), "observed_kill must reflect link-down evidence");
        assert!(!a.link_down(0), "a node never loses the connection to itself");

        // The send path hits the dead stream too; the loss stays counted
        // once per peer no matter how many paths observe it.
        loop {
            match a.send(1, 0, Payload::from(vec![7u8; 64])) {
                Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                Err(NetError::LinkDown { src: 0, dst: 1 }) => break,
                Err(e) => panic!("unexpected send error: {e:?}"),
            }
        }
        assert_eq!(a.stats().node(0).conn_lost, 1);
        Transport::shutdown(&a);
        // a's own shutdown must not count as losing its peers.
        assert_eq!(a.stats().node(0).conn_lost, 1);
    }

    #[test]
    fn kill_fault_severs_streams_and_surviving_side_observes_it() {
        let mesh = loopback_mesh(2).expect("mesh");
        mesh[0].install_faults(FaultPlan::new(1).kill(1));
        // The killer's view: blackholed sends still succeed, the kill is
        // observed through the plan.
        assert!(mesh[0].observed_kill(1));
        mesh[0].send(1, 1, Payload::from(vec![1])).expect("blackholed send succeeds");
        assert!(mesh[1].recv_timeout(Duration::from_millis(200)).is_none());
        // The victim's view: both streams died under it — exactly what a
        // real crash of node 0 would look like — and that loss is
        // first-hand evidence, with no fault plan installed on its side.
        poll_until("victim to observe the severed streams", || mesh[1].link_down(0));
        assert!(mesh[1].observed_kill(0));
        assert!(mesh[1].stats().node(1).conn_lost >= 1);
    }

    #[test]
    fn flap_window_drops_frames_then_recovers() {
        let mesh = loopback_mesh(2).expect("mesh");
        // Link 0->1 is down for the first 200 ms after install.
        mesh[0].install_faults(FaultPlan::new(3).flap(0, 1, 0, 200_000_000));
        mesh[0].send(1, 5, Payload::from(vec![2u8; 16])).expect("flapped send succeeds");
        assert_eq!(mesh[0].stats().node(0).dropped_msgs, 1, "in-window frame must drop");
        assert!(mesh[1].recv_timeout(Duration::from_millis(100)).is_none());
        std::thread::sleep(Duration::from_millis(150));
        mesh[0].send(1, 6, Payload::from(vec![3u8; 16])).expect("send");
        let got = mesh[1].recv_timeout(Duration::from_secs(10)).expect("post-window frame");
        assert_eq!(got.tag, 6, "the dropped frame must not reappear");
        assert!(!mesh[0].observed_kill(1), "a flap is not a kill");
    }

    #[test]
    fn done_barrier_timeout_names_the_missing_node() {
        // A coordinator whose peer registered but never signals done:
        // the bounded wait must name node 2 instead of hanging.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let silent = TcpStream::connect(addr).expect("dial");
        let (accepted, _) = listener.accept().expect("accept");
        let mut control = Control::Coordinator(vec![(2, accepted)]);
        let t0 = Instant::now();
        assert_eq!(control.wait_done_timeout(Duration::from_millis(100)), Err(vec![2]));
        assert!(t0.elapsed() < Duration::from_secs(5));
        // Once the peer hangs up, EOF counts as done.
        drop(silent);
        assert_eq!(control.wait_done_timeout(Duration::from_secs(5)), Ok(()));
    }

    #[test]
    fn rendezvous_builds_a_mesh_across_threads() {
        let nodes = 3;
        let dir = std::env::temp_dir().join(format!("gmt-rdv-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let file = dir.join("bootstrap");
        std::fs::remove_file(&file).ok();
        let boot = Bootstrap::File(file.clone());
        let handles: Vec<_> = (0..nodes)
            .map(|node| {
                let boot = boot.clone();
                std::thread::spawn(move || {
                    let (t, mut control) = rendezvous(node, nodes, &boot).expect("rendezvous");
                    // Everyone sends to everyone (including itself).
                    for dst in 0..nodes {
                        t.send(dst, node as Tag, Payload::from(vec![node as u8; 8])).expect("send");
                    }
                    // ... and receives one frame from everyone.
                    let mut seen = vec![false; nodes];
                    for _ in 0..nodes {
                        let p = t.recv_timeout(Duration::from_secs(30)).expect("frame");
                        assert_eq!(p.payload.as_slice(), &[p.src as u8; 8][..]);
                        assert!(!seen[p.src], "duplicate from {}", p.src);
                        seen[p.src] = true;
                    }
                    if node == 0 {
                        control.signal_done();
                        control.wait_done();
                    } else {
                        control.wait_done();
                    }
                    Transport::shutdown(&t);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node thread");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
