//! The TCP leaf of the framed transport.
//!
//! Where [`fabric`](crate::fabric) simulates the interconnect inside one
//! process, this is the wire that leaves it: one runtime node per OS
//! process (or per mesh slot in-process for CI), one `TcpStream` per
//! directed peer pair, and one blocking reader thread per inbound link
//! that reassembles frames across partial reads and hands them to the
//! [`framed`](crate::framed) core, which owns everything else (inbox,
//! fault shim, loss evidence, shutdown gate).
//!
//! # Wire format
//!
//! Frames are the core's (`[len][tag]` + payload). Connections open with
//! a 12-byte hello — `[magic][src node][cluster size]`, all `u32 LE` —
//! so the acceptor can attribute inbound frames to a [`NodeId`] without
//! trusting addresses.
//!
//! # Send and receive path
//!
//! No timer sits between a frame's write and its processing, and a frame
//! costs one syscall and one copy on each side:
//!
//! * **Send** — header and body leave in one vectored write
//!   (`write_frame`); a small frame is one TCP segment, not two.
//! * **Wake on arrival** — each inbound link has its own reader thread
//!   (`gmt-tcp-rx-<node>-<src>`) parked in a blocking `read`, so the
//!   kernel wakes it when bytes land. One reader sweeping every link
//!   nonblocking, asleep between empty sweeps, puts that sleep (plus
//!   timer slack) into every round trip: a 64 B ping-pong took 366 µs
//!   that way against 21 µs this way (`net.ceil.tcp_rtt_us`, bench/e2e).
//!   One thread per link needs no readiness syscall and scales to N peers by
//!   construction; an idle reader costs nothing. Shutdown and injected
//!   kills unblock a reader by severing the `inbound_ctl` clone of its
//!   stream, so joins stay bounded.
//! * **Applied by the reader, handed over once per read** — the frames
//!   one `read` brought go to the core together (`Core::deliver`): to
//!   the receiver's [`ArrivalHook`](crate::ArrivalHook) when it installed
//!   one and the hook takes them — the runtime's steps them through its
//!   reliable link on this thread, so a frame costs no hand-off to
//!   another thread — and otherwise to the inbox, with one wake of the
//!   receiver for the whole read.
//! * **Fragmented under a fault plan** — a push that carries the shim's
//!   decision splits header and body across separate flushed writes, so
//!   reassembly over partial reads is exercised deterministically.
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
//! * `rendezvous` is the multi-process path behind
//!   [`connect`](crate::connect): node 0 listens at a bootstrap address
//!   (given directly or published through a file), peers dial in and
//!   register their data-listener addresses, node 0 broadcasts the full
//!   `NodeId` ↔ address map, and every pair then connects directly. The
//!   registration connections stay open as the job's
//!   [`DoneBarrier`].
//!
//! # Connection-loss evidence
//!
//! EOF, ECONNRESET, a corrupt length prefix on the read side and a write
//! failure on the send side are each reported to the core as loss of
//! that peer, so a crashed peer process is declared dead in detection
//! time, not death-timeout time.

use crate::fabric::{NetError, Tag};
use crate::fault::FaultDecision;
use crate::framed::{
    decode_header, encode_header, Core, FramedTransport, Link, FRAME_HEADER, MAX_FRAME,
};
use crate::payload::Payload;
use crate::stats::TrafficStats;
use crate::transport::{Bootstrap, DoneBarrier, Transport, HANDSHAKE_TIMEOUT};
use crate::NodeId;
use crossbeam::channel;
use parking_lot::Mutex;
use std::io::{self, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Done byte on the rendezvous control streams.
const CONTROL_DONE: u8 = 0xD0;

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

/// The streams of one node's slice of a TCP mesh.
pub struct TcpLink {
    core: Arc<Core>,
    /// Outbound stream per peer (`None` for self and for torn-down
    /// links). Each slot's mutex also serializes frame writes.
    outbound: Vec<Mutex<Option<TcpStream>>>,
    /// Clones of the inbound streams (the reader threads own the
    /// originals), kept so an injected kill or a shutdown can sever the
    /// receive side: that is what wakes a reader out of its blocking
    /// `read`.
    inbound_ctl: Vec<Mutex<Option<TcpStream>>>,
    /// One reader thread per inbound link; taken (and joined) by `close`.
    readers: Mutex<Vec<JoinHandle<()>>>,
}

/// One node's attachment to a TCP mesh.
pub type TcpTransport = FramedTransport<TcpLink>;

/// Assembles a transport from already-handshaked streams and spawns one
/// reader thread per inbound link. `inbound[i] = (src, stream)`;
/// `outbound[dst]` is `None` for `dst == node`.
fn assemble(
    node: NodeId,
    nodes: usize,
    inbound: Vec<(NodeId, TcpStream)>,
    outbound: Vec<Option<TcpStream>>,
    stats: Arc<TrafficStats>,
) -> io::Result<TcpTransport> {
    debug_assert_eq!(outbound.len(), nodes);
    let mut inbound_ctl: Vec<Option<TcpStream>> = (0..nodes).map(|_| None).collect();
    for (src, stream) in &inbound {
        inbound_ctl[*src] = Some(stream.try_clone()?);
    }
    let (inbox_tx, inbox_rx) = channel::unbounded();
    let core = Core::new(node, nodes, stats, inbox_tx);
    let link = TcpLink {
        core: Arc::clone(&core),
        outbound: outbound.into_iter().map(Mutex::new).collect(),
        inbound_ctl: inbound_ctl.into_iter().map(Mutex::new).collect(),
        readers: Mutex::new(Vec::new()),
    };
    let transport = FramedTransport::new(core, inbox_rx, link);
    for (src, stream) in inbound {
        let core = Arc::clone(&transport.core);
        // On a spawn failure `transport` drops, and its shutdown joins
        // the readers already running.
        let reader = std::thread::Builder::new()
            .name(format!("gmt-tcp-rx-{node}-{src}"))
            .spawn(move || reader_loop(core, src, stream))?;
        transport.link.readers.lock().push(reader);
    }
    Ok(transport)
}

impl Link for TcpLink {
    fn max_frame(&self) -> usize {
        MAX_FRAME
    }

    /// The readers deliver through the core, which wakes.
    fn wake_on_arrival(&self, _waker: &Waker) -> bool {
        true
    }

    fn has_readers(&self) -> bool {
        true
    }

    /// Fragments whenever a fault plan is installed.
    fn push(
        &self,
        dst: NodeId,
        tag: Tag,
        payload: Payload,
        fault: Option<FaultDecision>,
    ) -> Result<(), NetError> {
        let down = NetError::LinkDown { src: self.core.node, dst };
        let mut slot = self.outbound[dst].lock();
        let Some(stream) = slot.as_mut() else {
            return Err(if self.core.stopping() { NetError::Closed } else { down });
        };
        if let Err(e) = write_frame(stream, tag, &payload, fault.is_some()) {
            // The connection is gone; drop it so later sends fail fast,
            // and record the loss as evidence for the failure detector.
            // Recovering the peer is the reliability layer's job, not
            // the socket's.
            stream.shutdown(Shutdown::Both).ok();
            *slot = None;
            drop(slot);
            self.core.note_conn_lost(dst, &format!("write failed: {e}"));
            return Err(down);
        }
        Ok(())
    }

    fn sever(&self, peer: NodeId) {
        for slot in [&self.outbound[peer], &self.inbound_ctl[peer]] {
            if let Some(s) = slot.lock().take() {
                s.shutdown(Shutdown::Both).ok();
            }
        }
    }

    fn close(&self) {
        // Wake the readers: shutting the read side fails their blocking
        // reads, so these joins are bounded. Only the read side — a FIN
        // sent now would carry the receive window as it stands, possibly
        // zero, and nothing after it could reopen it. Frames already
        // parsed stay in the inbox; a partial frame dies with its reader
        // (its staging buffer and half-filled receive buffer are plain
        // Vecs — nothing pooled sits below the inbox on this backend).
        for slot in &self.inbound_ctl {
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
        for slot in &self.outbound {
            if let Some(s) = slot.lock().take() {
                s.shutdown(Shutdown::Both).ok();
            }
        }
    }
}

/// Writes one frame. Header and body leave in one vectored write — one
/// syscall and, for a small frame, one TCP segment. `fragment` instead
/// splits the header and body across separate flushed writes (fault-shim
/// mode) so the receiver's partial read reassembly is exercised
/// deterministically.
fn write_frame(stream: &mut TcpStream, tag: Tag, bytes: &[u8], fragment: bool) -> io::Result<()> {
    let hdr = encode_header(bytes.len(), tag);
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

/// The reader thread of one inbound link: blocks in `read` until bytes
/// arrive, reassembles frames across partial reads and hands each read's
/// frames over together as pooled payloads (see "Send and receive path"
/// in the module docs). Runs until the stream ends — peer EOF, an I/O
/// error, a corrupt length prefix, or this transport's own shutdown /
/// injected kill severing the stream — and reports that as loss of the
/// peer. A partial frame at that point is a torn tail: it is discarded,
/// and retransmission is the reliability layer's problem.
fn reader_loop(core: Arc<Core>, src: NodeId, mut stream: TcpStream) {
    let mut staging = vec![0u8; STAGING_BYTES];
    // Unparsed bytes are `staging[start..end]`.
    let (mut start, mut end) = (0, 0);
    // The whole frames parsed since the last hand-over.
    let mut batch = Vec::new();
    let cause = 'link: loop {
        while end - start >= FRAME_HEADER {
            let (len, tag) = decode_header(&staging[start..start + FRAME_HEADER]);
            if len > MAX_FRAME {
                // This stream can never re-synchronize: close it.
                stream.shutdown(Shutdown::Both).ok();
                break 'link "corrupt frame length prefix".to_string();
            }
            let body = start + FRAME_HEADER;
            if end - body >= len {
                let mut buf = core.pool().get();
                buf.extend_from_slice(&staging[body..body + len]);
                batch.push(core.received(src, tag, buf));
                start = body + len;
            } else if len >= IN_PLACE_MIN {
                // What came before goes now: the rest of this body may
                // take many reads. Staging holds nothing beyond this
                // frame's head, so the stream's next bytes are that rest.
                core.deliver(&mut batch);
                let mut buf = core.pool().get_sized(len);
                let have = end - body;
                buf[..have].copy_from_slice(&staging[body..end]);
                (start, end) = (0, 0);
                match stream.read_exact(&mut buf[have..]) {
                    Ok(()) => batch.push(core.received(src, tag, buf)),
                    Err(e) => break 'link format!("read failed mid-frame: {e}"),
                }
            } else {
                break; // the rest of a small body comes with the next read
            }
        }
        core.deliver(&mut batch);
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
    // Whole frames parsed ahead of a corrupt length prefix.
    core.deliver(&mut batch);
    core.note_conn_lost(src, &cause);
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
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
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
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut transports = Vec::with_capacity(nodes);
    for (node, listener) in listeners.into_iter().enumerate() {
        let mut inbound = Vec::with_capacity(nodes - 1);
        for _ in 0..nodes - 1 {
            inbound.push(accept_peer(&listener, nodes, deadline)?);
        }
        transports.push(assemble(
            node,
            nodes,
            inbound,
            std::mem::take(&mut outbound[node]),
            Arc::clone(&stats),
        )?);
    }
    Ok(transports)
}

/// The registration connections of a rendezvous, labeled by counterpart.
type ControlStreams = Vec<(NodeId, TcpStream)>;

/// The rendezvous side channel as the job's [`DoneBarrier`]: node 0
/// keeps one stream per peer, each peer keeps its stream to node 0, all
/// non-blocking. A done byte, EOF or a connection error on a stream
/// means that side is done (process exit counts — EOF is an
/// acknowledgement).
struct TcpDone {
    /// `(counterpart, stream, done)`.
    streams: Vec<(NodeId, TcpStream, bool)>,
}

impl DoneBarrier for TcpDone {
    fn signal_done(&mut self) {
        for (_, s, _) in &mut self.streams {
            s.write_all(&[CONTROL_DONE]).ok();
            s.flush().ok();
        }
    }

    fn missing(&mut self) -> Vec<NodeId> {
        let mut missing = Vec::new();
        for (id, s, done) in &mut self.streams {
            if !*done {
                let waiting = |e: &io::Error| {
                    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
                };
                *done = !matches!(s.read(&mut [0u8; 1]), Err(e) if waiting(&e));
            }
            if !*done {
                missing.push(*id);
            }
        }
        missing
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
/// TCP mesh and returns the transport plus the end-of-job barrier.
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
///    registration connections — which then stay open as the done
///    barrier;
/// 5. everyone dials every higher-numbered peer's data listener (hello
///    identifies the dialer) and accepts from every lower-numbered one,
///    completing the full mesh.
///
/// Every blocking step carries a bounded deadline ([`HANDSHAKE_TIMEOUT`],
/// 60 s) plus retry/backoff on dials, so one crashed process fails the
/// whole launch with a stage-attributed error instead of wedging it.
/// Node 0 deletes a [`Bootstrap::File`] once every peer has registered
/// (the launcher also cleans it up on its own exit paths).
pub(crate) fn rendezvous(
    node: NodeId,
    nodes: usize,
    bootstrap: &Bootstrap,
) -> io::Result<(Arc<dyn Transport>, Box<dyn DoneBarrier>)> {
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let data_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| stage_err("binding data listener", e))?;
    let data_addr = data_listener.local_addr()?;

    // Phase 1: learn the full address map through node 0.
    let (addrs, control_streams) = if node == 0 {
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
            Bootstrap::Shm(_) => unreachable!("connect() attaches shm bootstraps"),
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
            Bootstrap::Shm(_) => unreachable!("connect() attaches shm bootstraps"),
        };
        // Node 0 may not be listening yet; retry with backoff until the
        // deadline.
        let mut s = dial_with_retry(rdv_addr, deadline)
            .map_err(|e| stage_err("dialing node 0's rendezvous listener", e))?;
        s.set_nodelay(true).ok();
        write_registration(&mut s, node, nodes, &data_addr)
            .map_err(|e| stage_err("registering with node 0", e))?;
        s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let addrs: Vec<SocketAddr> = (0..nodes)
            .map(|_| read_addr(&mut s))
            .collect::<io::Result<_>>()
            .map_err(|e| stage_err("reading the address map from node 0", e))?;
        s.set_read_timeout(None)?;
        (addrs, vec![(0, s)])
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

    let mut done = TcpDone { streams: Vec::with_capacity(control_streams.len()) };
    for (peer, s) in control_streams {
        s.set_nonblocking(true)?;
        done.streams.push((peer, s, false));
    }
    let stats = Arc::new(TrafficStats::new(nodes));
    let transport = assemble(node, nodes, inbound, outbound, stats)?;
    Ok((Arc::new(transport), Box::new(done)))
}

/// Node 0's half of rendezvous phase 1: accept every peer's
/// registration, then broadcast the complete address map. Split out so
/// the caller can clean up the bootstrap file on success *and* failure.
fn coordinate_registration(
    rdv: &TcpListener,
    nodes: usize,
    data_addr: SocketAddr,
    deadline: Instant,
) -> io::Result<(Vec<SocketAddr>, ControlStreams)> {
    let mut addrs: Vec<Option<SocketAddr>> = vec![None; nodes];
    addrs[0] = Some(data_addr);
    let mut regs: ControlStreams = Vec::with_capacity(nodes - 1);
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
        s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
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
    // Node order, not arrival order: the barrier names stragglers the
    // same way on every run.
    regs.sort_unstable_by_key(|&(peer, _)| peer);
    // Broadcast the map over the registration connections — which then
    // stay open as the done barrier, labeled by peer id.
    for (peer, s) in regs.iter_mut() {
        let broadcast = |e| stage_err(format_args!("broadcasting address map to node {peer}"), e);
        for a in &addrs {
            let text = a.to_string();
            s.write_all(&(text.len() as u16).to_le_bytes()).map_err(broadcast)?;
            s.write_all(text.as_bytes()).map_err(broadcast)?;
        }
        s.flush().map_err(broadcast)?;
    }
    Ok((addrs, regs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{connect, DownCause, LinkState};
    use crate::{FaultPlan, Payload};
    use std::sync::atomic::{AtomicBool, Ordering};

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
        let mut slot = src.link.outbound[dst].lock();
        slot.as_mut().expect("link is up").write_all(&head).expect("write frame head");
    }

    #[test]
    fn eof_mid_large_frame_is_counted_once_and_delivers_nothing() {
        let mesh = loopback_mesh(2).expect("mesh");
        mesh[0].send(1, 1, Payload::from(vec![1u8; 8])).expect("send");
        write_frame_head(&mesh[0], 1, 2, 4 * IN_PLACE_MIN, 1000);
        // The sender dies with most of the frame unsent.
        mesh[0].link.outbound[1].lock().as_ref().unwrap().shutdown(Shutdown::Write).unwrap();
        poll_until("the torn frame to become loss evidence", || {
            matches!(mesh[1].link_state(0), LinkState::Down(DownCause::Lost(_)))
        });
        let whole = mesh[1].recv_timeout(Duration::from_secs(10)).expect("the whole frame");
        assert_eq!(whole.tag, 1);
        assert!(mesh[1].try_recv().is_none(), "a torn frame must never be delivered");
        assert_eq!(mesh[1].stats().node(1).conn_lost, 1);
        // The reader of that link is gone; shutdown still joins cleanly
        // and does not count the loss again.
        mesh[1].shutdown();
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
        mesh[0].link.outbound[2].lock().as_mut().unwrap().write_all(&rest).expect("write rest");
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

    /// Polls until `cond` holds, failing the test at the deadline.
    fn poll_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
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
                    let (t, mut done) = connect(node, nodes, &boot).expect("rendezvous");
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
                    // Node 0 signals first and waits for every ack; peers
                    // wait for node 0, then ack.
                    let wait = Duration::from_secs(30);
                    if node == 0 {
                        done.signal_done();
                        done.wait_done_timeout(wait).expect("every peer acks");
                    } else {
                        done.wait_done_timeout(wait).expect("node 0 signals");
                        done.signal_done();
                    }
                    t.shutdown();
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node thread");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
