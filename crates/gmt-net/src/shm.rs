//! The shared-memory leaf of the framed transport.
//!
//! The TCP loopback backend pays two syscalls, two copies and a
//! reader-thread wakeup per frame — a 7.5× tax on latency-bound storms
//! (EXPERIMENTS.md). On one host none of that is necessary: this module
//! moves frames through lock-free SPSC byte rings in a single shared
//! segment, so a frame costs two `memcpy`s and a release store, and the
//! kernel is not involved at all. The [`framed`](crate::framed) core
//! owns everything around the rings (inbox, fault shim, loss evidence,
//! shutdown gate).
//!
//! # Segment layout
//!
//! One segment serves the whole cluster (heap-allocated for the
//! in-process mesh, a mapped file for real processes). All offsets are
//! 128-byte aligned and derived from `(nodes, ring_cap)`:
//!
//! ```text
//! [SegHeader 128 B]                      magic, nodes, ring_cap, creator pid
//! [NodeSlot  128 B] × nodes              pid, liveness state, done word
//! [Ring hdr 384 B + ring_cap B] × nodes² ring (src,dst) at src*nodes+dst
//! ```
//!
//! Each directed pair owns one ring: `head`/`tail` are monotonically
//! increasing byte cursors on separate cache lines (position = cursor
//! mod `ring_cap`, a power of two), so the single producer and single
//! consumer never contend on a line. Frames are the core's (`[len][tag]`
//! then the payload), written with wraparound split copies and published
//! by a release store of `tail`; the consumer copies the payload into a
//! pooled buffer and retires it with a release store of `head`.
//! Self-rings exist but stay empty — self-sends loop through the inbox
//! like every other backend.
//!
//! # Nothing parks, nothing wakes
//!
//! The runtime's one receive site is the communication server's
//! `try_recv`, so the consumer side is a poll of the inbound rings and
//! no receiver ever waits in the kernel for a frame: the segment carries
//! no wake-up word. This leaf therefore declines
//! [`Link::wake_on_arrival`], and over shm alone the communication
//! server keeps polling instead of sleeping until an arrival.
//!
//! A full ring blocks the sender (counted once per blocked send in
//! `net.shm.full_waits`) — but while waiting it drains its *own*
//! inbound rings into the inbox, so two nodes mid-storm sending into
//! each other's full rings make progress instead of deadlocking (TCP
//! gets the same property from its reader thread).
//!
//! # Crash evidence and cleanup
//!
//! Every node advertises its pid and a liveness state word in its slot.
//! A per-transport monitor thread turns three observations into the
//! same loss evidence the TCP reader derives from EOF: a peer that
//! stored `GONE` (clean shutdown), a severed ring (injected kill — both
//! directions are severed, so the victim sees first-hand evidence
//! exactly like a reset stream), and a pid whose process no longer
//! exists (a real SIGKILL leaves the state word `ALIVE`; `/proc/<pid>`
//! vanishing is the ground truth).
//!
//! The segment file itself is created `O_EXCL` by node 0 (stale files
//! from a crashed previous run are removed first unless their creator
//! pid is still alive) and unlinked as soon as every peer has mapped
//! it: from then on only the mappings keep it alive, so no exit path —
//! including SIGKILL of the whole tree — can leak it. The launcher's
//! temp-file guard doubles as a backstop for launches that die between
//! create and attach.

use crate::fabric::{NetError, Packet, Tag};
use crate::fault::FaultDecision;
use crate::framed::{
    decode_header, encode_header, Core, FramedTransport, Link, FRAME_HEADER, MAX_FRAME,
};
use crate::payload::Payload;
use crate::stats::TrafficStats;
use crate::transport::{DoneBarrier, Transport, HANDSHAKE_TIMEOUT};
use crate::NodeId;
use crossbeam::channel;
use parking_lot::Mutex;
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Segment magic ("GMS2": the second slot and ring-header layout),
/// stored *last* by the creator so a reader that sees it knows every
/// other header field is initialized.
const SEG_MAGIC: u32 = 0x474D_5332;

/// Liveness states in a node's slot.
const STATE_EMPTY: u32 = 0;
const STATE_ALIVE: u32 = 1;
const STATE_GONE: u32 = 2;

/// Fixed-size pieces of the segment layout (all 128-aligned so the ring
/// headers' cache-line separation holds at any node count).
const HDR_BYTES: usize = 128;
const SLOT_BYTES: usize = 128;
const RING_HDR_BYTES: usize = 384;

/// Per-directed-link ring capacity: what [`shm_mesh`] and a launched
/// cluster use, then the floor (must hold at least one max-size
/// aggregation buffer plus header) and ceiling of an explicit size.
const DEFAULT_RING_BYTES: usize = 1 << 20;
const MIN_RING_BYTES: usize = 1 << 16;
const MAX_RING_BYTES: usize = 1 << 28;

/// How long a sender sleeps between full-ring retries. Deliberately
/// small: CI hosts may have a single core, where the blocked side must
/// yield for the other side to make progress.
const FULL_RETRY: Duration = Duration::from_micros(50);

/// Monitor poll period — the crash-evidence latency floor. 2 ms keeps
/// shm detection in the same band as TCP's sub-millisecond EOF without
/// burning a core on `/proc` stats.
const MONITOR_PERIOD: Duration = Duration::from_millis(2);

/// Whether a process with this pid still exists. Own pid short-circuits
/// (the in-process mesh writes the same pid in every slot); elsewhere
/// `/proc/<pid>` is the ground truth — a SIGKILLed peer never gets to
/// update its state word, so this is the detection path for real kills.
fn pid_alive(pid: u64) -> bool {
    if pid == std::process::id() as u64 {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        true
    }
}

/// Raw-syscall shims: the workspace vendors no libc binding, so mmap
/// goes through the stable kernel ABI directly on x86-64 Linux. The
/// fallback keeps the heap mesh functional anywhere; cross-process
/// attach needs the real thing.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_MMAP: i64 = 9;
    const SYS_MUNMAP: i64 = 11;
    const PROT_READ_WRITE: i64 = 0x3;
    const MAP_SHARED: i64 = 0x1;

    /// One raw syscall. rcx/r11 are clobbered by the `syscall`
    /// instruction itself; errors come back as `-errno`.
    unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
        let ret: i64;
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub(super) const FILE_MMAP_SUPPORTED: bool = true;

    /// Maps `len` bytes of `file` shared read-write.
    pub(super) fn map_file(file: &std::fs::File, len: usize) -> std::io::Result<*mut u8> {
        use std::os::unix::io::AsRawFd;
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len as i64,
                PROT_READ_WRITE,
                MAP_SHARED,
                file.as_raw_fd() as i64,
                0,
            )
        };
        if (-4095..0).contains(&ret) {
            Err(std::io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as *mut u8)
        }
    }

    pub(super) unsafe fn unmap(ptr: *mut u8, len: usize) {
        unsafe { syscall6(SYS_MUNMAP, ptr as i64, len as i64, 0, 0, 0, 0) };
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub(super) const FILE_MMAP_SUPPORTED: bool = false;

    pub(super) fn map_file(_file: &std::fs::File, _len: usize) -> std::io::Result<*mut u8> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "shm cross-process attach needs the x86-64 Linux syscall shim",
        ))
    }

    pub(super) unsafe fn unmap(_ptr: *mut u8, _len: usize) {}
}

/// Segment header (one per segment). `magic` is stored last with release
/// ordering by the creator; a reader that acquires it sees the rest.
#[repr(C, align(128))]
struct SegHeader {
    magic: AtomicU32,
    nodes: AtomicU32,
    ring_cap: AtomicU32,
    _pad0: u32,
    creator_pid: AtomicU64,
    _pad1: [u8; 104],
}

/// One node's liveness slot.
#[repr(C, align(128))]
struct NodeSlot {
    /// OS pid of the attached process (`/proc` liveness ground truth).
    pid: AtomicU64,
    /// `STATE_EMPTY` → `STATE_ALIVE` on attach → `STATE_GONE` on clean
    /// shutdown. A SIGKILL leaves `ALIVE`; the pid check catches it.
    state: AtomicU32,
    /// End-of-job barrier word ([`ShmDone`]).
    done: AtomicU32,
    _pad: [u8; 112],
}

/// SPSC ring header. `head` (consumer) and `tail` (producer) are total
/// byte counts — never wrapped — on their own cache lines.
#[repr(C, align(128))]
struct RingHdr {
    head: AtomicU64,
    _pad0: [u8; 120],
    tail: AtomicU64,
    _pad1: [u8; 120],
    /// Sticky kill switch: set once, the ring is never read or written
    /// again (an injected kill loses in-flight frames like a crash).
    sever: AtomicU32,
    _pad2: [u8; 124],
}

/// Where the segment bytes live.
enum SegMem {
    Heap { ptr: *mut u8, layout: std::alloc::Layout },
    Mmap { ptr: *mut u8, len: usize },
}

/// A mapped (or heap-backed) segment plus the geometry to index it.
struct Segment {
    mem: SegMem,
    nodes: usize,
    ring_cap: usize,
}

// The raw base pointer targets shared memory laid out as atomics; all
// mutation goes through `&AtomicU*` references derived from it.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    fn size_for(nodes: usize, ring_cap: usize) -> usize {
        HDR_BYTES + nodes * SLOT_BYTES + nodes * nodes * (RING_HDR_BYTES + ring_cap)
    }

    /// In-process segment for the `shm` mesh backend: same layout, heap
    /// storage, zeroed (zeroed bytes are exactly the pre-attach state).
    fn heap(nodes: usize, ring_cap: usize) -> Segment {
        let size = Self::size_for(nodes, ring_cap);
        let layout = std::alloc::Layout::from_size_align(size, 128).expect("segment layout");
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "segment allocation failed ({size} bytes)");
        Segment { mem: SegMem::Heap { ptr, layout }, nodes, ring_cap }
    }

    fn base(&self) -> *mut u8 {
        match &self.mem {
            SegMem::Heap { ptr, .. } => *ptr,
            SegMem::Mmap { ptr, .. } => *ptr,
        }
    }

    fn header(&self) -> &SegHeader {
        unsafe { &*(self.base() as *const SegHeader) }
    }

    fn slot(&self, node: NodeId) -> &NodeSlot {
        debug_assert!(node < self.nodes);
        unsafe { &*(self.base().add(HDR_BYTES + node * SLOT_BYTES) as *const NodeSlot) }
    }

    fn ring(&self, src: NodeId, dst: NodeId) -> RingRef<'_> {
        debug_assert!(src < self.nodes && dst < self.nodes);
        let idx = src * self.nodes + dst;
        let off = HDR_BYTES + self.nodes * SLOT_BYTES + idx * (RING_HDR_BYTES + self.ring_cap);
        let base = unsafe { self.base().add(off) };
        RingRef {
            hdr: unsafe { &*(base as *const RingHdr) },
            data: unsafe { base.add(RING_HDR_BYTES) },
            cap: self.ring_cap,
        }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        match self.mem {
            SegMem::Heap { ptr, layout } => unsafe { std::alloc::dealloc(ptr, layout) },
            SegMem::Mmap { ptr, len } => unsafe { sys::unmap(ptr, len) },
        }
    }
}

/// One directed ring: header reference plus the data area.
#[derive(Clone, Copy)]
struct RingRef<'a> {
    hdr: &'a RingHdr,
    data: *mut u8,
    cap: usize,
}

impl RingRef<'_> {
    #[inline]
    fn pos(&self, cursor: u64) -> usize {
        (cursor & (self.cap as u64 - 1)) as usize
    }

    /// Copies `bytes` into the ring at byte cursor `at`, splitting
    /// across the wrap point. SPSC discipline (the producer owns
    /// `[tail, head+cap)`) makes the region exclusively ours.
    #[inline]
    unsafe fn write_at(&self, at: u64, bytes: &[u8]) {
        let pos = self.pos(at);
        let first = bytes.len().min(self.cap - pos);
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.data.add(pos), first);
            if first < bytes.len() {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr().add(first),
                    self.data,
                    bytes.len() - first,
                );
            }
        }
    }

    /// Copies `len` ring bytes starting at cursor `at` into `out`.
    #[inline]
    unsafe fn read_at(&self, at: u64, out: *mut u8, len: usize) {
        let pos = self.pos(at);
        let first = len.min(self.cap - pos);
        unsafe {
            std::ptr::copy_nonoverlapping(self.data.add(pos) as *const u8, out, first);
            if first < len {
                std::ptr::copy_nonoverlapping(self.data as *const u8, out.add(first), len - first);
            }
        }
    }
}

/// Backend-specific counters surfaced as `net.shm.*` through
/// [`Transport::backend_counters`].
#[derive(Default)]
struct ShmCounters {
    /// Sends that found their ring full and had to wait (counted once
    /// per blocked send, not per retry).
    full_waits: AtomicU64,
    /// High-water mark of post-send ring occupancy, in bytes.
    occ_watermark: AtomicU64,
    /// Post-send occupancy histogram in eighths of the ring capacity.
    occ_hist: [AtomicU64; 8],
}

/// The rings of one node's slice of a shared-memory mesh.
pub struct ShmLink {
    core: Arc<Core>,
    seg: Arc<Segment>,
    counters: ShmCounters,
    /// Per-destination producer locks: the SPSC tail allows one writer,
    /// but any runtime thread may call `send`.
    tx: Vec<Mutex<()>>,
    /// Round-robin scan start for the consumer side, and the lock that
    /// makes ring consumption single-threaded.
    rx: Mutex<usize>,
    /// The crash-evidence monitor; taken (and joined) by `close`.
    monitor: Mutex<Option<JoinHandle<()>>>,
}

/// One node's attachment to a shared-memory mesh.
pub type ShmTransport = FramedTransport<ShmLink>;

/// Attaches to an initialized segment (own slot already `ALIVE`) and
/// spawns the crash-evidence monitor.
fn from_segment(node: NodeId, seg: Arc<Segment>, stats: Arc<TrafficStats>) -> ShmTransport {
    let nodes = seg.nodes;
    let (inbox_tx, inbox_rx) = channel::unbounded();
    let core = Core::new(node, nodes, stats, inbox_tx);
    let monitor = {
        let (core, seg) = (Arc::clone(&core), Arc::clone(&seg));
        std::thread::Builder::new()
            .name(format!("gmt-shm-mon-{node}"))
            .spawn(move || monitor_loop(&core, &seg))
            .expect("spawn shm monitor")
    };
    let link = ShmLink {
        core: Arc::clone(&core),
        seg,
        counters: ShmCounters::default(),
        tx: (0..nodes).map(|_| Mutex::new(())).collect(),
        rx: Mutex::new(0),
        monitor: Mutex::new(Some(monitor)),
    };
    FramedTransport::new(core, inbox_rx, link)
}

impl ShmLink {
    /// Scans inbound rings round-robin and pops at most one frame.
    fn poll_rings(&self) -> Option<Packet> {
        let (node, nodes) = (self.core.node, self.core.nodes);
        if nodes == 1 {
            return None;
        }
        let mut next = self.rx.lock();
        for i in 0..nodes {
            let peer = (*next + i) % nodes;
            if peer == node {
                continue;
            }
            let ring = self.seg.ring(peer, node);
            if ring.hdr.sever.load(Ordering::Acquire) != 0 {
                continue;
            }
            let head = ring.hdr.head.load(Ordering::Relaxed);
            let tail = ring.hdr.tail.load(Ordering::Acquire);
            if tail == head {
                continue;
            }
            match self.pop_frame(ring, peer, head, tail) {
                Some(pkt) => {
                    *next = (peer + 1) % nodes;
                    return Some(pkt);
                }
                None => {
                    // A corrupt length can never re-synchronize; sever
                    // the ring like the TCP reader closes the stream.
                    ring.hdr.sever.store(1, Ordering::Release);
                    self.core.note_conn_lost(peer, "corrupt frame length prefix");
                }
            }
        }
        None
    }

    /// Decodes the frame at `head` into a pooled payload and retires it;
    /// `None` if the ring holds no well-formed frame there. The caller
    /// holds `rx` and has observed `tail != head`.
    fn pop_frame(&self, ring: RingRef<'_>, src: NodeId, head: u64, tail: u64) -> Option<Packet> {
        let avail = (tail - head) as usize;
        if avail < FRAME_HEADER {
            return None; // torn header: producer protocol violated
        }
        let mut hdr = [0u8; FRAME_HEADER];
        unsafe { ring.read_at(head, hdr.as_mut_ptr(), FRAME_HEADER) };
        let (len, tag) = decode_header(&hdr);
        if len > MAX_FRAME || FRAME_HEADER + len > ring.cap || FRAME_HEADER + len > avail {
            return None;
        }
        let mut buf = self.core.pool().get();
        buf.reserve(len);
        unsafe {
            ring.read_at(head + FRAME_HEADER as u64, buf.as_mut_ptr(), len);
            buf.set_len(len);
        }
        ring.hdr.head.store(head + (FRAME_HEADER + len) as u64, Ordering::Release);
        Some(self.core.received(src, tag, buf))
    }

    /// Moves every currently-available inbound frame into the inbox
    /// (used by senders blocked on a full ring). Returns whether
    /// anything moved.
    fn drain_rings_to_inbox(&self) -> bool {
        let mut moved = false;
        while let Some(pkt) = self.poll_rings() {
            self.core.enqueue(pkt);
            moved = true;
        }
        moved
    }
}

impl Link for ShmLink {
    fn max_frame(&self) -> usize {
        MAX_FRAME.min(self.seg.ring_cap - FRAME_HEADER)
    }

    /// Writes one frame into the ring toward `dst`, blocking while the
    /// ring is full.
    fn push(
        &self,
        dst: NodeId,
        tag: Tag,
        payload: Payload,
        _fault: Option<FaultDecision>,
    ) -> Result<(), NetError> {
        let (core, bytes) = (&*self.core, payload.as_slice());
        let ring = self.seg.ring(core.node, dst);
        let lost = |cause: &str| {
            core.note_conn_lost(dst, cause);
            NetError::LinkDown { src: core.node, dst }
        };
        let _producer = self.tx[dst].lock();
        let need = (FRAME_HEADER + bytes.len()) as u64;
        let tail = ring.hdr.tail.load(Ordering::Relaxed);
        let mut waited = false;
        loop {
            if ring.hdr.sever.load(Ordering::Acquire) != 0 {
                return Err(lost("link severed"));
            }
            // `is_lost`: the monitor saw the peer's process die; a full
            // ring toward a corpse would otherwise spin forever.
            if self.seg.slot(dst).state.load(Ordering::Acquire) == STATE_GONE || core.is_lost(dst) {
                return Err(lost("peer gone"));
            }
            if core.stopping() {
                return Err(NetError::Closed);
            }
            let head = ring.hdr.head.load(Ordering::Acquire);
            if ring.cap as u64 - (tail - head) >= need {
                break;
            }
            if !waited {
                waited = true;
                self.counters.full_waits.fetch_add(1, Ordering::Relaxed);
            }
            // Make progress on our own inbound rings while we wait: the
            // peer may itself be blocked sending to us.
            if !self.drain_rings_to_inbox() {
                std::thread::sleep(FULL_RETRY);
            }
        }
        unsafe {
            ring.write_at(tail, &encode_header(bytes.len(), tag));
            ring.write_at(tail + FRAME_HEADER as u64, bytes);
        }
        ring.hdr.tail.store(tail + need, Ordering::Release);

        let occ = (tail + need).saturating_sub(ring.hdr.head.load(Ordering::Relaxed));
        self.counters.occ_watermark.fetch_max(occ, Ordering::Relaxed);
        let bucket = ((occ * 8) / ring.cap as u64).min(7) as usize;
        self.counters.occ_hist[bucket].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn poll(&self) -> Option<Packet> {
        if self.core.stopping() {
            // After shutdown only the inbox remains receivable; frames
            // still in the rings are dropped (nothing below the inbox is
            // pooled until decode, so nothing leaks).
            return None;
        }
        self.poll_rings()
    }

    fn sever(&self, peer: NodeId) {
        let node = self.core.node;
        self.seg.ring(node, peer).hdr.sever.store(1, Ordering::Release);
        self.seg.ring(peer, node).hdr.sever.store(1, Ordering::Release);
    }

    fn close(&self) {
        // Advertise the clean exit; peers' monitors turn it into loss
        // evidence exactly like a TCP EOF, and producers blocked on a
        // full ring toward us see it on their next retry.
        self.seg.slot(self.core.node).state.store(STATE_GONE, Ordering::Release);
        // The monitor polls the stop flag every tick, so this join is
        // bounded. Frames already spilled stay in the inbox; frames still
        // in the rings are dropped (plain ring bytes, nothing pooled
        // below the inbox on this backend).
        if let Some(h) = self.monitor.lock().take() {
            h.join().ok();
        }
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let mut out = vec![
            ("net.shm.full_waits".to_string(), c.full_waits.load(Ordering::Relaxed)),
            (
                "net.shm.ring_occ_watermark_bytes".to_string(),
                c.occ_watermark.load(Ordering::Relaxed),
            ),
        ];
        for (i, bucket) in c.occ_hist.iter().enumerate() {
            out.push((format!("net.shm.ring_occ_bucket{i}"), bucket.load(Ordering::Relaxed)));
        }
        out
    }
}

/// The crash-evidence monitor: turns peer state words, severed rings
/// and vanished pids into the loss evidence the failure detector
/// consumes — without requiring anyone to call `try_recv`.
fn monitor_loop(core: &Core, seg: &Segment) {
    loop {
        if core.stopping() {
            return;
        }
        for peer in 0..core.nodes {
            if peer == core.node || core.is_lost(peer) {
                continue;
            }
            let slot = seg.slot(peer);
            let state = slot.state.load(Ordering::Acquire);
            if state == STATE_GONE {
                core.note_conn_lost(peer, "closed by peer (shutdown)");
                continue;
            }
            if seg.ring(peer, core.node).hdr.sever.load(Ordering::Acquire) != 0
                || seg.ring(core.node, peer).hdr.sever.load(Ordering::Acquire) != 0
            {
                core.note_conn_lost(peer, "link severed");
                continue;
            }
            if state == STATE_ALIVE {
                let pid = slot.pid.load(Ordering::Acquire);
                if pid != 0 && !pid_alive(pid) {
                    core.note_conn_lost(peer, "process exit");
                }
            }
        }
        std::thread::sleep(MONITOR_PERIOD);
    }
}

/// Builds an N-node shared-memory mesh inside one process — the `shm`
/// CI backend. One heap segment, one shared [`TrafficStats`] table, so
/// cluster-wide counters behave exactly as over the sim fabric.
pub fn shm_mesh(nodes: usize) -> io::Result<Vec<ShmTransport>> {
    shm_mesh_with(nodes, DEFAULT_RING_BYTES)
}

/// [`shm_mesh`] with an explicit per-link ring capacity (clamped, then
/// rounded up to a power of two: the SPSC cursors rely on power-of-two
/// wraparound) — tests use tiny rings to exercise the full-ring path
/// deterministically.
pub fn shm_mesh_with(nodes: usize, ring_bytes: usize) -> io::Result<Vec<ShmTransport>> {
    assert!(nodes > 0, "a mesh needs at least one node");
    let ring_cap = ring_bytes.clamp(MIN_RING_BYTES, MAX_RING_BYTES).next_power_of_two();
    let seg = Arc::new(Segment::heap(nodes, ring_cap));
    let pid = u64::from(std::process::id());
    let hdr = seg.header();
    hdr.nodes.store(nodes as u32, Ordering::Relaxed);
    hdr.ring_cap.store(ring_cap as u32, Ordering::Relaxed);
    hdr.creator_pid.store(pid, Ordering::Relaxed);
    for node in 0..nodes {
        let slot = seg.slot(node);
        slot.pid.store(pid, Ordering::Relaxed);
        slot.state.store(STATE_ALIVE, Ordering::Release);
    }
    hdr.magic.store(SEG_MAGIC, Ordering::Release);
    let stats = Arc::new(TrafficStats::new(nodes));
    Ok((0..nodes).map(|node| from_segment(node, Arc::clone(&seg), Arc::clone(&stats))).collect())
}

/// The job's [`DoneBarrier`] over per-node `done` words in the segment.
/// A peer that stored `GONE` or whose process vanished counts as done
/// (it cannot be waited on), mirroring the TCP rule that EOF is an
/// acknowledgement.
struct ShmDone {
    seg: Arc<Segment>,
    node: NodeId,
}

impl DoneBarrier for ShmDone {
    fn signal_done(&mut self) {
        self.seg.slot(self.node).done.store(1, Ordering::Release);
    }

    fn missing(&mut self) -> Vec<NodeId> {
        let counterparts = if self.node == 0 { 1..self.seg.nodes } else { 0..1 };
        counterparts
            .filter(|&peer| {
                let slot = self.seg.slot(peer);
                let state = slot.state.load(Ordering::Acquire);
                let pid = slot.pid.load(Ordering::Acquire);
                let gone =
                    state == STATE_GONE || (state == STATE_ALIVE && pid != 0 && !pid_alive(pid));
                slot.done.load(Ordering::Acquire) == 0 && !gone
            })
            .collect()
    }
}

/// Reads the header of a possibly-stale segment file without mapping
/// it: `(magic, creator_pid)`.
fn peek_header(path: &Path) -> Option<(u32, u64)> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 24 {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4-byte slice"));
    let pid = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    Some((magic, pid))
}

/// Polls the segment file until its header is initialized (magic set),
/// returning `(nodes, ring_cap)`.
fn await_header(path: &Path, deadline: Instant) -> io::Result<(usize, usize)> {
    loop {
        if let Ok(bytes) = std::fs::read(path) {
            if bytes.len() >= 24 {
                let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4-byte slice"));
                if magic == SEG_MAGIC {
                    let nodes = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
                    let cap = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
                    return Ok((nodes as usize, cap as usize));
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("shm attach: segment {} never initialized", path.display()),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Polls until every slot is `ALIVE`, naming the stragglers on timeout.
fn wait_all_alive(seg: &Segment, deadline: Instant) -> io::Result<()> {
    loop {
        let missing: Vec<NodeId> = (0..seg.nodes)
            .filter(|&n| seg.slot(n).state.load(Ordering::Acquire) != STATE_ALIVE)
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                format!("shm attach: waiting for nodes {missing:?} to attach"),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Attaches one process to the cluster segment at `path` — the
/// multi-process path behind [`connect`](crate::connect)'s `shm:<path>`
/// bootstrap. Node 0 creates the file `O_EXCL` (removing a stale one
/// first, unless its recorded creator is still alive), sizes it, maps
/// it, initializes the header and publishes the magic last; peers poll
/// for the magic, map, and mark themselves `ALIVE`. Everyone returns
/// only once all slots are `ALIVE`, at which point node 0 unlinks the
/// file — the mappings keep the memory alive, so no crash can leak the
/// segment. The deadline is [`HANDSHAKE_TIMEOUT`].
pub(crate) fn attach(
    node: NodeId,
    nodes: usize,
    path: &Path,
) -> io::Result<(Arc<dyn Transport>, Box<dyn DoneBarrier>)> {
    if !sys::FILE_MMAP_SUPPORTED {
        return Err(io::Error::new(
            ErrorKind::Unsupported,
            "shm cross-process attach needs the x86-64 Linux syscall shim",
        ));
    }
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let pid = u64::from(std::process::id());
    let seg = if node == 0 {
        let ring_cap = DEFAULT_RING_BYTES;
        let size = Segment::size_for(nodes, ring_cap);
        if path.exists() {
            match peek_header(path) {
                Some((SEG_MAGIC, creator)) if pid_alive(creator) => {
                    return Err(io::Error::new(
                        ErrorKind::AddrInUse,
                        format!("shm segment {} is in use by live pid {creator}", path.display()),
                    ));
                }
                // Stale leftovers from a crashed run (or garbage): safe
                // to reclaim.
                _ => std::fs::remove_file(path)?,
            }
        }
        let file =
            std::fs::OpenOptions::new().read(true).write(true).create_new(true).open(path)?;
        file.set_len(size as u64)?;
        let ptr = sys::map_file(&file, size)?;
        drop(file);
        let seg = Segment { mem: SegMem::Mmap { ptr, len: size }, nodes, ring_cap };
        let hdr = seg.header();
        hdr.nodes.store(nodes as u32, Ordering::Relaxed);
        hdr.ring_cap.store(ring_cap as u32, Ordering::Relaxed);
        hdr.creator_pid.store(pid, Ordering::Relaxed);
        let slot = seg.slot(0);
        slot.pid.store(pid, Ordering::Relaxed);
        slot.state.store(STATE_ALIVE, Ordering::Release);
        hdr.magic.store(SEG_MAGIC, Ordering::Release);
        seg
    } else {
        let (hdr_nodes, ring_cap) = await_header(path, deadline)?;
        if hdr_nodes != nodes {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("shm segment is for {hdr_nodes} nodes, expected {nodes}"),
            ));
        }
        let size = Segment::size_for(nodes, ring_cap);
        let file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        let ptr = sys::map_file(&file, size)?;
        drop(file);
        let seg = Segment { mem: SegMem::Mmap { ptr, len: size }, nodes, ring_cap };
        let slot = seg.slot(node);
        slot.pid.store(pid, Ordering::Relaxed);
        if slot
            .state
            .compare_exchange(STATE_EMPTY, STATE_ALIVE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(io::Error::new(
                ErrorKind::AddrInUse,
                format!("node {node} attached to this segment twice"),
            ));
        }
        seg
    };
    wait_all_alive(&seg, deadline)?;
    if node == 0 {
        // Every peer holds a mapping now; the name is no longer needed
        // and unlinking it here means no exit path can leak it.
        std::fs::remove_file(path).ok();
    }
    let seg = Arc::new(seg);
    let stats = Arc::new(TrafficStats::new(nodes));
    let transport = from_segment(node, Arc::clone(&seg), stats);
    Ok((Arc::new(transport), Box::new(ShmDone { seg, node })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{connect, Bootstrap};
    use crate::Payload;

    #[test]
    fn full_ring_blocks_then_delivers_everything() {
        // Minimum ring (64 KiB); 16 KiB frames fill it after a handful
        // of sends, forcing the full-ring wait path.
        let mesh = Arc::new(shm_mesh_with(2, MIN_RING_BYTES).unwrap());
        let frames = 64usize;
        let rx = std::thread::spawn({
            let mesh = Arc::clone(&mesh);
            move || {
                // Delay so the sender definitely fills the ring first.
                std::thread::sleep(Duration::from_millis(100));
                let mut got = 0;
                while got < 64 {
                    if mesh[1].recv_timeout(Duration::from_secs(10)).is_some() {
                        got += 1;
                    }
                }
                got
            }
        });
        for i in 0..frames {
            mesh[0].send(1, i as Tag, Payload::from(vec![0xAB; 16 * 1024])).unwrap();
        }
        assert_eq!(rx.join().unwrap(), 64);
        let full_waits = mesh[0]
            .backend_counters()
            .into_iter()
            .find(|(name, _)| name == "net.shm.full_waits")
            .expect("the counter is reported")
            .1;
        assert!(full_waits > 0, "small ring must have filled");
    }

    #[test]
    fn a_frame_the_ring_cannot_hold_is_refused_not_asserted() {
        let mesh = shm_mesh_with(2, MIN_RING_BYTES).unwrap();
        let max = MIN_RING_BYTES - FRAME_HEADER;
        assert_eq!(mesh[0].max_frame(), max);
        assert_eq!(
            mesh[0].send(1, 0, Payload::from(vec![0u8; MIN_RING_BYTES])),
            Err(NetError::FrameTooLarge { len: MIN_RING_BYTES, max })
        );
        mesh[0].send(1, 1, Payload::from(vec![7u8; max])).expect("the largest frame fits");
        let pkt = mesh[1].recv_timeout(Duration::from_secs(5)).expect("frame arrives");
        assert_eq!((pkt.tag, pkt.payload.len()), (1, max));
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn attach_builds_a_mesh_over_a_mapped_file() {
        let dir = std::env::temp_dir().join(format!("gmt-shm-attach-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mesh.seg");
        let handles: Vec<_> = (0..3)
            .map(|node| {
                let boot = Bootstrap::Shm(path.clone());
                std::thread::spawn(move || connect(node, 3, &boot).unwrap())
            })
            .collect();
        let ends: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The creator unlinked the file once everyone attached.
        assert!(!path.exists(), "segment file must be unlinked after attach");
        // Frames flow over the mapped segment between the attachments.
        ends[1].0.send(2, 42, Payload::from(b"over the mmap".to_vec())).unwrap();
        let pkt = ends[2].0.recv_timeout(Duration::from_secs(5)).expect("frame arrives");
        assert_eq!((pkt.src, pkt.tag), (1, 42));
        assert_eq!(pkt.payload.as_slice(), b"over the mmap");
        std::fs::remove_dir_all(&dir).ok();
    }
}
