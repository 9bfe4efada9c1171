//! The shared-memory leaf of the framed transport.
//!
//! The TCP loopback backend pays two syscalls, two copies and a
//! reader-thread wakeup per frame — a 7.5× tax on latency-bound storms
//! (EXPERIMENTS.md). On one host none of that is necessary: this module
//! moves frames through lock-free SPSC byte rings in a single shared
//! segment, so a frame costs one `memcpy` (the sender's, into the ring)
//! and a release store, and the kernel is not involved at all. The
//! [`framed`](crate::framed) core owns everything around the rings
//! (inbox, fault shim, loss evidence, shutdown gate).
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
//! then the payload), each starting 8-byte aligned, published by a
//! release store of `tail`. Self-rings exist but stay empty — self-sends
//! loop through the inbox like every other backend.
//!
//! **A frame never wraps.** One that does not fit between its position
//! and the ring's end starts at offset 0 instead, and the producer writes
//! a *pad marker* (a header whose length is `u32::MAX`) over the rest of
//! the ring; the consumer skips from a pad to offset 0. So every payload
//! is one contiguous run of ring bytes, and the largest frame is half the
//! ring (a frame and the pad in front of it must fit together).
//!
//! # A received payload is read where it landed
//!
//! The consumer does not copy a frame out: it hands the runtime a lent
//! [`Payload`] that views the payload bytes in the ring, and `head` moves
//! past a frame only once every handle to it has dropped. **A received
//! shm payload pins its ring bytes until it is dropped**: a receiver that
//! holds payloads holds back its peer's sender, which blocks once the
//! ring is full (the runtime's helpers drop each buffer once they have
//! processed it, and its receive credit bounds how many wait for them).
//! Payloads are released in any order — helpers run in parallel, and the
//! reliable layer drops duplicates at once — so the consumer keeps, per
//! inbound ring, the lent frames in ring order with their end cursors: a
//! FIFO of release flags, where a frame is released when the FIFO holds
//! its last reference. `head` advances across the released prefix only,
//! on the consumer's next poll.
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
//! gets the same property from its reader thread). The drained frames
//! are **copied**, not lent: the inbox is only emptied once the blocked
//! send returns, so a lent frame waiting there would pin the ring the
//! peer is blocked on while the peer pins ours — two blocked senders
//! would wait for each other forever. `net.shm.lent_frames` and
//! `net.shm.copied_frames` count the two ways a frame leaves the ring.
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
use crate::payload::{Lent, Payload};
use crate::stats::TrafficStats;
use crate::transport::{DoneBarrier, Transport, HANDSHAKE_TIMEOUT};
use crate::NodeId;
use crossbeam::channel;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Segment magic ("GMS3": the third ring format, whose frames never
/// wrap), stored *last* by the creator so a reader that sees it knows
/// every other header field is initialized.
const SEG_MAGIC: u32 = 0x474D_5333;

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
/// cluster use, then the floor (its largest frame, half of it, must hold
/// a 64 KiB aggregation buffer but for its header) and ceiling of an
/// explicit size.
const DEFAULT_RING_BYTES: usize = 1 << 20;
const MIN_RING_BYTES: usize = 1 << 17;
const MAX_RING_BYTES: usize = 1 << 28;

/// The length a pad marker's header carries: the rest of the ring is
/// padding, and the next frame starts at offset 0.
const PAD: usize = u32::MAX as usize;

/// Ring bytes one frame of a `len`-byte payload takes: header and
/// payload, rounded up so the next frame starts 8-byte aligned (and a pad
/// marker always fits in front of the ring's end).
fn frame_bytes(len: usize) -> usize {
    (FRAME_HEADER + len + 7) & !7
}

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
        RingRef {
            seg: self,
            hdr: unsafe { &*(self.base().add(off) as *const RingHdr) },
            data: off + RING_HDR_BYTES,
            cap: self.ring_cap,
        }
    }

    /// The `len` segment bytes at offset `off`.
    ///
    /// # Safety
    ///
    /// The range must lie inside the segment, and nothing may write it
    /// while the slice lives. Ring bytes between `head` and `tail` qualify
    /// for the consumer: the producer writes only past `tail`.
    unsafe fn bytes(&self, off: usize, len: usize) -> &[u8] {
        debug_assert!(off + len <= Self::size_for(self.nodes, self.ring_cap));
        // SAFETY: in bounds and unwritten, by the caller's guarantee.
        unsafe { std::slice::from_raw_parts(self.base().add(off), len) }
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

/// One directed ring: header reference plus the data area's offset in
/// the segment.
#[derive(Clone, Copy)]
struct RingRef<'a> {
    seg: &'a Segment,
    hdr: &'a RingHdr,
    data: usize,
    cap: usize,
}

impl RingRef<'_> {
    #[inline]
    fn pos(&self, cursor: u64) -> usize {
        (cursor & (self.cap as u64 - 1)) as usize
    }

    /// Copies `bytes` into the ring at position `pos`; frames never wrap,
    /// so neither does the copy.
    ///
    /// # Safety
    ///
    /// `pos + bytes.len()` must not pass the ring's end, and the region
    /// must be exclusively ours: SPSC discipline gives the producer
    /// `[tail, head + cap)`.
    #[inline]
    unsafe fn write_at(&self, pos: usize, bytes: &[u8]) {
        debug_assert!(pos + bytes.len() <= self.cap);
        let at = self.data + pos;
        // SAFETY: inside the ring's data area and unshared, by the
        // caller's guarantee; `bytes` cannot overlap shared memory we own.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.seg.base().add(at), bytes.len())
        };
    }
}

/// A frame's payload lent to the runtime where it lies in its ring. Its
/// bytes are the consumer's until `head` passes them, which waits for the
/// frame's last handle.
struct LentFrame {
    seg: Arc<Segment>,
    off: usize,
    len: usize,
}

impl Lent for LentFrame {
    fn bytes(&self) -> &[u8] {
        // SAFETY: `pop_frame` checked the frame lies inside its ring, and
        // the producer writes none of it until `head` passes it, which
        // waits for this handle (`Inbound::retire`).
        unsafe { self.seg.bytes(self.off, self.len) }
    }
}

/// The consumer's side of one inbound ring.
#[derive(Default)]
struct Inbound {
    /// Cursor past the last frame handed out: `[head, read)` is lent.
    read: u64,
    /// The release flags: the lent frames in ring order, each with the
    /// cursor past it (and past the pad in front of it, if any). A frame
    /// is released once this queue holds its last reference.
    lent: VecDeque<(u64, Arc<LentFrame>)>,
}

impl Inbound {
    /// Lends the `len` payload bytes at segment offset `off` of the frame
    /// that ends at cursor `end`.
    fn lend(&mut self, seg: &Arc<Segment>, off: usize, len: usize, end: u64) -> Arc<LentFrame> {
        let frame = Arc::new(LentFrame { seg: Arc::clone(seg), off, len });
        self.read = end;
        self.lent.push_back((end, Arc::clone(&frame)));
        frame
    }

    /// Retires the released prefix of the lent frames: the new `head`,
    /// if it moved. (`get_mut` acquires the last handle's release, so the
    /// producer cannot overwrite bytes a handle still reads.)
    fn retire(&mut self) -> Option<u64> {
        let mut head = None;
        while let Some((end, frame)) = self.lent.front_mut() {
            if Arc::get_mut(frame).is_none() {
                break;
            }
            head = Some(*end);
            self.lent.pop_front();
        }
        head
    }
}

/// The consumer side of a node's inbound rings, one thread at a time.
struct Rx {
    /// Round-robin scan start.
    next: usize,
    /// Per source node.
    inbound: Vec<Inbound>,
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
    /// Frames handed to the receiver in place.
    lent_frames: AtomicU64,
    /// Frames copied out by a sender blocked on a full ring.
    copied_frames: AtomicU64,
}

/// The rings of one node's slice of a shared-memory mesh.
pub struct ShmLink {
    core: Arc<Core>,
    seg: Arc<Segment>,
    counters: ShmCounters,
    /// Per-destination producer locks: the SPSC tail allows one writer,
    /// but any runtime thread may call `send`.
    tx: Vec<Mutex<()>>,
    /// The consumer side, behind the lock that makes ring consumption
    /// single-threaded.
    rx: Mutex<Rx>,
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
        rx: Mutex::new(Rx { next: 0, inbound: (0..nodes).map(|_| Inbound::default()).collect() }),
        monitor: Mutex::new(Some(monitor)),
    };
    FramedTransport::new(core, inbox_rx, link)
}

impl ShmLink {
    /// Scans inbound rings round-robin, retiring released frames, and
    /// lends at most one frame.
    fn poll_rings(&self) -> Option<Packet> {
        let (node, nodes) = (self.core.node, self.core.nodes);
        if nodes == 1 {
            return None;
        }
        let mut rx = self.rx.lock();
        let rx = &mut *rx;
        for i in 0..nodes {
            let peer = (rx.next + i) % nodes;
            if peer == node {
                continue;
            }
            let ring = self.seg.ring(peer, node);
            if ring.hdr.sever.load(Ordering::Acquire) != 0 {
                continue;
            }
            let inbound = &mut rx.inbound[peer];
            if let Some(head) = inbound.retire() {
                ring.hdr.head.store(head, Ordering::Release);
            }
            let tail = ring.hdr.tail.load(Ordering::Acquire);
            if tail == inbound.read {
                continue;
            }
            match self.pop_frame(ring, inbound, peer, tail) {
                Some(pkt) => {
                    rx.next = (peer + 1) % nodes;
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

    /// Lends the frame at `inbound.read` (skipping a pad marker there);
    /// `None` if the ring holds no well-formed frame there. The caller
    /// holds `rx` and has observed `tail != inbound.read`.
    fn pop_frame(
        &self,
        ring: RingRef<'_>,
        inbound: &mut Inbound,
        src: NodeId,
        tail: u64,
    ) -> Option<Packet> {
        // SAFETY: a header between `read` and `tail` is published and not
        // retired, so nothing writes it, and it lies inside the ring: the
        // cursors advance by whole, 8-aligned frames and pads. A torn one
        // violates the producer protocol.
        let header = |at: u64| {
            let bytes = (at + FRAME_HEADER as u64 <= tail)
                .then(|| unsafe { self.seg.bytes(ring.data + ring.pos(at), FRAME_HEADER) })?;
            Some(decode_header(bytes))
        };
        let mut at = inbound.read;
        let (mut len, mut tag) = header(at)?;
        if len == PAD && ring.pos(at) != 0 {
            at += (ring.cap - ring.pos(at)) as u64;
            (len, tag) = header(at)?;
        }
        // Frames never wrap: one that would is as corrupt as one too long
        // or running past `tail`.
        if len > self.max_frame() || ring.pos(at) + frame_bytes(len) > ring.cap {
            return None;
        }
        let end = at + frame_bytes(len) as u64;
        if end > tail {
            return None;
        }
        let off = ring.data + ring.pos(at) + FRAME_HEADER;
        let frame = inbound.lend(&self.seg, off, len, end);
        Some(self.core.received(src, tag, Payload::lent(frame)))
    }

    /// Moves every currently-available inbound frame into the inbox
    /// (used by senders blocked on a full ring), copied out so that the
    /// ring space comes free at once (see "Nothing parks, nothing wakes"
    /// in the module docs). Returns whether anything moved.
    fn drain_rings_to_inbox(&self) -> bool {
        let mut moved = false;
        while let Some(mut pkt) = self.poll_rings() {
            pkt.payload = Payload::from(pkt.payload.to_vec());
            self.counters.copied_frames.fetch_add(1, Ordering::Relaxed);
            self.core.enqueue(pkt);
            moved = true;
        }
        moved
    }
}

impl Link for ShmLink {
    fn max_frame(&self) -> usize {
        MAX_FRAME.min(self.seg.ring_cap / 2 - FRAME_HEADER)
    }

    /// Writes one frame into the ring toward `dst` (behind a pad marker if
    /// it does not fit before the ring's end), blocking while the ring is
    /// full.
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
        let tail = ring.hdr.tail.load(Ordering::Relaxed);
        let (at, frame) = (ring.pos(tail), frame_bytes(bytes.len()));
        let pad = if ring.cap - at < frame { ring.cap - at } else { 0 };
        let need = (pad + frame) as u64;
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
        let start = if pad > 0 { 0 } else { at };
        // SAFETY: the wait above left `pad + frame` bytes free from
        // `tail`, the pad marker (8-aligned, at least 8 bytes) ends the
        // ring and the frame fits before its end; the producer lock makes
        // them ours alone.
        unsafe {
            if pad > 0 {
                ring.write_at(at, &encode_header(PAD, 0));
            }
            ring.write_at(start, &encode_header(bytes.len(), tag));
            ring.write_at(start + FRAME_HEADER, bytes);
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
            // lent until decode, so nothing leaks).
            return None;
        }
        let pkt = self.poll_rings()?;
        self.counters.lent_frames.fetch_add(1, Ordering::Relaxed);
        Some(pkt)
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
            ("net.shm.lent_frames".to_string(), c.lent_frames.load(Ordering::Relaxed)),
            ("net.shm.copied_frames".to_string(), c.copied_frames.load(Ordering::Relaxed)),
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

    fn counter(t: &ShmTransport, name: &str) -> u64 {
        let counters = t.backend_counters();
        counters.into_iter().find(|(n, _)| n == name).expect("the counter is reported").1
    }

    #[test]
    fn full_ring_blocks_then_delivers_everything() {
        // Minimum rings and max-size frames (half a ring), both ways at
        // once: each node's one thread sends and receives, as the
        // communication server does, so both block on full rings toward
        // each other, and a helper thread holds each lent frame it
        // receives for a while. What a blocked sender drains must come
        // free at once, or the two wait for each other forever.
        let mesh = Arc::new(shm_mesh_with(2, MIN_RING_BYTES).unwrap());
        let (max, frames) = (mesh[0].max_frame(), 64usize);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for node in 0..2 {
            let (mesh, done_tx) = (Arc::clone(&mesh), done_tx.clone());
            std::thread::spawn(move || {
                let (hold_tx, hold_rx) = std::sync::mpsc::channel::<Payload>();
                let helper = std::thread::spawn(move || {
                    for held in hold_rx {
                        std::thread::sleep(Duration::from_micros(200));
                        drop(held);
                    }
                });
                let (peer, t) = (1 - node, &mesh[node]);
                let (mut sent, mut got) = (0, 0);
                while sent < frames || got < frames {
                    // Bursts with no receive between their sends: the
                    // nodes block toward each other inside each.
                    for _ in 0..8.min(frames - sent) {
                        t.send(peer, sent as Tag, Payload::from(vec![node as u8; max])).unwrap();
                        sent += 1;
                    }
                    if sent == frames {
                        std::thread::sleep(FULL_RETRY);
                    }
                    while let Some(pkt) = t.try_recv() {
                        assert_eq!(
                            (pkt.src, pkt.tag as usize, pkt.payload.len()),
                            (peer, got, max)
                        );
                        assert_eq!(
                            (pkt.payload[0], pkt.payload[max - 1]),
                            (peer as u8, peer as u8)
                        );
                        got += 1;
                        hold_tx.send(pkt.payload).unwrap();
                    }
                }
                drop(hold_tx);
                helper.join().unwrap();
                done_tx.send(node).unwrap();
            });
        }
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("two senders blocked toward each other must both finish");
        }
        for t in mesh.iter() {
            assert!(counter(t, "net.shm.full_waits") > 0, "small ring must have filled");
            let (lent, copied) =
                (counter(t, "net.shm.lent_frames"), counter(t, "net.shm.copied_frames"));
            assert_eq!(lent + copied, frames as u64, "a frame leaves its ring lent or copied");
        }
    }

    #[test]
    fn frames_released_out_of_order_move_head_over_the_released_prefix_only() {
        let mesh = shm_mesh_with(2, MIN_RING_BYTES).unwrap();
        let head = || mesh[1].link.seg.ring(0, 1).hdr.head.load(Ordering::Acquire);
        let frame = frame_bytes(100) as u64;
        for i in 0..3 {
            mesh[0].send(1, i, Payload::from(vec![i as u8; 100])).unwrap();
        }
        let mut held: Vec<Packet> = (0..3).map(|_| mesh[1].try_recv().expect("a frame")).collect();
        assert!(held.iter().all(|pkt| pkt.payload.is_pooled() && pkt.payload.is_shared()));
        assert!(mesh[1].try_recv().is_none());
        assert_eq!(head(), 0, "every frame is lent");
        drop(held.remove(1));
        assert!(mesh[1].try_recv().is_none());
        assert_eq!(head(), 0, "the oldest frame still holds the ring");
        assert_eq!(held[0].payload.as_slice(), &[0u8; 100][..]);
        drop(held.remove(0));
        assert!(mesh[1].try_recv().is_none());
        assert_eq!(head(), 2 * frame, "the released prefix is both frames");
        assert_eq!(held[0].payload.as_slice(), &[2u8; 100][..]);
        drop(held);
        assert!(mesh[1].try_recv().is_none());
        assert_eq!(head(), 3 * frame);
        assert_eq!(counter(&mesh[1], "net.shm.lent_frames"), 3);
    }

    #[test]
    fn a_frame_that_would_wrap_starts_at_zero_behind_a_pad() {
        let mesh = shm_mesh_with(2, MIN_RING_BYTES).unwrap();
        let (len, cap) = (50_000, MIN_RING_BYTES);
        let frame = frame_bytes(len);
        for i in 0..2 {
            mesh[0].send(1, i, Payload::from(vec![i as u8; len])).unwrap();
            drop(mesh[1].try_recv().expect("a frame"));
        }
        // Both retire: the ring is empty, with 2 frames' bytes behind us.
        assert!(mesh[1].try_recv().is_none());
        let pad = cap - 2 * frame;
        assert!(pad < frame, "the third frame does not fit in the ring's last bytes");
        mesh[0].send(1, 2, Payload::from(vec![2u8; len])).unwrap();
        let seg = &mesh[1].link.seg;
        let ring = seg.ring(0, 1);
        assert_eq!(ring.hdr.tail.load(Ordering::Acquire), (2 * frame + pad + frame) as u64);
        let pkt = mesh[1].try_recv().expect("the frame behind the pad");
        assert_eq!((pkt.tag, pkt.payload.as_slice()), (2, &vec![2u8; len][..]));
        let at_zero = seg.base() as usize + ring.data + FRAME_HEADER;
        assert_eq!(pkt.payload.as_ptr() as usize, at_zero, "read where it landed, at 0");
        drop(pkt);
        assert!(mesh[1].try_recv().is_none());
        assert_eq!(ring.hdr.head.load(Ordering::Acquire), ring.hdr.tail.load(Ordering::Acquire));
    }

    #[test]
    fn a_frame_the_ring_cannot_hold_is_refused_not_asserted() {
        // The largest frame is half the ring: it and a pad must fit.
        let mesh = shm_mesh_with(2, MIN_RING_BYTES).unwrap();
        let max = MIN_RING_BYTES / 2 - FRAME_HEADER;
        assert_eq!(mesh[0].max_frame(), max);
        assert_eq!(
            mesh[0].send(1, 0, Payload::from(vec![0u8; max + 1])),
            Err(NetError::FrameTooLarge { len: max + 1, max })
        );
        for tag in 1..=2 {
            mesh[0].send(1, tag, Payload::from(vec![7u8; max])).expect("the largest frame fits");
        }
        for tag in 1..=2 {
            let pkt = mesh[1].recv_timeout(Duration::from_secs(5)).expect("frame arrives");
            assert_eq!((pkt.tag, pkt.payload.len()), (tag, max));
        }
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
