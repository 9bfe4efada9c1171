//! Multi-level command aggregation (the paper's Figure 3 and §IV-C).
//!
//! The pipeline, exactly as in the paper:
//!
//! 1. Each worker/helper thread owns per-destination **command blocks**
//!    (pre-aggregation): commands are encoded into the block without any
//!    synchronization. A block is laid out like the buffer it may become:
//!    the transport-header reserve first, commands behind it.
//! 2. A block is pushed into the node-wide, per-destination **aggregation
//!    queue** when it is full (entries or bytes), older than a timeout, or
//!    its owning thread runs out of work.
//! 3. When an aggregation queue holds a buffer's worth of commands (or
//!    times out, or the noticing thread goes idle), that thread pops
//!    blocks, ships the first as the **aggregation buffer** and packs the
//!    rest behind it: a first block that holds at least half of what the
//!    buffer will carry trades its `Vec` for the pooled buffer's instead
//!    of being copied into it (a 16 KiB put is never copied between
//!    encode and the wire); the blocks behind it are copied in. A smaller
//!    first block — the blocks of a stream of small commands — is copied
//!    into the pooled buffer like the rest, so such a stream keeps filling
//!    the same few buffers.
//! 4. The filled buffer goes into the thread's **channel queue** (SPSC to
//!    the communication server), which hands it to the fabric **without
//!    copying**: the buffer travels as a pooled [`gmt_net::Payload`] whose
//!    drop — after the receiving node's helper processed it — returns it
//!    to this channel's pool ([`ChannelPool`] implements
//!    [`gmt_net::BufRelease`]). This models a NIC sending straight from a
//!    registered buffer and completing it back to the sender.
//!
//! Blocks and buffers come from fixed pools and are recycled "to save
//! memory space and eliminate allocation overhead". Both pools hold
//! `Vec`s of `buffer_size` capacity, so a `Vec` can serve as either and
//! the trade above conserves the count of each pool.
//!
//! A buffer therefore ships for one of three reasons (`FlushCause`):
//! it is **full**, a **timeout** fired on a thread that is busy with
//! other work ([`CommandSink::pump`]), or its thread went **idle**
//! ([`CommandSink::flush_idle`]) — a sender with nothing more to send
//! gains nothing by waiting for company, so it flushes at once instead of
//! sitting out both timeouts at clock granularity. No trigger holds a
//! block back for company it has no reason to expect: a chain of
//! dependent single commands sends one buffer per command, as fast as
//! the host moves one (DESIGN.md §5 has the measurements behind that
//! choice).
//!
//! Two further hot-path design points (their ceiling is the end-to-end
//! benchmark's `aggregation.ceil.emit_ns_per_cmd`, `emit` plus `pump` per
//! command, printed by `gmt-e2e ceilings`):
//!
//! * **Coarse clock** — block ages are stamped from a node-wide
//!   [`AtomicU64`] that one thread advances: the communication server,
//!   with [`AggShared::tick`] at every sweep (plus the shutdown drain in
//!   [`CommandSink::flush_all`] and the on-demand watchdog sweep, when
//!   that thread may be gone or idle). [`CommandSink::emit`] and
//!   [`CommandSink::pump`] only read it, so a worker's scheduler pass
//!   makes no `clock_gettime` call and writes no line the other threads
//!   write. Timeout precision is the sweep interval, not the pump
//!   interval — enough, because the thread whose sweeps advance the clock
//!   is the thread that ships what a timeout flush produces: a buffer
//!   flushed earlier would only wait in its channel queue for the next
//!   sweep. The idle flush does not read the clock at all.
//! * **Sharded statistics** — counters live in the node's metrics
//!   registry ([`gmt_metrics::Registry`]), one cache-padded cell per
//!   channel, and are summed on demand by [`AggShared::stats`], so `emit`
//!   performs no RMW on any shared cache line. [`AggShared::new`] creates
//!   a private registry (standalone use: unit tests, benchmarks);
//!   [`AggShared::new_in_registry`] registers the same instruments in the
//!   node-wide registry so they appear in
//!   [`NodeHandle::metrics_snapshot`](crate::runtime::NodeHandle::metrics_snapshot).

use crate::command::{self, Command, GET_REPLY_FIXED_BYTES};
use crate::memory::Segment;
use crate::NodeId;
use crossbeam::queue::{ArrayQueue, SegQueue};
use gmt_metrics::{Counter, Histogram, Registry};
use gmt_net::{BufRelease, Payload};
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;
use std::time::Instant;

/// Wire size of the smallest command (`Ack`); bounds how many blocks one
/// aggregation buffer's worth of queued bytes can consist of.
const MIN_CMD_BYTES: usize = 9;

/// Fixed part of an `AddN` on the wire (opcode + array + offset + delta +
/// token-run length); each absorbed token adds 8 bytes.
const ADD_N_FIXED_BYTES: usize = 1 + 8 + 8 + 8 + 4;

/// Upper bound on tokens merged into one `AddN`, independent of buffer
/// size (keeps per-entry token runs small and cache-friendly).
const MAX_COMBINE_TOKENS: usize = 64;

/// First retry delay after `aggregate` finds its buffer pool empty.
const POOL_BACKOFF_MIN_NS: u64 = 10_000;

/// Ceiling of the empty-pool retry backoff: buffers come back on the
/// receiver's schedule, so there is no point in hammering the pool, but a
/// bounded cap keeps the retry latency within a sweep of the clock or two.
const POOL_BACKOFF_MAX_NS: u64 = 1_000_000;

/// Per-destination aggregation queue: command blocks from all threads of a
/// node, bound for one remote node.
pub struct AggQueue {
    blocks: SegQueue<Vec<u8>>,
    /// Total encoded bytes currently queued.
    bytes: AtomicUsize,
    /// Monotonic ns timestamp of the oldest unaggregated push (0 = none).
    oldest_push_ns: AtomicU64,
}

impl AggQueue {
    fn new() -> Self {
        AggQueue {
            blocks: SegQueue::new(),
            bytes: AtomicUsize::new(0),
            oldest_push_ns: AtomicU64::new(0),
        }
    }

    /// Bytes of commands waiting in this queue.
    pub fn queued_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The fixed buffer pool of one channel. Spent payloads flow back here via
/// the [`BufRelease`] hook, wherever in the cluster they were dropped.
pub struct ChannelPool {
    free: ArrayQueue<Vec<u8>>,
    capacity: usize,
    /// Set while the owning thread has blocks queued that this pool was
    /// too dry to ship ([`CommandSink::stranded`]).
    wanted: AtomicBool,
    /// What a return wakes while `wanted` is set.
    waker: OnceLock<Waker>,
}

impl BufRelease for ChannelPool {
    fn release(&self, mut buf: Vec<u8>) {
        buf.clear();
        // Pool capacity equals the number of buffers in circulation and
        // each payload releases exactly once, so this cannot overflow.
        self.free.push(buf).expect("buffer pool overflow");
        // Pairs with the fence of the owner's sleep: either it sees this
        // buffer when it rechecks the pool, or this sees `wanted`.
        fence(Ordering::SeqCst);
        if self.wanted.load(Ordering::Relaxed) {
            if let Some(w) = self.waker.get() {
                w.wake_by_ref();
            }
        }
    }
}

/// SPSC-style channel between one worker/helper thread and the
/// communication server, with its fixed buffer pool.
pub struct ChannelQueue {
    /// Filled aggregation buffers awaiting transmission.
    filled: ArrayQueue<(NodeId, Vec<u8>)>,
    /// Recycled empty buffers; `Arc` so in-flight payloads can return
    /// their buffer after the channel-owning thread moved on.
    pool: Arc<ChannelPool>,
}

impl ChannelQueue {
    fn new(num_buffers: usize, buffer_size: usize) -> Self {
        let free = ArrayQueue::new(num_buffers);
        for _ in 0..num_buffers {
            free.push(Vec::with_capacity(buffer_size)).expect("pool fits");
        }
        ChannelQueue {
            filled: ArrayQueue::new(num_buffers),
            pool: Arc::new(ChannelPool {
                free,
                capacity: num_buffers,
                wanted: AtomicBool::new(false),
                waker: OnceLock::new(),
            }),
        }
    }

    /// Registers what a buffer returning to this channel's pool wakes
    /// while its thread waits for one ([`CommandSink::stranded`]). Once
    /// per channel; a second call is ignored.
    pub fn wake_on_return(&self, waker: Waker) {
        let _ = self.pool.waker.set(waker);
    }

    /// Communication-server side: takes the next filled buffer, already
    /// wrapped as a pooled [`Payload`] — dropping it (anywhere, any
    /// thread) returns the buffer to this channel's pool. No copy is made
    /// between here and the fabric.
    pub fn pop_filled(&self) -> Option<(NodeId, Payload)> {
        self.filled.pop().map(|(dst, buf)| {
            (dst, Payload::pooled(buf, Arc::clone(&self.pool) as Arc<dyn BufRelease>))
        })
    }

    /// Number of filled buffers waiting.
    pub fn backlog(&self) -> usize {
        self.filled.len()
    }

    /// Buffers currently resting in the pool (== capacity when the
    /// channel is quiescent and every payload has been dropped).
    pub fn free_buffers(&self) -> usize {
        self.pool.free.len()
    }

    /// Total buffers owned by this channel.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity
    }

    /// Smallest allocation among the buffers resting in the pool (`None`
    /// when it is empty). Cycles the pool once, so only meaningful on a
    /// quiescent channel: the tests' check that trading blocks for buffers
    /// never left an undersized `Vec` behind.
    #[doc(hidden)]
    pub fn min_free_buffer_capacity(&self) -> Option<usize> {
        let mut min = None;
        for _ in 0..self.pool.free.len() {
            let Some(buf) = self.pool.free.pop() else { break };
            min = Some(min.map_or(buf.capacity(), |m: usize| m.min(buf.capacity())));
            self.pool.free.push(buf).expect("buffer pool overflow");
        }
        min
    }
}

/// Snapshot of the aggregation counters, summed over all per-channel
/// shards by [`AggShared::stats`]. Totals are exact once the emitting
/// threads are quiescent (each shard is written by one thread only).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AggStats {
    pub commands: u64,
    pub blocks_pushed: u64,
    pub buffers_filled: u64,
    /// Buffers dispatched because a timeout fired, not because they
    /// were full.
    pub timeout_flushes: u64,
    /// Buffers dispatched because the owning thread had nothing else to
    /// do (the idle edge of its main loop, or its final drain).
    pub idle_flushes: u64,
    /// Command blocks dropped (freed) because the block pool was full.
    pub block_pool_drops: u64,
    /// Fire-and-forget adds absorbed into an existing combining-table
    /// entry (each hit is one command that never reached the wire).
    pub combine_hits: u64,
    /// Combining-table entries flushed as `AddN` wire commands.
    pub combine_flushes: u64,
    /// `aggregate` attempts skipped because the empty-pool backoff gate
    /// was still closed (the retry path does not busy-spin on a dry pool).
    pub pool_dry_waits: u64,
}

/// The aggregation layer's registry instruments: sharded counters (one
/// cell per channel, written by that channel's thread only) plus the
/// fill-level histogram recorded at every buffer flush.
struct AggMetrics {
    commands: Counter,
    blocks_pushed: Counter,
    buffers_filled: Counter,
    timeout_flushes: Counter,
    idle_flushes: Counter,
    block_pool_drops: Counter,
    /// `aggregate` found the channel's buffer pool empty and left the
    /// blocks queued for a later retry.
    pool_waits: Counter,
    /// `aggregate` attempts skipped outright because the empty-pool
    /// backoff gate had not expired yet.
    pool_dry_waits: Counter,
    combine_hits: Counter,
    combine_flushes: Counter,
    /// Buffer length (header included) at flush, bucketed by fractions of
    /// `buffer_size` — the paper's buffer-occupancy view (Figure 9).
    flush_fill: Histogram,
}

impl AggMetrics {
    fn register(registry: &Registry, buffer_size: usize) -> Self {
        let mut bounds: Vec<u64> = [8usize, 4, 2]
            .iter()
            .map(|d| (buffer_size / d) as u64)
            .chain([(buffer_size * 3 / 4) as u64, buffer_size as u64])
            .filter(|&b| b > 0)
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        AggMetrics {
            commands: registry.counter("agg.commands"),
            blocks_pushed: registry.counter("agg.blocks_pushed"),
            buffers_filled: registry.counter("agg.buffers_filled"),
            timeout_flushes: registry.counter("agg.timeout_flushes"),
            idle_flushes: registry.counter("agg.idle_flushes"),
            block_pool_drops: registry.counter("agg.block_pool_drops"),
            pool_waits: registry.counter("agg.pool_waits"),
            pool_dry_waits: registry.counter("agg.pool_dry_waits"),
            combine_hits: registry.counter("agg.combine_hits"),
            combine_flushes: registry.counter("agg.combine_flushes"),
            flush_fill: registry.histogram("agg.flush_fill_bytes", &bounds),
        }
    }
}

/// Node-wide shared aggregation state.
pub struct AggShared {
    buffer_size: usize,
    /// Bytes reserved (zeroed) at the front of every command block and
    /// aggregation buffer for the transport header the reliability layer
    /// patches in before the send. The runtime always reserves
    /// `reliable::HEADER_LEN`; standalone instances (tests, benchmarks)
    /// may reserve 0.
    header_reserve: usize,
    cmd_block_entries: usize,
    cmd_block_timeout_ns: u64,
    aggregation_timeout_ns: u64,
    /// Maximum distinct `(array, offset)` cells tracked per destination
    /// in each sink's combining table; 0 disables combining.
    combine_window: usize,
    /// Maximum tokens merged into one entry before it flushes as `AddN`
    /// (bounded so the command always fits one aggregation buffer).
    combine_cap: usize,
    start: Instant,
    /// Coarse monotonic clock (ns since `start`), ticked by [`Self::tick`]
    /// from the communication server's sweeps. Hot paths read it with a
    /// relaxed load instead of calling `Instant::now()`.
    clock_ns: AtomicU64,
    queues: Vec<AggQueue>,
    block_pool: ArrayQueue<Vec<u8>>,
    channels: Vec<ChannelQueue>,
    metrics: AggMetrics,
}

impl AggShared {
    /// `destinations` = number of nodes in the cluster (the self entry
    /// exists but stays unused); `threads` = workers + helpers;
    /// `header_reserve` = bytes zero-reserved at the front of every buffer
    /// for the transport header (0 disables the reserve).
    ///
    /// The statistics instruments go into a private, throwaway registry:
    /// counter handles keep working after a registry drops, so standalone
    /// instances (tests, benchmarks) behave exactly as before — the
    /// counters just are not visible in any node snapshot. The runtime
    /// uses [`Self::new_in_registry`] instead.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        destinations: usize,
        threads: usize,
        num_buf_per_channel: usize,
        buffer_size: usize,
        cmd_block_entries: usize,
        cmd_block_timeout_ns: u64,
        aggregation_timeout_ns: u64,
        header_reserve: usize,
        combine_window: usize,
    ) -> Arc<Self> {
        Self::new_in_registry(
            destinations,
            threads,
            num_buf_per_channel,
            buffer_size,
            cmd_block_entries,
            cmd_block_timeout_ns,
            aggregation_timeout_ns,
            header_reserve,
            combine_window,
            &Registry::new(threads),
        )
    }

    /// Like [`Self::new`], but registers the aggregation instruments
    /// (`agg.*`) in `registry`, which must have at least `threads` counter
    /// shards.
    #[allow(clippy::too_many_arguments)]
    pub fn new_in_registry(
        destinations: usize,
        threads: usize,
        num_buf_per_channel: usize,
        buffer_size: usize,
        cmd_block_entries: usize,
        cmd_block_timeout_ns: u64,
        aggregation_timeout_ns: u64,
        header_reserve: usize,
        combine_window: usize,
        registry: &Registry,
    ) -> Arc<Self> {
        assert!(header_reserve < buffer_size, "header reserve must leave room for commands");
        assert!(registry.shards() >= threads, "registry has fewer shards than channels");
        // Enough recycled blocks for every thread to have one per
        // destination, plus — per destination — a buffer's worth of full
        // blocks that can sit in the aggregation queue before a drain
        // fires. A full block holds at least `cmd_block_entries` commands
        // of `MIN_CMD_BYTES` each, which bounds blocks-per-buffer. Sized
        // this way, steady-state recycling never drops a block
        // (`AggStats::block_pool_drops` stays 0).
        let full_block_bytes = (cmd_block_entries * MIN_CMD_BYTES).max(1);
        let blocks_per_buffer = buffer_size / full_block_bytes + 2;
        let pool_cap = (threads * destinations * 2 + destinations * blocks_per_buffer).max(16);
        let block_pool = ArrayQueue::new(pool_cap);
        // A full combining entry must encode into a command that fits one
        // buffer's command capacity.
        let combine_cap = ((buffer_size - header_reserve).saturating_sub(ADD_N_FIXED_BYTES) / 8)
            .clamp(1, MAX_COMBINE_TOKENS);
        Arc::new(AggShared {
            buffer_size,
            header_reserve,
            cmd_block_entries,
            cmd_block_timeout_ns,
            aggregation_timeout_ns,
            combine_window,
            combine_cap,
            start: Instant::now(),
            clock_ns: AtomicU64::new(1),
            queues: (0..destinations).map(|_| AggQueue::new()).collect(),
            block_pool,
            channels: (0..threads)
                .map(|_| ChannelQueue::new(num_buf_per_channel, buffer_size))
                .collect(),
            metrics: AggMetrics::register(registry, buffer_size),
        })
    }

    /// Advances the coarse clock to the current elapsed time and returns
    /// it. Called from each communication-server sweep, the shutdown drain
    /// of [`CommandSink::flush_all`] and an on-demand watchdog sweep; those
    /// may tick concurrently (stores are monotonic enough: a stale store
    /// can only *lower* the clock by one tick interval, which is within
    /// the documented timeout slack).
    pub fn tick(&self) -> u64 {
        let now = self.elapsed_ns();
        self.clock_ns.store(now, Ordering::Relaxed);
        now
    }

    /// The time [`tick`](Self::tick) would publish, read without
    /// publishing it: for a thread that times its own work against the
    /// node's clock but must leave the coarse clock to the communication
    /// server (a TCP reader stepping the link).
    pub fn elapsed_ns(&self) -> u64 {
        (self.start.elapsed().as_nanos() as u64).max(1)
    }

    /// The coarse clock's latest tick: one relaxed load, no syscall.
    #[inline]
    fn coarse_now_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// Public read of the coarse clock (same relaxed load as the hot
    /// paths use); the reliability layer and watchdog time against this.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.coarse_now_ns()
    }

    /// Bytes reserved for the transport header at the front of every
    /// aggregation buffer this instance produces.
    #[inline]
    pub fn header_reserve(&self) -> usize {
        self.header_reserve
    }

    /// Bytes of one buffer available to commands (after the reserve): the
    /// largest command a sink accepts.
    #[inline]
    pub(crate) fn cmd_capacity(&self) -> usize {
        self.buffer_size - self.header_reserve
    }

    /// Sums the per-channel statistic shards into a snapshot.
    pub fn stats(&self) -> AggStats {
        AggStats {
            commands: self.metrics.commands.sum(),
            blocks_pushed: self.metrics.blocks_pushed.sum(),
            buffers_filled: self.metrics.buffers_filled.sum(),
            timeout_flushes: self.metrics.timeout_flushes.sum(),
            idle_flushes: self.metrics.idle_flushes.sum(),
            block_pool_drops: self.metrics.block_pool_drops.sum(),
            combine_hits: self.metrics.combine_hits.sum(),
            combine_flushes: self.metrics.combine_flushes.sum(),
            pool_dry_waits: self.metrics.pool_dry_waits.sum(),
        }
    }

    /// The channel queue of thread `idx` (communication-server side).
    pub fn channel(&self, idx: usize) -> &ChannelQueue {
        &self.channels[idx]
    }

    /// Number of channel queues (== worker + helper threads).
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The aggregation queue for destination `dst` (introspection).
    pub fn queue(&self, dst: NodeId) -> &AggQueue {
        &self.queues[dst]
    }

    /// An empty command block: the zeroed header reserve and nothing
    /// else, in a `Vec` that can hold a whole buffer (it may become one).
    fn take_block(&self) -> Vec<u8> {
        let mut block =
            self.block_pool.pop().unwrap_or_else(|| Vec::with_capacity(self.buffer_size));
        block.resize(self.header_reserve, 0);
        block
    }

    /// Returns `true` if the block was dropped because the pool was full
    /// (the caller counts drops in its statistics shard).
    fn recycle_block(&self, mut block: Vec<u8>) -> bool {
        block.clear();
        self.block_pool.push(block).is_err()
    }
}

/// Why an aggregation buffer left its queue. Every filled buffer has
/// exactly one cause; `agg.buffers_filled` minus the timeout and idle
/// counters is the full share.
#[derive(Clone, Copy)]
enum FlushCause {
    /// A buffer's worth of commands was queued.
    Full,
    /// The queue aged past `aggregation_timeout_ns` under a busy thread.
    Timeout,
    /// The owning thread had nothing else to do.
    Idle,
}

/// A thread-local command block being filled for one destination.
struct ActiveBlock {
    buf: Vec<u8>,
    entries: usize,
    born_ns: u64,
}

/// One cell of the combining table: the merged delta of every
/// fire-and-forget `Add` to `(array, offset)` seen since the last flush,
/// plus the completion tokens (8 LE bytes each) those adds carried.
struct CombineEntry {
    array: u64,
    offset: u64,
    delta: i64,
    tokens: Vec<u8>,
}

/// Per-destination merge-at-source table (see `CommandSink::emit`).
/// `entries[..live]` are occupied; dead entries keep their token buffers
/// allocated for reuse.
#[derive(Default)]
struct CombineTable {
    entries: Vec<CombineEntry>,
    live: usize,
    /// Coarse-clock stamp of the first add since the last flush (0 =
    /// empty); pump flushes tables older than the command-block timeout.
    born_ns: u64,
}

/// Per-thread front end of the aggregation pipeline.
///
/// Owned by exactly one worker or helper thread; `emit` requires `&mut`
/// and touches only thread-local state until a block is handed off.
pub struct CommandSink {
    shared: Arc<AggShared>,
    /// This thread's channel-queue index.
    chan: usize,
    active: Vec<Option<ActiveBlock>>,
    /// Per-destination combining tables (empty when combining is off).
    combine: Vec<CombineTable>,
    /// Current empty-pool retry backoff (0 = pool was not dry last time).
    /// `Cell` because `aggregate` takes `&self`; the sink is owned by one
    /// thread, so interior mutability is purely local.
    pool_backoff_ns: Cell<u64>,
    /// Coarse-clock time before which `aggregate` skips the pool pop.
    pool_retry_at_ns: Cell<u64>,
}

impl CommandSink {
    pub fn new(shared: Arc<AggShared>, chan: usize) -> Self {
        let dests = shared.queues.len();
        CommandSink {
            shared,
            chan,
            active: (0..dests).map(|_| None).collect(),
            combine: (0..dests).map(|_| CombineTable::default()).collect(),
            pool_backoff_ns: Cell::new(0),
            pool_retry_at_ns: Cell::new(0),
        }
    }

    /// This sink's statistics instruments (this thread writes only its
    /// own counter shard, `self.chan`).
    #[inline]
    fn metrics(&self) -> &AggMetrics {
        &self.shared.metrics
    }

    /// Appends `cmd` to the command block for `dst` (step 2 of Figure 3),
    /// handing the block to the aggregation queue if it fills up.
    ///
    /// Fire-and-forget atomic adds (`Add` with `dest == 0`) are diverted
    /// into the per-destination combining table first: adds to the same
    /// `(array, offset)` merge into one delta (commutativity makes this
    /// exact) and leave as a single [`Command::AddN`] carrying every
    /// absorbed completion token. Purely pre-wire — the merged command is
    /// one entry in one buffer, so reliability seq/dedup semantics are
    /// untouched. A combined add may ship later than commands emitted
    /// after it (bounded by the block timeout); GMT never ordered
    /// independent commands anyway.
    ///
    /// Hot path: no `Instant::now()` (block birth is stamped from the
    /// coarse clock) and no shared-cacheline RMW (counters go to this
    /// thread's padded shard).
    #[inline]
    pub fn emit(&mut self, dst: NodeId, cmd: &Command<'_>) {
        if self.shared.combine_window > 0 {
            if let Command::Add { token, array, offset, delta, dest: 0 } = *cmd {
                self.combine_add(dst, token, array, offset, delta);
                return;
            }
        }
        self.encode_cmd(dst, cmd);
    }

    /// Merges one fire-and-forget add into the combining table for `dst`,
    /// flushing an entry (token cap) or the whole table (window overflow)
    /// as needed.
    fn combine_add(&mut self, dst: NodeId, token: u64, array: u64, offset: u64, delta: i64) {
        let cap_bytes = self.shared.combine_cap * 8;
        let table = &mut self.combine[dst];
        if let Some(i) =
            table.entries[..table.live].iter().position(|e| e.array == array && e.offset == offset)
        {
            let e = &mut table.entries[i];
            e.delta = e.delta.wrapping_add(delta);
            e.tokens.extend_from_slice(&token.to_le_bytes());
            self.shared.metrics.combine_hits.add(self.chan, 1);
            if e.tokens.len() >= cap_bytes {
                // Entry full: flush it alone, keeping the rest merging.
                let tokens = std::mem::take(&mut e.tokens);
                let (array, offset, delta) = (e.array, e.offset, e.delta);
                table.live -= 1;
                table.entries.swap(i, table.live);
                if table.live == 0 {
                    table.born_ns = 0;
                }
                self.shared.metrics.combine_flushes.add(self.chan, 1);
                self.encode_cmd(dst, &Command::AddN { array, offset, delta, tokens: &tokens });
                // Hand the token buffer back to the (now dead) slot.
                let table = &mut self.combine[dst];
                let mut tokens = tokens;
                tokens.clear();
                table.entries[table.live].tokens = tokens;
            }
            return;
        }
        if table.live == self.shared.combine_window {
            self.flush_combine(dst);
        }
        let now = self.shared.coarse_now_ns();
        let table = &mut self.combine[dst];
        if table.live == 0 {
            table.born_ns = now;
        }
        if table.live == table.entries.len() {
            table.entries.push(CombineEntry {
                array,
                offset,
                delta,
                tokens: Vec::with_capacity(cap_bytes),
            });
        } else {
            let e = &mut table.entries[table.live];
            e.array = array;
            e.offset = offset;
            e.delta = delta;
            e.tokens.clear();
        }
        table.entries[table.live].tokens.extend_from_slice(&token.to_le_bytes());
        table.live += 1;
    }

    /// Flushes every live combining-table entry for `dst` into the
    /// command block as `AddN` commands.
    fn flush_combine(&mut self, dst: NodeId) {
        if self.combine[dst].live == 0 {
            return;
        }
        let mut table = std::mem::take(&mut self.combine[dst]);
        for e in &mut table.entries[..table.live] {
            let cmd = Command::AddN {
                array: e.array,
                offset: e.offset,
                delta: e.delta,
                tokens: &e.tokens,
            };
            self.encode_cmd(dst, &cmd);
            e.tokens.clear();
        }
        self.shared.metrics.combine_flushes.add(self.chan, table.live as u64);
        table.live = 0;
        table.born_ns = 0;
        self.combine[dst] = table;
    }

    /// Encodes `cmd` into the active block for `dst` (no combining).
    #[inline]
    fn encode_cmd(&mut self, dst: NodeId, cmd: &Command<'_>) {
        self.encode_with(dst, cmd.encoded_len(), |block| cmd.encode(block));
    }

    /// Emits the [`Command::GetReply`] that answers the run of spans
    /// `spans` (a `GetRun`'s) of `seg`, its payload produced where it will
    /// travel: the spans are read back to back straight into the command
    /// block, so the reply is never staged anywhere else — and, when the
    /// block goes on to become the buffer, not copied again before the
    /// wire.
    #[inline]
    pub fn emit_get_reply(
        &mut self,
        dst: NodeId,
        token: u64,
        dest: u64,
        seg: &Segment,
        spans: &[u8],
    ) {
        let len = command::spans(spans).map(|(_, len)| len as usize).sum();
        self.encode_with(dst, GET_REPLY_FIXED_BYTES + len, |block| {
            Command::encode_get_reply(block, token, dest, seg, spans, len)
        });
    }

    /// Applies a `CasRun`'s compare-and-swaps to `seg` and emits the
    /// [`Command::AtomicReply`] that answers it, each old value written
    /// straight into the command block, as [`CommandSink::emit_get_reply`]
    /// writes a get's payload.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn emit_cas_reply(
        &mut self,
        dst: NodeId,
        token: u64,
        dest: u64,
        seg: &Segment,
        offsets: &[u8],
        expected: i64,
        new: i64,
    ) {
        let size = Command::AtomicReply { token, dest, olds: offsets }.encoded_len();
        self.encode_with(dst, size, |block| {
            Command::encode_cas_reply(block, token, dest, seg, offsets, expected, new)
        });
    }

    /// Appends one command of `size` wire bytes, written by `encode`, to
    /// the active block for `dst`.
    #[inline]
    fn encode_with(&mut self, dst: NodeId, size: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        let cap = self.shared.cmd_capacity();
        assert!(size <= cap, "command of {size} bytes exceeds aggregation buffer capacity {cap}");
        self.metrics().commands.add(self.chan, 1);
        // A command never splits across blocks: push the block first if
        // this one would overflow it. A block counts its header reserve,
        // so its limit is the buffer's.
        let limit = self.shared.buffer_size;
        if let Some(active) = &self.active[dst] {
            if active.buf.len() + size > limit {
                self.push_block(dst);
            }
        }
        let active = self.active[dst].get_or_insert_with(|| ActiveBlock {
            buf: self.shared.take_block(),
            entries: 0,
            born_ns: self.shared.coarse_now_ns(),
        });
        let at = active.buf.len();
        encode(&mut active.buf);
        debug_assert_eq!(active.buf.len(), at + size);
        active.entries += 1;
        if active.entries >= self.shared.cmd_block_entries || active.buf.len() >= limit {
            self.push_block(dst);
        }
    }

    /// Moves the active block for `dst` into the aggregation queue
    /// (step 3), triggering aggregation if a buffer's worth is ready.
    fn push_block(&mut self, dst: NodeId) {
        let Some(active) = self.active[dst].take() else { return };
        if active.entries == 0 {
            if self.shared.recycle_block(active.buf) {
                self.metrics().block_pool_drops.add(self.chan, 1);
            }
            return;
        }
        let shared = &self.shared;
        let q = &shared.queues[dst];
        // The queue counts commands, not the reserve each block carries.
        let len = active.buf.len() - shared.header_reserve;
        q.blocks.push(active.buf);
        q.bytes.fetch_add(len, Ordering::AcqRel);
        // Stamp *after* the push, unconditionally. Invariant: a non-empty
        // queue eventually has a non-zero stamp — only `aggregate` stores
        // zero, and it rechecks emptiness afterwards. (A CAS-if-zero here
        // loses against a concurrent drain: the CAS fails on the stale
        // stamp, the drain misses our block and resets to zero, and the
        // block would never time out.)
        q.oldest_push_ns.store(shared.coarse_now_ns(), Ordering::Release);
        self.metrics().blocks_pushed.add(self.chan, 1);
        if q.bytes.load(Ordering::Acquire) >= shared.cmd_capacity() {
            // Best-effort: on pool starvation the blocks stay queued and
            // the next push or pump retries.
            self.aggregate(dst, FlushCause::Full);
        }
    }

    /// Packs queued blocks for `dst` into one aggregation buffer and hands
    /// it to this thread's channel queue (steps 4–8 of Figure 3).
    ///
    /// Non-blocking: returns `false` if the channel pool had no free
    /// buffer, leaving the blocks queued for a later retry (the next
    /// threshold push, timeout pump or idle flush). Blocking here would be a
    /// distributed deadlock: with zero-copy sends, buffers return only
    /// when the *receiving* helper drops the payload, and that helper may
    /// itself be aggregating replies from a starved pool.
    ///
    /// A dry pool opens a bounded exponential backoff gate (timed on the
    /// coarse clock): retries before the gate expires are skipped without
    /// popping, as long as the pool still reads empty, so a starved
    /// emitter stops hammering the shared `ArrayQueue` head.
    /// `agg.pool_waits` counts genuine dry pops, `agg.pool_dry_waits`
    /// counts gated skips.
    fn aggregate(&self, dst: NodeId, cause: FlushCause) -> bool {
        let shared = &self.shared;
        let chan = &shared.channels[self.chan];
        let q = &shared.queues[dst];
        let now = shared.coarse_now_ns();
        // The gate opens when its time is up or a buffer is back, so a
        // clock that stands still while the communication server sleeps
        // cannot keep a returned buffer from being used.
        if now < self.pool_retry_at_ns.get() && chan.pool.free.is_empty() {
            self.metrics().pool_dry_waits.add(self.chan, 1);
            return false;
        }
        let Some(mut buf) = chan.pool.free.pop() else {
            self.metrics().pool_waits.add(self.chan, 1);
            let backoff = self
                .pool_backoff_ns
                .get()
                .saturating_mul(2)
                .clamp(POOL_BACKOFF_MIN_NS, POOL_BACKOFF_MAX_NS);
            self.pool_backoff_ns.set(backoff);
            self.pool_retry_at_ns.set(now.saturating_add(backoff));
            return false;
        };
        self.pool_backoff_ns.set(0);
        self.pool_retry_at_ns.set(0);
        debug_assert!(buf.is_empty());
        let hdr = shared.header_reserve;
        // What this buffer will carry, as far as the queue knows now.
        let load = q.bytes.load(Ordering::Acquire).min(shared.cmd_capacity());
        while buf.len() < shared.buffer_size {
            let Some(mut block) = q.blocks.pop() else { break };
            let body = block.len() - hdr;
            if buf.is_empty() && 2 * body >= load {
                // A first block that is the larger share of the load
                // *becomes* the buffer: it brings the (zeroed) header
                // reserve the communication server patches in place before
                // the send, the two `Vec`s trade places and the pool's
                // goes on as a block. Only the blocks behind it are copied.
                //
                // A smaller first block is copied like the rest, into the
                // pool's `Vec`. Trading it would copy fewer bytes and cost
                // more: the rest of the load would be written behind it
                // into memory last touched when that `Vec` was a buffer,
                // and since every `Vec` of the block pool takes its turn
                // at being first, a stream of small commands would fill
                // buffers across the whole block pool (dozens of 64 KiB
                // `Vec`s) instead of the channel's few. Measured: 9 % slower
                // and four times less steady on `scatter_add_sim`
                // (EXPERIMENTS.md, "Refused for spread").
                std::mem::swap(&mut buf, &mut block);
            } else {
                if buf.is_empty() {
                    buf.resize(hdr, 0);
                }
                if buf.len() + body > shared.buffer_size {
                    // Does not fit: requeue and stop. Reordering is fine —
                    // GMT does not order independent commands. The queue
                    // is still non-empty and keeps its timestamp.
                    q.blocks.push(block);
                    break;
                }
                buf.extend_from_slice(&block[hdr..]);
            }
            q.bytes.fetch_sub(body, Ordering::AcqRel);
            if shared.recycle_block(block) {
                self.metrics().block_pool_drops.add(self.chan, 1);
            }
        }
        if q.blocks.is_empty() {
            q.oldest_push_ns.store(0, Ordering::Release);
            // Close the race with a producer that pushed between the
            // emptiness check and the reset: restore a stamp if anything
            // is queued now (see the invariant note in `push_block`).
            if !q.blocks.is_empty() {
                q.oldest_push_ns.store(shared.coarse_now_ns(), Ordering::Release);
            }
        } else {
            q.oldest_push_ns.store(shared.coarse_now_ns(), Ordering::Release);
        }
        if buf.len() <= hdr {
            // No commands packed (a racing drain got there first).
            buf.clear();
            chan.pool.free.push(buf).expect("buffer pool overflow");
            return true;
        }
        self.metrics().buffers_filled.add(self.chan, 1);
        self.metrics().flush_fill.record(buf.len() as u64);
        match cause {
            FlushCause::Full => {}
            FlushCause::Timeout => self.metrics().timeout_flushes.add(self.chan, 1),
            FlushCause::Idle => self.metrics().idle_flushes.add(self.chan, 1),
        }
        // Hand to the communication server. The pool bounds in-flight
        // buffers, so this cannot overflow unless buffers leak.
        let mut item = (dst, buf);
        loop {
            match chan.filled.push(item) {
                Ok(()) => break,
                Err(back) => {
                    item = back;
                    std::thread::yield_now();
                }
            }
        }
        true
    }

    /// Periodic maintenance, called from the owning thread's main loop:
    /// pushes aged command blocks and drains aged aggregation queues,
    /// timed against the coarse clock, which it reads and does not tick.
    /// This is the flush trigger of a *busy* thread; a thread that runs
    /// out of work calls [`Self::flush_idle`] instead of waiting for these
    /// timeouts.
    pub fn pump(&mut self) {
        let now = self.shared.coarse_now_ns();
        for dst in 0..self.active.len() {
            // Combining tables age on the block timeout: workers pump
            // every scheduler loop, so a merged add is delayed at most
            // one timeout (and one sweep of the clock) past its emit,
            // toward every peer alike.
            let t = &self.combine[dst];
            if t.live > 0 && now.saturating_sub(t.born_ns) >= self.shared.cmd_block_timeout_ns {
                self.flush_combine(dst);
            }
            let aged = matches!(&self.active[dst], Some(a) if a.entries > 0
                && now.saturating_sub(a.born_ns) >= self.shared.cmd_block_timeout_ns);
            if aged {
                self.push_block(dst);
            }
            let q = &self.shared.queues[dst];
            let oldest = q.oldest_push_ns.load(Ordering::Acquire);
            if oldest != 0 && now.saturating_sub(oldest) >= self.shared.aggregation_timeout_ns {
                self.aggregate(dst, FlushCause::Timeout);
            }
        }
    }

    /// The idle flush trigger: the owning thread has no runnable task and
    /// no incoming buffer, so nothing it holds will get company soon —
    /// push its combining tables and command blocks now and aggregate
    /// whatever is queued, instead of waiting out `cmd_block_timeout_ns`
    /// plus `aggregation_timeout_ns` at clock granularity. Called on the
    /// busy→idle edge of the worker and helper loops
    /// (`idle::IdleEdge`).
    ///
    /// Same rules as the aged flush: `aggregate` never blocks, and a dry
    /// pool (or its closed back-off gate) leaves the blocks queued for the
    /// next pump. With nothing held it touches no pool.
    pub fn flush_idle(&mut self) {
        for dst in 0..self.active.len() {
            if self.combine[dst].live > 0 {
                self.flush_combine(dst);
            }
            if matches!(&self.active[dst], Some(a) if a.entries > 0) {
                self.push_block(dst);
            }
            let q = &self.shared.queues[dst];
            while q.oldest_push_ns.load(Ordering::Acquire) != 0
                && self.aggregate(dst, FlushCause::Idle)
            {}
        }
    }

    /// Whether commands are still queued after [`Self::flush_idle`]
    /// because this thread's pool was dry. While it says so, a buffer
    /// returning to the pool wakes the waker registered with
    /// [`ChannelQueue::wake_on_return`], so the thread may sleep until its
    /// pool has a free buffer instead of polling.
    pub fn stranded(&self) -> bool {
        let stranded = self.shared.queues.iter().any(|q| q.queued_bytes() > 0);
        self.shared.channels[self.chan].pool.wanted.store(stranded, Ordering::Relaxed);
        stranded
    }

    /// Pushes every active block and drains every queue this thread can
    /// see — used at shutdown and by tests. Booked as idle flushes: a
    /// thread on its way out has nothing else to do.
    ///
    /// Waits (spin-yield) for pool buffers to come back when more than a
    /// pool's worth is queued, but gives up on a destination after a long
    /// stretch with no free buffer: that only happens when nobody is
    /// draining any more (peers already shut down), and waiting on would
    /// spin forever.
    pub fn flush_all(&mut self) {
        const MAX_STALLS: u32 = 1 << 20;
        for dst in 0..self.active.len() {
            self.flush_combine(dst);
            self.push_block(dst);
            let mut stalls: u32 = 0;
            while self.shared.queues[dst].queued_bytes() > 0 {
                if self.aggregate(dst, FlushCause::Idle) {
                    stalls = 0;
                } else {
                    stalls += 1;
                    if stalls > MAX_STALLS {
                        break;
                    }
                    // The empty-pool backoff gate times against the
                    // coarse clock, and at shutdown nobody else may be
                    // ticking it — advance it here so the gate can open.
                    self.shared.tick();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Immediately pushes the active block for `dst` (no aggregation),
    /// flushing pending combined adds into it first.
    pub fn flush_block(&mut self, dst: NodeId) {
        self.flush_combine(dst);
        self.push_block(dst);
    }

    pub fn shared(&self) -> &Arc<AggShared> {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(buffer_size: usize, entries: usize) -> Arc<AggShared> {
        AggShared::new(3, 2, 4, buffer_size, entries, u64::MAX / 2, u64::MAX / 2, 0, 0)
    }

    fn ack(token: u64) -> Command<'static> {
        Command::Ack { token }
    }

    /// Drains one channel like the communication server would, returning
    /// (dst, decoded command count) per buffer. Dropping each payload
    /// returns its buffer to the channel pool.
    fn drain(shared: &AggShared, chan: usize) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        while let Some((dst, payload)) = shared.channel(chan).pop_filled() {
            let n = crate::command::CommandIter::new(&payload).count();
            out.push((dst, n));
        }
        out
    }

    #[test]
    fn commands_accumulate_in_thread_local_block() {
        let shared = test_shared(1024, 100);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..10 {
            sink.emit(1, &ack(i));
        }
        // Nothing pushed yet: block not full, no timeout.
        assert_eq!(shared.queue(1).queued_bytes(), 0);
        assert_eq!(shared.stats().commands, 10);
        assert_eq!(shared.stats().blocks_pushed, 0);
    }

    #[test]
    fn full_block_moves_to_aggregation_queue() {
        let shared = test_shared(4096, 4);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..4 {
            sink.emit(2, &ack(i));
        }
        assert_eq!(shared.stats().blocks_pushed, 1);
        // 4 acks × 9 bytes each, below buffer size: no aggregation yet.
        assert_eq!(shared.queue(2).queued_bytes(), 36);
        assert!(drain(&shared, 0).is_empty());
    }

    #[test]
    fn buffer_threshold_triggers_aggregation() {
        // Buffer of 64 bytes; each ack is 9 bytes; blocks of 2 commands.
        let shared = test_shared(64, 2);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..8 {
            sink.emit(1, &ack(i));
        }
        // 4 blocks × 18 bytes = 72 ≥ 64 → aggregation fired.
        let drained = drain(&shared, 0);
        assert_eq!(drained.len(), 1);
        let (dst, n) = drained[0];
        assert_eq!(dst, 1);
        // 64-byte buffer fits 3 blocks (54 bytes) = 6 commands.
        assert_eq!(n, 6);
        // The 4th block was requeued.
        assert_eq!(shared.queue(1).queued_bytes(), 18);
    }

    #[test]
    fn flush_all_delivers_every_command() {
        let shared = test_shared(128, 5);
        let mut sink = CommandSink::new(Arc::clone(&shared), 1);
        let mut emitted = 0;
        for dst in [0usize, 1, 2] {
            for i in 0..13 {
                sink.emit(dst, &ack(i));
                emitted += 1;
            }
        }
        sink.flush_all();
        let mut total = 0;
        for (_, n) in drain(&shared, 1) {
            total += n;
        }
        assert_eq!(total, emitted);
        for dst in 0..3 {
            assert_eq!(shared.queue(dst).queued_bytes(), 0);
        }
    }

    #[test]
    fn pump_flushes_aged_blocks_and_queues() {
        let shared = AggShared::new(
            2, 1, 4, 1024, 100, /*block timeout*/ 0, /*agg timeout*/ 0, 0, 0,
        );
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(42));
        // Timeouts of zero: the next pump must push and aggregate.
        sink.pump();
        let drained = drain(&shared, 0);
        assert_eq!(drained, vec![(1, 1)]);
        assert_eq!(shared.stats().timeout_flushes, 1);
    }

    #[test]
    fn flush_idle_ships_at_once_and_is_not_a_timeout_flush() {
        // Timeouts that never fire: only the idle trigger can ship this.
        let shared = test_shared(1024, 100);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(1));
        sink.emit(2, &ack(2));
        sink.pump();
        assert!(drain(&shared, 0).is_empty(), "the timeouts must not have fired");
        sink.flush_idle();
        assert_eq!(drain(&shared, 0), vec![(1, 1), (2, 1)]);
        let stats = shared.stats();
        assert_eq!((stats.buffers_filled, stats.idle_flushes, stats.timeout_flushes), (2, 2, 0));
    }

    #[test]
    fn flush_idle_with_nothing_held_takes_no_pool_buffer() {
        let shared = test_shared(64, 2);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        // Run the pool dry, so that any pop attempt would be counted.
        let mut held = Vec::new();
        while shared.channel(0).free_buffers() > 0 {
            sink.emit(1, &ack(0));
            sink.flush_idle();
            held.extend(shared.channel(0).pop_filled());
        }
        let filled = shared.stats().buffers_filled;
        sink.flush_idle();
        sink.flush_idle();
        assert_eq!(shared.metrics.pool_waits.sum(), 0, "an empty sink must not touch the pool");
        assert_eq!(shared.stats().buffers_filled, filled);
        drop(held);
        assert_eq!(shared.channel(0).free_buffers(), shared.channel(0).pool_capacity());
    }

    #[test]
    fn flush_idle_on_a_dry_pool_leaves_the_blocks_for_the_pump() {
        // Zero timeouts, so the pump ships whatever the idle flush left.
        let shared = AggShared::new(2, 1, 4, 64, 100, 0, 0, 0, 0);
        shared.tick();
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let mut held = Vec::new();
        while shared.channel(0).free_buffers() > 0 {
            sink.emit(1, &ack(0));
            sink.flush_idle();
            held.extend(shared.channel(0).pop_filled());
        }
        sink.emit(1, &ack(7));
        sink.flush_idle(); // dry pool: must return, not wait
        assert_eq!(shared.metrics.pool_waits.sum(), 1);
        assert_eq!(shared.queue(1).queued_bytes(), 9, "the block stays queued");
        sink.flush_idle(); // the back-off gate swallows the retry
        assert_eq!(shared.metrics.pool_waits.sum(), 1);
        assert!(shared.stats().pool_dry_waits >= 1);
        // Buffers come back and the gate expires: the pump's aged flush
        // picks the block up.
        drop(held);
        std::thread::sleep(std::time::Duration::from_millis(2));
        shared.tick(); // the communication server's sweep
        sink.pump();
        assert_eq!(drain(&shared, 0), vec![(1, 1)]);
        assert_eq!(shared.stats().timeout_flushes, 1);
    }

    #[test]
    fn pump_reads_the_clock_it_does_not_tick() {
        // Real timeouts that have long expired in wall time: until the
        // clock's writer ticks, no pump sees the block age, and nothing
        // ships.
        let shared = AggShared::new(2, 1, 4, 1024, 100, 1_000, 1_000, 0, 0);
        shared.tick();
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        for _ in 0..3 {
            sink.pump();
        }
        assert_eq!(shared.queue(1).queued_bytes(), 0, "the block did not age");
        assert!(drain(&shared, 0).is_empty());
        shared.tick();
        sink.pump(); // block aged → pushed, and re-stamped in the queue
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.pump();
        assert!(drain(&shared, 0).is_empty(), "the queue did not age either");
        shared.tick();
        sink.pump();
        assert_eq!(drain(&shared, 0), vec![(1, 1)]);
        assert_eq!(shared.stats().timeout_flushes, 1);
    }

    #[test]
    fn large_commands_get_their_own_blocks() {
        let shared = test_shared(256, 1000);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let data = vec![7u8; 200];
        let cmd = Command::Put { token: 0, array: 1, offset: 0, data: &data };
        sink.emit(1, &cmd); // 229 bytes: nearly fills a block
        sink.emit(1, &cmd); // would overflow: first block pushed
        sink.flush_all();
        let total: usize = drain(&shared, 0).iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds aggregation buffer")]
    fn oversized_command_is_rejected() {
        let shared = test_shared(256, 10);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let data = vec![0u8; 1000];
        sink.emit(1, &Command::Put { token: 0, array: 1, offset: 0, data: &data });
    }

    #[test]
    fn buffers_are_recycled_not_leaked() {
        let shared = test_shared(64, 1);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        // Many rounds; each round drains like the comm server.
        for round in 0..50 {
            for i in 0..8 {
                sink.emit(1, &ack(round * 8 + i));
            }
            sink.flush_all();
            let n: usize = drain(&shared, 0).iter().map(|&(_, n)| n).sum();
            assert_eq!(n, 8, "round {round}");
        }
        assert_eq!(shared.stats().commands, 400);
        // Every dropped payload returned its buffer: pool is whole again.
        assert_eq!(shared.channel(0).free_buffers(), shared.channel(0).pool_capacity());
    }

    #[test]
    fn multiple_threads_share_aggregation_queue() {
        let shared = test_shared(100_000, 1); // every command becomes a block
        let s1 = Arc::clone(&shared);
        let s2 = Arc::clone(&shared);
        let t1 = std::thread::spawn(move || {
            let mut sink = CommandSink::new(s1, 0);
            for i in 0..500 {
                sink.emit(1, &Command::Ack { token: i });
            }
        });
        let t2 = std::thread::spawn(move || {
            let mut sink = CommandSink::new(s2, 1);
            for i in 500..1000 {
                sink.emit(1, &Command::Ack { token: i });
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        // 1000 blocks of 9 bytes queued; drain via a third sink.
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.flush_all();
        let mut tokens: Vec<u64> = Vec::new();
        for chan in 0..shared.channels() {
            while let Some((_, payload)) = shared.channel(chan).pop_filled() {
                for cmd in crate::command::CommandIter::new(&payload) {
                    if let Command::Ack { token } = cmd {
                        tokens.push(token);
                    }
                }
            }
        }
        tokens.sort_unstable();
        assert_eq!(tokens, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn popped_payloads_are_pooled_and_release_on_drop() {
        let shared = test_shared(64, 2);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..8 {
            sink.emit(1, &ack(i));
        }
        sink.flush_all();
        let chan = shared.channel(0);
        let before_free = chan.free_buffers();
        let (_, payload) = chan.pop_filled().expect("a filled buffer");
        assert!(payload.is_pooled());
        assert_eq!(chan.free_buffers(), before_free);
        drop(payload);
        assert_eq!(chan.free_buffers(), before_free + 1);
    }

    #[test]
    fn block_pool_sized_for_zero_steady_state_drops() {
        // Full blocks (entries-limited) recycled across many rounds: the
        // pool sizing formula must absorb every block in circulation.
        // 20 acks/dst/round = 180 queued bytes/dst → one 256-byte buffer
        // per destination per flush, within the 4-buffer channel pool (a
        // single-threaded test must not outrun its own drain).
        let shared = test_shared(256, 4);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for round in 0..200u64 {
            for dst in [0usize, 1, 2] {
                for i in 0..20 {
                    sink.emit(dst, &ack(round * 20 + i));
                }
            }
            sink.flush_all();
            drain(&shared, 0);
        }
        let stats = shared.stats();
        assert_eq!(stats.commands, 200 * 3 * 20);
        assert_eq!(stats.block_pool_drops, 0, "steady-state recycling must not drop blocks");
    }

    #[test]
    fn coarse_clock_timeout_fires_within_one_pump() {
        // Real (small) timeouts: each pipeline level must flush within
        // one pump of aging past its timeout, with ages measured purely
        // by the coarse clock (no per-emit Instant reads). The block is
        // re-stamped when it enters the aggregation queue, so the two
        // levels age across two pump intervals. Each `tick` stands in for
        // the communication server's sweep, the clock's one writer.
        let shared = AggShared::new(2, 1, 4, 1024, 100, 1_000, 1_000, 0, 0);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &ack(7));
        assert!(drain(&shared, 0).is_empty());
        std::thread::sleep(std::time::Duration::from_millis(2));
        shared.tick();
        sink.pump(); // block aged past cmd_block_timeout → pushed
        assert!(shared.queue(1).queued_bytes() > 0 || shared.channel(0).backlog() > 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        shared.tick();
        sink.pump(); // queue aged past aggregation_timeout → flushed
        assert_eq!(drain(&shared, 0), vec![(1, 1)]);
        assert!(shared.stats().timeout_flushes >= 1);
    }

    #[test]
    fn header_reserve_prefixes_every_buffer() {
        // With a 17-byte reserve, every filled buffer starts with 17 zero
        // bytes and the commands decode from the slice after them; the
        // buffer still returns whole to the pool.
        const HDR: usize = 17;
        let shared = AggShared::new(2, 1, 4, 256, 4, u64::MAX / 2, u64::MAX / 2, HDR, 0);
        assert_eq!(shared.header_reserve(), HDR);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for i in 0..8 {
            sink.emit(1, &ack(i));
        }
        sink.flush_all();
        let chan = shared.channel(0);
        let mut decoded = 0usize;
        while let Some((dst, payload)) = chan.pop_filled() {
            assert_eq!(dst, 1);
            assert!(payload[..HDR].iter().all(|&b| b == 0), "reserve not zeroed");
            decoded += crate::command::CommandIter::new(&payload[HDR..]).count();
        }
        assert_eq!(decoded, 8);
        assert_eq!(chan.free_buffers(), chan.pool_capacity());
    }

    #[test]
    fn a_block_that_fills_the_buffer_travels_as_the_buffer() {
        // The copy that is gone stays gone: a bulk put is encoded once, and
        // the bytes the communication server pops are those very bytes —
        // same address — behind the zeroed header reserve.
        const HDR: usize = 17;
        const BUFFER: usize = 65_536;
        let config = crate::config::Config { buffer_size: BUFFER, ..Default::default() };
        for len in [BUFFER / 4, config.max_inline_payload()] {
            let shared = AggShared::new(2, 1, 4, BUFFER, 100, u64::MAX / 2, u64::MAX / 2, HDR, 0);
            let mut sink = CommandSink::new(Arc::clone(&shared), 0);
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let cmd = Command::Put { token: 7, array: 3, offset: 64, data: &data };
            sink.emit(1, &cmd);
            let encoded_at = sink.active[1].as_ref().expect("the block is still held").buf.as_ptr();
            sink.flush_all();
            let chan = shared.channel(0);
            let (dst, payload) = chan.pop_filled().expect("one buffer");
            assert_eq!(dst, 1);
            assert_eq!(payload.as_ptr(), encoded_at, "a {len}-byte put was copied into the buffer");
            assert!(payload[..HDR].iter().all(|&b| b == 0), "reserve not zeroed");
            let mut cmds = crate::command::CommandIter::new(&payload[HDR..]);
            assert_eq!(cmds.next(), Some(cmd));
            assert_eq!(cmds.next(), None);
            assert!(chan.pop_filled().is_none());
            assert_eq!(shared.queue(1).queued_bytes(), 0);
            // The two `Vec`s traded places: the pool's went on as a block,
            // the block's comes back to the pool, and either fits a buffer.
            assert_eq!(shared.block_pool.len(), 1);
            drop(payload);
            assert_eq!(chan.free_buffers(), chan.pool_capacity());
            assert!(chan.min_free_buffer_capacity().unwrap() >= BUFFER);
            assert_eq!(shared.stats().block_pool_drops, 0);
        }
    }

    #[test]
    fn small_blocks_still_merge_into_one_buffer() {
        // 64 eight-byte puts fill a block (64 entries) from each of two
        // sinks; neither block is a buffer's worth, so the buffer carries
        // both: the first as the buffer, the second copied behind it with
        // its header reserve stripped.
        const HDR: usize = 17;
        let shared = AggShared::new(2, 2, 4, 65_536, 64, u64::MAX / 2, u64::MAX / 2, HDR, 0);
        let mut sinks: Vec<_> = (0..2).map(|c| CommandSink::new(Arc::clone(&shared), c)).collect();
        let data = [7u8; 8];
        for (s, sink) in sinks.iter_mut().enumerate() {
            for i in 0..64u64 {
                let token = s as u64 * 64 + i;
                sink.emit(1, &Command::Put { token, array: 3, offset: 8 * i, data: &data });
            }
        }
        let body = 64 * Command::Put { token: 0, array: 3, offset: 0, data: &data }.encoded_len();
        assert_eq!(shared.stats().blocks_pushed, 2);
        assert_eq!(shared.queue(1).queued_bytes(), 2 * body, "the queue counts no header reserve");
        sinks[0].flush_all();
        let (_, payload) = shared.channel(0).pop_filled().expect("one buffer");
        assert_eq!(payload.len(), HDR + 2 * body);
        let mut tokens: Vec<u64> = crate::command::CommandIter::new(&payload[HDR..])
            .map(|cmd| match cmd {
                Command::Put { token, .. } => token,
                other => panic!("unexpected command {other:?}"),
            })
            .collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..128).collect::<Vec<_>>());
        assert!(shared.channel(0).pop_filled().is_none());
        assert_eq!(shared.stats().buffers_filled, 1);
    }

    #[test]
    fn a_stream_of_small_commands_fills_the_channels_own_buffers() {
        // Eight acks to a block, a dozen blocks to a full buffer: no first
        // block is half the load, so none trades places with the buffer and
        // every buffer is one of the channel pool's four `Vec`s. Were small
        // first blocks traded, the buffers would wander through every `Vec`
        // of the block pool (what made `scatter_add_sim` slow and unsteady).
        const HDR: usize = 17;
        const BUFFERS: usize = 4;
        let shared = AggShared::new(2, 1, BUFFERS, 1024, 8, u64::MAX / 2, u64::MAX / 2, HDR, 0);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let chan = shared.channel(0);
        let mut addresses = std::collections::HashSet::new();
        let mut tokens = Vec::new();
        for token in 0..8_000u64 {
            sink.emit(1, &ack(token));
            while let Some((_, payload)) = chan.pop_filled() {
                addresses.insert(payload.as_ptr());
                assert!(payload[..HDR].iter().all(|&b| b == 0), "reserve not zeroed");
                tokens.extend(crate::command::CommandIter::new(&payload[HDR..]).map(
                    |cmd| match cmd {
                        Command::Ack { token } => token,
                        other => panic!("unexpected command {other:?}"),
                    },
                ));
            }
        }
        assert!(shared.stats().buffers_filled > 50, "the stream filled buffers");
        assert_eq!(shared.stats().timeout_flushes + shared.stats().idle_flushes, 0);
        assert!(addresses.len() <= BUFFERS, "buffers came from {} `Vec`s", addresses.len());
        // Everything that left arrived once (a block that did not fit goes
        // back behind the others, so order is not kept).
        let shipped = tokens.len();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), shipped, "a command travelled twice");
        assert!(tokens.iter().all(|&t| t < 8_000));
    }

    static BULK: [u8; 16 * 1024] = [7; 16 * 1024];

    #[test]
    fn pool_stress_never_leaks_or_exceeds_capacity() {
        // 128-byte buffers of acks: small blocks, several to a buffer.
        pool_stress(128, 3_000, ack);
        // 64 KiB buffers, every fourth command a 16 KiB put: blocks that
        // become the buffer and blocks copied behind one, interleaved.
        pool_stress(65_536, 600, |i| match i % 4 {
            0 => Command::Put { token: i, array: 1, offset: 0, data: &BULK },
            _ => ack(i),
        });
    }

    fn pool_stress(buffer_size: usize, per_thread: u64, cmd: fn(u64) -> Command<'static>) {
        // Two emitter threads + one drainer hammering the buffer pools
        // through both the full-flush and timeout-flush paths. At
        // quiescence every buffer must be back in its pool, and every
        // `Vec` resting there must still hold a buffer.
        use std::sync::atomic::AtomicBool;
        let shared = AggShared::new(3, 2, 4, buffer_size, 4, 0, 0, 0, 0);
        let stop = Arc::new(AtomicBool::new(false));

        let drainer = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut commands = 0usize;
                let mut stopping = false;
                loop {
                    let mut idle = true;
                    for chan in 0..shared.channels() {
                        let q = shared.channel(chan);
                        assert!(q.free_buffers() <= q.pool_capacity(), "pool overflow");
                        if let Some((_, payload)) = q.pop_filled() {
                            commands += crate::command::CommandIter::new(&payload).count();
                            idle = false;
                            // payload drop returns the buffer to the pool
                        }
                    }
                    if idle {
                        // `stop` is set after the emitters joined, so a
                        // sweep *begun after observing it* that still
                        // finds nothing means the channels are drained
                        // (an idle sweep racing the last pushes is not
                        // enough — hence the two-step exit).
                        if stopping {
                            break;
                        }
                        stopping = stop.load(Ordering::Acquire);
                    }
                }
                commands
            })
        };

        let emitters: Vec<_> = (0..2)
            .map(|chan| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut sink = CommandSink::new(shared, chan);
                    for i in 0..per_thread {
                        sink.emit((i % 3) as NodeId, &cmd(i));
                        if i % 7 == 0 {
                            sink.pump(); // timeout 0: exercises timeout flushes
                        }
                    }
                    sink.flush_all();
                })
            })
            .collect();
        for e in emitters {
            e.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let commands = drainer.join().unwrap();

        assert_eq!(commands as u64, 2 * per_thread);
        assert_eq!(shared.stats().commands, 2 * per_thread);
        for chan in 0..shared.channels() {
            let q = shared.channel(chan);
            assert_eq!(q.backlog(), 0);
            assert_eq!(q.free_buffers(), q.pool_capacity(), "channel {chan} leaked buffers");
            assert!(q.min_free_buffer_capacity().unwrap() >= buffer_size);
        }
    }

    /// An AggShared with combining enabled (window 16) and huge timeouts.
    fn combining_shared(buffer_size: usize) -> Arc<AggShared> {
        AggShared::new(3, 2, 4, buffer_size, 64, u64::MAX / 2, u64::MAX / 2, 0, 16)
    }

    fn add(token: u64, offset: u64, delta: i64) -> Command<'static> {
        Command::Add { token, array: 1, offset, delta, dest: 0 }
    }

    /// Drains every wire command from one channel.
    fn drain_cmds(shared: &AggShared, chan: usize) -> Vec<(u64, u64, i64, Vec<u64>)> {
        // (array, offset, delta, tokens) per AddN; plain Adds map to a
        // one-token entry so tests can compare the two modes.
        let mut out = Vec::new();
        while let Some((_, payload)) = shared.channel(chan).pop_filled() {
            for cmd in crate::command::CommandIter::new(&payload) {
                match cmd {
                    Command::AddN { array, offset, delta, tokens } => {
                        out.push((array, offset, delta, crate::command::tokens(tokens).collect()))
                    }
                    Command::Add { token, array, offset, delta, .. } => {
                        out.push((array, offset, delta, vec![token]))
                    }
                    other => panic!("unexpected command {other:?}"),
                }
            }
        }
        out
    }

    #[test]
    fn combining_merges_same_cell_adds_into_one_command() {
        let shared = combining_shared(1024);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for t in 0..5 {
            sink.emit(1, &add(100 + t, 8, 3));
        }
        sink.emit(1, &add(200, 16, -1)); // different cell
        sink.flush_all();
        let mut got = drain_cmds(&shared, 0);
        got.sort_by_key(|&(_, offset, _, _)| offset);
        assert_eq!(got.len(), 2, "two cells → two wire commands");
        assert_eq!(got[0], (1, 8, 15, vec![100, 101, 102, 103, 104]));
        assert_eq!(got[1], (1, 16, -1, vec![200]));
        let stats = shared.stats();
        assert_eq!(stats.combine_hits, 4, "4 of 5 same-cell adds absorbed");
        assert_eq!(stats.combine_flushes, 2);
        assert_eq!(stats.commands, 2, "only wire commands are counted");
    }

    #[test]
    fn combining_off_passes_adds_through() {
        let shared = test_shared(1024, 64); // window 0
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for t in 0..5 {
            sink.emit(1, &add(t, 8, 3));
        }
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 5);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g, &(1, 8, 3, vec![i as u64]));
        }
        assert_eq!(shared.stats().combine_hits, 0);
    }

    #[test]
    fn window_overflow_flushes_whole_table() {
        let shared = combining_shared(4096);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        // 17 distinct cells: the 17th insert overflows the 16-wide table.
        for i in 0..17u64 {
            sink.emit(1, &add(i, i * 8, 1));
        }
        assert_eq!(shared.stats().combine_flushes, 16);
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 17);
    }

    #[test]
    fn full_entry_flushes_alone_and_merging_continues() {
        // Buffer 64 → combine_cap = (64 - 29) / 8 = 4 tokens per entry.
        let shared = combining_shared(64);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        for t in 0..6 {
            sink.emit(1, &add(t, 8, 1));
        }
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 2);
        let total: i64 = got.iter().map(|g| g.2).sum();
        assert_eq!(total, 6);
        let mut tokens: Vec<u64> = got.iter().flat_map(|g| g.3.iter().copied()).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..6).collect::<Vec<_>>());
        assert!(got.iter().any(|g| g.3.len() == 4), "one entry flushed at the token cap");
    }

    #[test]
    fn blocking_adds_bypass_combining() {
        let shared = combining_shared(1024);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        // dest != 0: the caller wants the old value, must not merge.
        sink.emit(1, &Command::Add { token: 1, array: 1, offset: 8, delta: 1, dest: 0xBEEF });
        sink.emit(1, &Command::Add { token: 2, array: 1, offset: 8, delta: 1, dest: 0xBEEF });
        sink.flush_all();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got.len(), 2);
        assert_eq!(shared.stats().combine_hits, 0);
    }

    #[test]
    fn pump_flushes_aged_combining_table() {
        let shared = AggShared::new(2, 1, 4, 1024, 100, 1_000, 1_000, 0, 16);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        sink.emit(1, &add(9, 8, 2));
        sink.emit(1, &add(10, 8, 2));
        assert!(drain_cmds(&shared, 0).is_empty(), "still merging");
        // Each `tick` stands in for the communication server's sweep.
        std::thread::sleep(std::time::Duration::from_millis(2));
        shared.tick();
        sink.pump(); // table aged → AddN into a block
        std::thread::sleep(std::time::Duration::from_millis(2));
        shared.tick();
        sink.pump(); // block + queue age out
        std::thread::sleep(std::time::Duration::from_millis(2));
        shared.tick();
        sink.pump();
        let got = drain_cmds(&shared, 0);
        assert_eq!(got, vec![(1, 8, 4, vec![9, 10])]);
    }

    #[test]
    fn dry_pool_retries_are_gated_by_backoff() {
        // 64-byte buffers, 4 per channel; hold every popped payload so
        // the pool runs dry, then keep crossing the aggregation
        // threshold. With the coarse clock frozen, the first dry pop
        // opens the backoff gate and every further attempt must be
        // swallowed by the gate instead of hitting the pool.
        let shared = test_shared(64, 2);
        shared.tick();
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        let mut held = Vec::new();
        let mut i = 0u64;
        while shared.channel(0).free_buffers() > 0 {
            sink.emit(1, &ack(i));
            i += 1;
            while let Some((_, p)) = shared.channel(0).pop_filled() {
                held.push(p);
            }
        }
        let dry_pops_before = shared.metrics.pool_waits.sum();
        for _ in 0..50 {
            for _ in 0..8 {
                sink.emit(1, &ack(i));
                i += 1;
            }
        }
        let dry_pops = shared.metrics.pool_waits.sum() - dry_pops_before;
        let stats = shared.stats();
        assert!(dry_pops >= 1, "the pool must have been found dry");
        assert!(stats.pool_dry_waits > 0, "the gate must swallow retries");
        assert!(
            stats.pool_dry_waits > dry_pops,
            "gated skips ({}) must outnumber dry pops ({dry_pops}) while the clock is frozen",
            stats.pool_dry_waits,
        );
        // Release the buffers and advance the clock past the gate: the
        // next threshold crossing must fill a buffer again, and a
        // successful pop resets the backoff.
        drop(held);
        shared.tick();
        let filled_before = shared.metrics.buffers_filled.sum();
        for _ in 0..8 {
            sink.emit(1, &ack(i));
            i += 1;
        }
        assert!(
            shared.metrics.buffers_filled.sum() > filled_before,
            "aggregation must resume once buffers return and the gate expires"
        );
        assert_eq!(sink.pool_backoff_ns.get(), 0, "success resets the backoff");
        drain(&shared, 0);
    }
}
