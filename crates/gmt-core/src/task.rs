//! Task bookkeeping: the op table and its tokens, the parking protocol,
//! iteration blocks.
//!
//! A GMT *task* is a coroutine multiplexed on a worker. When a task issues
//! remote operations it registers how many completions it expects in its
//! [`TaskControl`], yields, and is re-readied by whichever helper processes
//! the final reply. Pending count and parked flag share one word: the
//! worker sets the flag with a compare-and-swap that fails once the count
//! is zero, and the completer that takes the count to zero clears the flag
//! in the same compare-and-swap, which makes it the one thread that
//! requeues the task — wakeups are exactly-once even when a reply races
//! the park, and a completer that does not wake never touches the task
//! after its decrement.
//!
//! Which task a reply belongs to travels as a *token*, an opaque `u64`
//! naming a slot of the node's [`OpTable`] and the generation the slot was
//! bound at. The table counts, per slot and peer, the operations still
//! awaiting a completion from that peer; a completion is applied only
//! after it took its unit out of that count, and the count is what a death
//! sweep error-completes. The table is also the one record of a live task:
//! a slot is a [`TaskControl`], reset at every binding. See
//! [`OpTable`] for the protocol and for whom a write into a block concerns.
//!
//! The thread that requeues a task pushes its block onto the owning
//! worker's [`ReadyList`], a list linked through the blocks themselves.

use crate::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Sentinel for "no node" in the failure/diagnostic fields.
const NO_NODE: usize = usize::MAX;

/// A task's control block, used for wakeups from any thread of the node.
/// It *is* the task's [`OpTable`] slot and lives as long as the table:
/// [`OpTable::bind`] resets it for each task the slot is bound to. Aligned
/// like the shm ring headers, so that a helper's compare-and-swap on one
/// task's `state` does not take the line the worker is running the
/// neighbouring task on.
#[repr(align(128))]
pub struct TaskControl {
    /// Completions still outstanding in the low 31 bits; [`PARKED`] while
    /// the task is suspended waiting for them to reach zero.
    state: AtomicU32,
    /// The next yield is a *blocking* yield (set by `wait_commands` right
    /// before suspending); distinguishes it from cooperative yields, which
    /// must simply requeue the task.
    park_intent: AtomicBool,
    /// The owning worker's ready list. A fact of the slot's chunk, like
    /// `slot`: set once, in [`OpTable::grow`].
    ready: Arc<ReadyList>,
    /// The op-table slot queued behind this block on `ready`
    /// ([`READY_END`] for none); meaningful only while the block is on the
    /// list.
    next: AtomicU32,
    /// The owning worker's task-table slot that binds this block.
    slot: usize,
    /// `generation << 32 | op-table slot`. The generation is odd exactly
    /// while a task is bound, and the word is then that task's token.
    /// Written by the owning worker only.
    token: AtomicU64,
    /// Operations completed with an error (dead peer) since the last
    /// `take_failure`.
    failed_ops: AtomicU32,
    /// Node the last failed operation was addressed to (`NO_NODE` = none).
    failed_node: AtomicUsize,
    /// Coarse-clock time (ns) the task parked at; 0 while not parked.
    /// Diagnostic only (stuck-task watchdog) — racy reads are fine.
    parked_since_ns: AtomicU64,
    /// Destination node of the most recently emitted command.
    last_op_dst: AtomicUsize,
    /// Opcode of the most recently emitted command.
    last_op_kind: AtomicU8,
    /// The watchdog already reported this park (one diagnostic per park).
    warned: AtomicBool,
    /// Per-task operation deadline (ns); 0 = use `Config::op_deadline_ns`.
    deadline_ns: AtomicU64,
    /// Token of the binding whose deadline the watchdog expired, 0 for
    /// none; consumed by `wait_commands`, which honours only its own.
    deadline_hit: AtomicU64,
    /// Reply-abandon state: [`REPLY_ACTIVE`], [`REPLY_ABANDONING`] or
    /// [`REPLY_ABANDONED`]. While not ACTIVE, helpers must skip writing
    /// reply data through task-provided destination pointers (the task's
    /// stack frame holding them may have been popped).
    abandoned: AtomicU8,
    /// Helpers currently inside a reply write (Dekker-style counter
    /// against `abandoned`, both SeqCst).
    reply_writers: AtomicU32,
}

const _: () = assert!(std::mem::size_of::<TaskControl>() == 128, "a block outgrew its line pair");

/// [`ReadyList`]'s "no block": an empty list, or the end of a chain.
const READY_END: u32 = u32::MAX;

/// A worker's ready list: the tasks whose wake-up landed since the worker
/// last looked, linked through their `TaskControl::next` by op-table
/// slot. Any thread of the node pushes (the one that cleared a task's
/// `PARKED` flag, once per park); only the owning worker takes, and it
/// takes the whole list at once.
///
/// A push is a Treiber compare-and-swap on `head`. With no pop of a single
/// entry there is no ABA: a push that read a head which was since taken
/// and pushed again links to the value the head holds when its
/// compare-and-swap lands, which is all its link has to be. Links are
/// indices into op-table chunks, which never move or free, so a block on
/// the list needs no allocation and no raw pointer. A block is on the list
/// at most once, because a task is woken at most once per park and parks
/// again only after the worker took it and ran it.
#[derive(Debug)]
pub struct ReadyList {
    /// Op-table slot of the most recent push, [`READY_END`] if empty.
    head: AtomicU32,
}

impl Default for ReadyList {
    fn default() -> Self {
        ReadyList { head: AtomicU32::new(READY_END) }
    }
}

impl ReadyList {
    /// Pushes `ctl`, the block of op-table slot `slot`. The Release of the
    /// landing compare-and-swap publishes the link and everything the
    /// waker wrote to the task before it (a reply's data, a failure).
    fn push(&self, ctl: &TaskControl, slot: u32) {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            ctl.next.store(head, Ordering::Relaxed);
            match self.head.compare_exchange_weak(head, slot, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => head = seen,
            }
        }
    }

    /// Whether no wake-up is waiting: one relaxed load.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == READY_END
    }

    /// Owning worker: takes every waiting block with one swap and appends
    /// their worker task-table slots to `out`, oldest wake first. Returns
    /// how many it appended.
    pub fn take_into(&self, ops: &OpTable, out: &mut VecDeque<usize>) -> usize {
        let mut at = self.head.swap(READY_END, Ordering::Acquire);
        let first = out.len();
        while at != READY_END {
            let ctl = ops.block(at);
            out.push_back(ctl.slot);
            at = ctl.next.load(Ordering::Relaxed);
        }
        // The chain runs newest first; the batch runs in wake order.
        let n = out.len() - first;
        for i in 0..n / 2 {
            out.swap(first + i, first + n - 1 - i);
        }
        n
    }
}

/// Flag bit of [`TaskControl::state`]; the rest is the pending count.
const PARKED: u32 = 1 << 31;

/// Reply-abandon states (see [`TaskControl::begin_reply_write`]).
const REPLY_ACTIVE: u8 = 0;
const REPLY_ABANDONING: u8 = 1;
const REPLY_ABANDONED: u8 = 2;

impl TaskControl {
    /// The block of the op-table slot `token` names, whose tasks run in
    /// `slot` of the worker draining `ready`; made by [`OpTable::grow`].
    fn new(ready: Arc<ReadyList>, slot: usize, token: u64) -> Self {
        TaskControl {
            state: AtomicU32::new(0),
            park_intent: AtomicBool::new(false),
            ready,
            next: AtomicU32::new(READY_END),
            slot,
            token: AtomicU64::new(token),
            failed_ops: AtomicU32::new(0),
            failed_node: AtomicUsize::new(NO_NODE),
            parked_since_ns: AtomicU64::new(0),
            last_op_dst: AtomicUsize::new(NO_NODE),
            last_op_kind: AtomicU8::new(0),
            warned: AtomicBool::new(false),
            deadline_ns: AtomicU64::new(0),
            deadline_hit: AtomicU64::new(0),
            abandoned: AtomicU8::new(REPLY_ACTIVE),
            reply_writers: AtomicU32::new(0),
        }
    }

    /// Owning worker, for [`OpTable::bind`]: makes the block a new task's
    /// by clearing what a retired task can leave in it. The rest is at
    /// rest already: `state` is zero (released at a pending count of zero,
    /// and a finished task is not parked), so no helper is registered in
    /// `reply_writers`; every yield consumed `park_intent`; every park
    /// re-arms `parked_since_ns` and `warned`; and a `deadline_hit` names
    /// the binding it is for.
    fn reset(&self) {
        self.failed_ops.store(0, Ordering::Relaxed);
        self.failed_node.store(NO_NODE, Ordering::Relaxed);
        self.note_op(NO_NODE, 0);
        self.deadline_ns.store(0, Ordering::Relaxed);
        self.abandoned.store(REPLY_ACTIVE, Ordering::Relaxed);
    }

    /// Sets (or clears, with 0) this task's per-operation deadline,
    /// overriding `Config::op_deadline_ns`.
    pub fn set_op_deadline(&self, ns: u64) {
        self.deadline_ns.store(ns, Ordering::Relaxed);
    }

    /// This task's per-operation deadline (0 = none set).
    pub fn op_deadline(&self) -> u64 {
        self.deadline_ns.load(Ordering::Relaxed)
    }

    /// Watchdog side: expires the deadline of the parked task it judged,
    /// which held `token` — marks the hit with that token and force-wakes
    /// the block's task if it is parked. Returns `true` if this call
    /// performed the wake (so the caller counts/logs exactly once per
    /// expiry). Safe against every park state: a task that is not parked
    /// is untouched, and whoever clears the flag is the one thread that
    /// requeues the task. The watchdog holds no [`Units`], so the block
    /// may have been bound again since it looked: the new task then wakes
    /// at worst once, finds a hit that is not addressed to it and parks
    /// again.
    pub fn expire_deadline(&self, token: u64) -> bool {
        self.deadline_hit.store(token, Ordering::Release);
        if self.state.fetch_and(!PARKED, Ordering::AcqRel) & PARKED != 0 {
            self.wake();
            true
        } else {
            false
        }
    }

    /// Task side, on wake: consumes a deadline expiry, `true` if it was
    /// addressed to this binding (one left for an earlier binding of the
    /// block is dropped).
    ///
    /// The load in front of the swap keeps the common wake — no deadline
    /// armed, the word 0 — free of a read-modify-write, and loses no hit
    /// the swap alone would have seen. A force-wake is ordered after its
    /// hit: the watchdog stores the hit (Release) before it clears
    /// `PARKED` and pushes the block, and the worker that took the block
    /// off its [`ReadyList`] (Acquire) runs this task, so the load sees that
    /// hit or a later write; only this task writes 0 here. A hit stored
    /// after a completer's wake may be missed by the load, but a swap could
    /// have run before that store as well: the hit stays in the word and
    /// the next call consumes it, exactly as it did with the swap alone.
    pub fn take_deadline_hit(&self) -> bool {
        if self.deadline_hit.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.deadline_hit.swap(0, Ordering::AcqRel) == self.token()
    }

    /// Requeues the task on its worker. Only for the thread that cleared
    /// [`PARKED`]: until the push lands the task cannot run, so it cannot
    /// retire either.
    fn wake(&self) {
        self.parked_since_ns.store(0, Ordering::Relaxed);
        // The token's low half is the block's op-table slot, whatever the
        // binding.
        self.ready.push(self, self.token() as u32);
    }

    /// Helper side, before writing reply data through a task-provided
    /// destination pointer: registers as a writer and checks the task has
    /// not abandoned its in-flight operations. If this returns `false`
    /// the write must be skipped (the stack frame holding the destination
    /// may be gone); [`Self::end_reply_write`] must be called either way.
    ///
    /// The SeqCst increment-then-load here pairs with the SeqCst
    /// store-then-load in [`Self::abandon_pending_writes`]: either the
    /// abandoner sees our registration and waits for us, or we see its
    /// ABANDONING store and skip — a write never races the abandon.
    pub fn begin_reply_write(&self) -> bool {
        self.reply_writers.fetch_add(1, Ordering::SeqCst);
        self.abandoned.load(Ordering::SeqCst) == REPLY_ACTIVE
    }

    /// Helper side: deregisters the writer from
    /// [`Self::begin_reply_write`].
    pub fn end_reply_write(&self) {
        self.reply_writers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Task side, after a deadline expiry: forbids helpers from writing
    /// reply data for the operations still in flight, then waits out any
    /// helper already mid-write. After this returns, no helper will touch
    /// task-provided destination pointers until [`Self::try_rearm`].
    pub fn abandon_pending_writes(&self) {
        self.abandoned.store(REPLY_ABANDONING, Ordering::SeqCst);
        while self.reply_writers.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        self.abandoned.store(REPLY_ABANDONED, Ordering::SeqCst);
    }

    /// Task side: re-enables reply writes once every abandoned operation
    /// has drained (`pending == 0`). Returns `true` if the task is (or
    /// now is) active.
    pub fn try_rearm(&self) -> bool {
        match self.abandoned.load(Ordering::SeqCst) {
            REPLY_ACTIVE => true,
            REPLY_ABANDONED if self.pending() == 0 => {
                self.abandoned.store(REPLY_ACTIVE, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Whether reply delivery is currently disarmed by a deadline abandon
    /// (stragglers from the abandoned batch have not drained yet). While
    /// disarmed, helpers skip writes through task-provided destination
    /// pointers, so new reply-carrying remote operations must not be
    /// issued on this task.
    pub fn reply_disarmed(&self) -> bool {
        self.abandoned.load(Ordering::SeqCst) != REPLY_ACTIVE
    }

    /// Task side, right before a blocking yield: the upcoming suspension
    /// waits on pending completions (as opposed to a cooperative yield).
    pub fn set_park_intent(&self) {
        self.park_intent.store(true, Ordering::Relaxed);
    }

    /// Worker side, after the task yielded: consumes the intent flag.
    /// (Task and worker share a thread, so relaxed ordering suffices.)
    pub fn take_park_intent(&self) -> bool {
        self.park_intent.swap(false, Ordering::Relaxed)
    }

    /// The token every command of the bound task carries.
    pub fn token(&self) -> u64 {
        self.token.load(Ordering::Relaxed)
    }

    /// Registers `n` more expected completions, for [`OpTable::register`]:
    /// what enters the count leaves it through [`Units`] only, which is the
    /// table's lifetime argument.
    fn add_pending(&self, n: u32) {
        self.state.fetch_add(n, Ordering::AcqRel);
    }

    /// Outstanding completions right now.
    pub fn pending(&self) -> u32 {
        self.state.load(Ordering::Acquire) & !PARKED
    }

    /// Completer side: `n` operations finished at once (vectorized ack
    /// path): one decrement, one wake check. Wakes the task if these were
    /// the last outstanding operations and the task is parked.
    ///
    /// The successful compare-and-swap is the completer's last access to
    /// the task unless it also cleared [`PARKED`], in which case the task
    /// waits for this thread's [`wake`](Self::wake). That is what lets a
    /// completer work through a plain reference ([`Units`]): the task
    /// cannot retire while its count includes this completer's operations,
    /// and nothing is touched after they left the count.
    fn ops_completed(&self, n: u32) {
        if n == 0 {
            return;
        }
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            debug_assert!(cur & !PARKED >= n, "ops_completed without matching add_pending");
            // The last completion of a parked task takes the flag with it.
            let wake = cur - n == PARKED;
            let next = if wake { 0 } else { cur - n };
            match self.state.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) if wake => return self.wake(),
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records that `n` of this task's operations failed against `node`
    /// (dead peer). Their completion follows when the [`Units`] that
    /// carried them drop; the task observes the failure at its next
    /// `wait_commands`.
    pub fn record_remote_failures(&self, node: NodeId, n: u32) {
        self.failed_node.store(node, Ordering::Relaxed);
        self.failed_ops.fetch_add(n, Ordering::Release);
    }

    /// Task side, on wake: consumes any accumulated failures, returning
    /// `(node, failed_ops)` of the most recent failing peer.
    pub fn take_failure(&self) -> Option<(NodeId, u32)> {
        let n = self.failed_ops.swap(0, Ordering::AcqRel);
        if n == 0 {
            return None;
        }
        let node = self.failed_node.swap(NO_NODE, Ordering::Relaxed);
        Some((if node == NO_NODE { 0 } else { node }, n))
    }

    /// Stamps the destination and opcode of the command being emitted
    /// (stuck-task diagnostics).
    pub fn note_op(&self, dst: NodeId, opcode: u8) {
        self.last_op_dst.store(dst, Ordering::Relaxed);
        self.last_op_kind.store(opcode, Ordering::Relaxed);
    }

    /// Worker side, right after a successful `prepare_park`: stamps the
    /// park time for the watchdog and re-arms its one-shot warning.
    pub fn note_parked(&self, now_ns: u64) {
        self.parked_since_ns.store(now_ns.max(1), Ordering::Relaxed);
        self.warned.store(false, Ordering::Relaxed);
    }

    /// Watchdog side: `(parked_since_ns, last_dst, last_opcode, pending)`
    /// if the task is currently parked waiting on completions.
    pub fn parked_info(&self) -> Option<(u64, Option<NodeId>, u8, u32)> {
        let state = self.state.load(Ordering::Acquire);
        if state & PARKED == 0 {
            return None;
        }
        let pending = state & !PARKED;
        let since = self.parked_since_ns.load(Ordering::Relaxed);
        if pending == 0 || since == 0 {
            return None;
        }
        let dst = self.last_op_dst.load(Ordering::Relaxed);
        let dst = if dst == NO_NODE { None } else { Some(dst) };
        Some((since, dst, self.last_op_kind.load(Ordering::Relaxed), pending))
    }

    /// Claims the one diagnostic report for the current park; `true` for
    /// exactly one caller per park.
    pub fn claim_warning(&self) -> bool {
        !self.warned.swap(true, Ordering::Relaxed)
    }

    /// Worker side, before suspending: sets the parked flag unless every
    /// operation already completed. Returns `true` if the task must
    /// actually suspend; `false` if it should be re-run immediately. The
    /// flag is never set on a zero count, so no completion can miss it.
    pub fn prepare_park(&self) -> bool {
        let mut cur = self.state.load(Ordering::Acquire);
        while cur & !PARKED != 0 {
            match self.state.compare_exchange_weak(
                cur,
                cur | PARKED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }
}

impl std::fmt::Debug for TaskControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskControl")
            .field("slot", &self.slot)
            .field("pending", &self.pending())
            .field("parked", &(self.state.load(Ordering::Relaxed) & PARKED != 0))
            .finish()
    }
}

/// Slots per chunk of an [`OpTable`]: what one worker claims at a time.
pub const CHUNK_SLOTS: usize = 256;

/// Chunks an [`OpTable`] can grow to (262 144 live tasks per node).
const MAX_CHUNKS: usize = 1024;

/// A generation-tagged word of the table: a token (`low` is the slot) or a
/// count word (`low` is the count).
const fn tagged(generation: u32, low: u32) -> u64 {
    (generation as u64) << 32 | low as u64
}

/// The generation a token or count word is tagged with.
const fn generation_of(tagged: u64) -> u32 {
    (tagged >> 32) as u32
}

/// What a completer holding a token of `generation` may swing the count
/// word `cur` to, and how many of the `n` units it asked for that takes:
/// `None` when the word belongs to another generation or holds nothing.
/// The one transition rule of the protocol — [`OpTable::acquit`] and
/// [`OpTable::drain_peer`] retry it, the model test enumerates it.
fn take(cur: u64, generation: u32, n: u32) -> Option<(u64, u32)> {
    let have = cur as u32;
    if generation_of(cur) != generation || have == 0 {
        return None;
    }
    let taken = n.min(have);
    Some((cur - taken as u64, taken))
}

/// `CHUNK_SLOTS` slots and their count words, `peers` per slot.
struct Chunk {
    slots: Box<[TaskControl]>,
    counts: Box<[AtomicU64]>,
}

/// The node's table of remote operations awaiting an application-level
/// completion (a reply or ack command), the home of every task's
/// completion token, and the one registry of its live tasks.
///
/// Transport-level tracking (the reliable link's unacked queue) cannot
/// error-complete an operation whose request was delivered and
/// transport-acked but whose application reply died with the peer — a
/// `Spawn` awaiting its remote iteration block, a `Get` whose answer was in
/// flight. So every operation is counted here when it is emitted and taken
/// out by the helper that processes its completion; whatever is still
/// counted toward a peer when its death is confirmed fails with
/// `RemoteDead`.
///
/// # Layout
///
/// A slot is a [`TaskControl`]. A worker [claims](Self::grow) the table a
/// chunk at a time, which is where the chunk's blocks are made, wired to
/// that worker's ready list and task-table slots for good. It
/// [binds](Self::bind) each task it spawns to a slot — reset the block,
/// bump the generation — and [releases](Self::release) the slot when the
/// task retires, which is the bump alone; the generation is odd exactly
/// while bound. The task's token is `generation << 32 | slot` for life and
/// travels in every command it emits; peers echo it, nothing else reads
/// it. Per slot and peer one word holds `generation << 32 | count`:
///
/// * [`register`](Self::register) — the owning worker, one `fetch_add`
///   (a store the first time a binding addresses that peer, which is what
///   moves the word to the binding's generation);
/// * [`acquit`](Self::acquit) — any helper: a compare-and-swap that takes
///   units only while the word's generation is the token's and the count
///   is positive;
/// * [`drain_peer`](Self::drain_peer) — the communication server: the
///   same compare-and-swap, for everything a word holds.
///
/// Nobody but the owner writes a word whose count is zero, and the owner
/// writes only words of its own slots, so the owner's load-then-store
/// cannot lose an update.
///
/// # Whom a write into a block concerns
///
/// Chunks are never freed, so anyone may dereference a slot's block for as
/// long as the table lives; the generation decides whom a write concerns.
///
/// A thread holding [`Units`] it took out of one of the slot's words
/// writes to the binding that registered them. Every counted operation is
/// also in the task's pending count (`register` adds to both, and only a
/// dropping `Units` subtracts), so while units are held the pending count
/// is positive; a slot is released only at a pending count of zero, and a
/// task that retires with operations pending keeps its slot (and its
/// stack) forever. The block is therefore not reset under a holder of
/// units, and `ops_completed` touches nothing after its decrement unless
/// it owns the task's wake-up, which the task cannot outrun.
///
/// A token of an earlier binding meets either its own generation with a
/// count of zero (release requires it) or a later generation: it is
/// rejected by comparison and takes no units. Generations are 32 bits and
/// a binding uses two values, so a reply would have to outlive 2³¹ re-uses
/// of its slot to be mistaken for a current one; that bound is accepted.
///
/// The watchdog (walking `bound`) holds no units, so the binding it judged
/// may be gone when it writes. What it writes is closed the same way, by
/// comparison: a deadline hit carries the token it was judged on and the
/// task that consumes it honours only its own
/// ([`TaskControl::take_deadline_hit`]); a force-wake that lands on a
/// later binding costs that task one spurious wake-up, after which it
/// re-checks what it waits for and parks again; a restarted park clock or
/// a claimed warning is diagnostic, and the next park re-arms both.
pub struct OpTable {
    peers: usize,
    chunks: Box<[OnceLock<Chunk>]>,
    /// Chunks handed out so far.
    claimed: AtomicUsize,
}

/// Operations taken out of an [`OpTable`] count and not yet completed: the
/// permission to write to their task. Dropping completes them.
pub struct Units<'t> {
    ctl: &'t TaskControl,
    n: u32,
}

impl Units<'_> {
    /// How many operations these are.
    pub fn count(&self) -> u32 {
        self.n
    }
}

impl std::ops::Deref for Units<'_> {
    type Target = TaskControl;

    fn deref(&self) -> &TaskControl {
        self.ctl
    }
}

impl Drop for Units<'_> {
    fn drop(&mut self) {
        self.ctl.ops_completed(self.n);
    }
}

impl OpTable {
    /// A table for a node with `peers` nodes to address (itself included:
    /// a local parFor block counts toward the spawning node).
    pub fn new(peers: usize) -> Self {
        OpTable {
            peers,
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            claimed: AtomicUsize::new(0),
        }
    }

    /// Claims a fresh chunk for the calling worker and returns its first
    /// slot; the chunk's `CHUNK_SLOTS` slots are that worker's to bind. A
    /// task bound to the chunk's `i`th slot is resumed through `ready` as
    /// the worker's task-table slot `first_local + i`.
    ///
    /// # Panics
    ///
    /// Panics when the node already has `MAX_CHUNKS * CHUNK_SLOTS` tasks.
    pub fn grow(&self, ready: &Arc<ReadyList>, first_local: usize) -> u32 {
        let index = self.claimed.fetch_add(1, Ordering::Relaxed);
        assert!(index < MAX_CHUNKS, "op table full: {} live tasks", index * CHUNK_SLOTS);
        let first = (index * CHUNK_SLOTS) as u32;
        let chunk = Chunk {
            slots: (0..CHUNK_SLOTS)
                .map(|i| {
                    TaskControl::new(
                        Arc::clone(ready),
                        first_local + i,
                        tagged(0, first + i as u32),
                    )
                })
                .collect(),
            counts: (0..CHUNK_SLOTS * self.peers).map(|_| AtomicU64::new(0)).collect(),
        };
        assert!(self.chunks[index].set(chunk).is_ok(), "chunk indices are handed out once");
        first
    }

    /// Chunks claimed so far (they are never given back).
    pub fn claimed_chunks(&self) -> usize {
        self.claimed.load(Ordering::Relaxed)
    }

    /// The chunk holding `slot` and the slot's index in it; `None` for a
    /// slot no chunk was ever claimed for (a token this node did not mint).
    fn locate(&self, slot: u32) -> Option<(&Chunk, usize)> {
        let chunk = self.chunks.get(slot as usize / CHUNK_SLOTS)?.get()?;
        Some((chunk, slot as usize % CHUNK_SLOTS))
    }

    /// The block of `slot`, which a chunk was claimed for.
    fn block(&self, slot: u32) -> &TaskControl {
        let (chunk, index) = self.locate(slot).expect("a slot of a claimed chunk");
        &chunk.slots[index]
    }

    /// The count word of `token`'s slot toward `peer`, with the slot's
    /// block.
    fn count_word(&self, token: u64, peer: NodeId) -> Option<(&AtomicU64, &TaskControl)> {
        let (chunk, index) = self.locate(token as u32)?;
        Some((chunk.counts.get(index * self.peers + peer)?, &chunk.slots[index]))
    }

    /// Owning worker: binds a new task to the free `slot` (of a chunk this
    /// worker claimed) and returns its control block, reset.
    pub fn bind(&self, slot: u32) -> &TaskControl {
        let ctl = self.block(slot);
        let free = ctl.token();
        assert!(generation_of(free) & 1 == 0, "binding a slot that is already bound");
        ctl.reset();
        ctl.token.store(free.wrapping_add(1 << 32), Ordering::Release);
        ctl
    }

    /// Owning worker: frees the slot `ctl` is bound to, at retirement.
    /// Every token of the binding is dead from here on.
    ///
    /// # Panics
    ///
    /// Panics if the task still has operations pending — such a task keeps
    /// its slot, as it keeps its stack.
    pub fn release(&self, ctl: &TaskControl) {
        assert_eq!(ctl.pending(), 0, "releasing the slot of a task with operations in flight");
        let token = ctl.token();
        assert!(generation_of(token) & 1 == 1, "released twice");
        ctl.token.store(token.wrapping_add(1 << 32), Ordering::Release);
    }

    /// The block of `token`'s slot while `token` is its current binding.
    pub(crate) fn current(&self, token: u64) -> Option<&TaskControl> {
        let (chunk, index) = self.locate(token as u32)?;
        let ctl = &chunk.slots[index];
        (ctl.token.load(Ordering::Acquire) == token).then_some(ctl)
    }

    /// Owning worker: counts one operation the task `ctl` is about to emit
    /// toward `dst`, in the task's pending count and in the table.
    ///
    /// # Panics
    ///
    /// Panics if `ctl` is not a bound block of this table.
    #[inline]
    pub fn register(&self, ctl: &TaskControl, dst: NodeId) {
        let token = ctl.token();
        let generation = generation_of(token);
        let (count, bound) = self.count_word(token, dst).expect("registering a bound task");
        assert!(std::ptr::eq(bound, ctl) && generation & 1 == 1, "task is not bound here");
        ctl.add_pending(1);
        if generation_of(count.load(Ordering::Relaxed)) == generation {
            count.fetch_add(1, Ordering::Release);
        } else {
            // First operation of this binding toward `dst`: the word still
            // carries an earlier generation, so its count is zero and
            // nobody else writes it.
            count.store(tagged(generation, 1), Ordering::Release);
        }
    }

    /// Takes up to `n` operations of `token` out of the count toward `src`
    /// on receipt of their completion. `None` means none were there: the
    /// death sweep error-completed them first, or the token outlived its
    /// task — the caller must neither complete anything nor apply the
    /// reply's data. Fewer [`Units`] than `n` likewise: the sweep got the
    /// rest.
    #[inline]
    pub fn acquit(&self, token: u64, src: NodeId, n: u32) -> Option<Units<'_>> {
        let (count, ctl) = self.count_word(token, src)?;
        Self::take_units(count, ctl, generation_of(token), n)
    }

    /// Retries [`take`] on `count` until it lands or has nothing to take.
    /// The Acquire of the landing compare-and-swap pairs with `register`'s
    /// Release, which follows `bind`'s reset of `ctl`.
    fn take_units<'t>(
        count: &AtomicU64,
        ctl: &'t TaskControl,
        generation: u32,
        n: u32,
    ) -> Option<Units<'t>> {
        let mut cur = count.load(Ordering::Relaxed);
        loop {
            let (next, taken) = take(cur, generation, n)?;
            match count.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return Some(Units { ctl, n: taken }),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Takes every operation still counted toward `peer`, handing each
    /// task's share to `fail` (the death sweep). Operations registered
    /// while the walk runs may be missed; the caller re-drains whenever it
    /// drops a buffer bound for the dead peer.
    pub fn drain_peer(&self, peer: NodeId, mut fail: impl FnMut(Units<'_>)) {
        for chunk in self.chunks.iter().filter_map(OnceLock::get) {
            for (index, ctl) in chunk.slots.iter().enumerate() {
                let count = &chunk.counts[index * self.peers + peer];
                let generation = generation_of(count.load(Ordering::Relaxed));
                if let Some(units) = Self::take_units(count, ctl, generation, u32::MAX) {
                    fail(units);
                }
            }
        }
    }

    /// The slots bound to a task right now, each with the token it was
    /// seen bound under (the watchdog's walk).
    pub(crate) fn bound(&self) -> impl Iterator<Item = (u64, &TaskControl)> {
        let slots = self.chunks.iter().filter_map(OnceLock::get).flat_map(|c| c.slots.iter());
        slots.filter_map(|ctl| {
            let token = ctl.token.load(Ordering::Acquire);
            (generation_of(token) & 1 == 1).then_some((token, ctl))
        })
    }

    /// Slots currently bound to a task. Exact once the node is quiescent;
    /// zero after an orderly shutdown.
    pub fn bound_slots(&self) -> usize {
        self.bound().count()
    }
}

/// Type-erased body of a parallel loop, shared by every node executing it.
///
/// The body takes the chunk of iterations its task claimed as a range —
/// the paper's `func(start_it, num_it, args)` — and is called once per
/// task; the per-iteration entry points wrap their closure in a loop.
///
/// The real GMT ships a raw function pointer plus an argument buffer
/// between ranks of one SPMD binary; in-process we ship a raw
/// `Arc<ParForBody>` pointer, which is the same trust model.
pub struct ParForBody {
    pub f: Box<BodyFn>,
}

/// The erased closure type behind [`ParForBody::f`].
pub type BodyFn = dyn Fn(&crate::api::TaskCtx<'_>, std::ops::Range<u64>, &[u8]) + Send + Sync;

/// The de-facto layout of a `*mut dyn Trait` fat pointer. Not guaranteed
/// by the language, but load-bearing across the entire Rust ecosystem and
/// checked by `closure_roundtrips_through_the_cross_process_wire_form`.
#[repr(C)]
struct RawDyn {
    data: *mut u8,
    vtable: *mut u8,
}

/// Anchor for position-independent vtable offsets. Every process running
/// the *same executable* maps `.text` and the vtables at the same offset
/// from its (per-process, ASLR-randomized) load base, so
/// `vtable - wire_anchor` is a process-independent constant while
/// `vtable` itself is not.
#[inline(never)]
fn wire_anchor() {}

fn anchor_addr() -> u64 {
    wire_anchor as fn() as usize as u64
}

impl ParForBody {
    /// Leaks one strong reference as a wire pointer for a Spawn command.
    pub fn to_wire(body: &Arc<ParForBody>) -> u64 {
        Arc::into_raw(Arc::clone(body)) as u64
    }

    /// Reclaims a wire pointer minted by [`ParForBody::to_wire`].
    ///
    /// # Safety
    ///
    /// Must be called exactly once per minted pointer.
    pub unsafe fn from_wire(ptr: u64) -> Arc<ParForBody> {
        unsafe { Arc::from_raw(ptr as *const ParForBody) }
    }

    /// Cross-process wire form, used when the peer is in **another OS
    /// process** of the same SPMD binary (`gmt-launch`): the body travels
    /// as its vtable's anchor-relative offset (returned) plus its
    /// captured bytes packed in front of the user args
    /// (`[size: u32][align: u32][captures][args]`). This is exactly the
    /// C runtime's "function pointer + argument buffer" contract with the
    /// same obligation on the program: captures must be plain data
    /// (handles, indices, scalars — anything `memcpy`-safe). An `Arc` or
    /// `&T` capture would smuggle a process-local pointer and is UB, just
    /// as it would be in the original.
    pub fn to_wire_bytes(body: &Arc<ParForBody>, args: &[u8]) -> (u64, Vec<u8>) {
        let f: &BodyFn = &*body.f;
        let size = std::mem::size_of_val(f);
        let align = std::mem::align_of_val(f);
        // Safety: RawDyn matches the fat-pointer layout (tested below).
        let raw: RawDyn = unsafe { std::mem::transmute(f as *const BodyFn) };
        let off = (raw.vtable as u64).wrapping_sub(anchor_addr());
        let mut packed = Vec::with_capacity(8 + size + args.len());
        packed.extend_from_slice(&(size as u32).to_le_bytes());
        packed.extend_from_slice(&(align as u32).to_le_bytes());
        // Safety: `raw.data` points at the live closure, `size` bytes.
        packed.extend_from_slice(unsafe { std::slice::from_raw_parts(raw.data, size) });
        packed.extend_from_slice(args);
        (off, packed)
    }

    /// Rebuilds a body shipped by [`ParForBody::to_wire_bytes`] in this
    /// process, returning it plus the user args that followed the
    /// captures. `None` on a malformed packing (truncated, bad align).
    ///
    /// # Safety
    ///
    /// `off` and `packed` must come from `to_wire_bytes` in a process
    /// running this same executable image.
    pub unsafe fn from_wire_bytes(off: u64, packed: &[u8]) -> Option<(Arc<ParForBody>, Arc<[u8]>)> {
        if packed.len() < 8 {
            return None;
        }
        let size = u32::from_le_bytes(packed[0..4].try_into().unwrap()) as usize;
        let align = u32::from_le_bytes(packed[4..8].try_into().unwrap()) as usize;
        if !align.is_power_of_two() || packed.len() < 8 + size {
            return None;
        }
        let captures = &packed[8..8 + size];
        let args: Arc<[u8]> = Arc::from(&packed[8 + size..]);
        let data = if size == 0 {
            // Zero-sized closure: any well-aligned dangling pointer.
            align as *mut u8
        } else {
            let layout = std::alloc::Layout::from_size_align(size, align).ok()?;
            // Safety: non-zero-sized layout; the box built below frees it
            // with the identical layout (recomputed from the vtable).
            let p = unsafe { std::alloc::alloc(layout) };
            if p.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            unsafe { std::ptr::copy_nonoverlapping(captures.as_ptr(), p, size) };
            p
        };
        let vtable = anchor_addr().wrapping_add(off) as *mut u8;
        // Safety: same executable image, so the local vtable at this
        // offset describes the same closure type; RawDyn layout as above.
        let fat: *mut BodyFn = unsafe { std::mem::transmute(RawDyn { data, vtable }) };
        let f: Box<BodyFn> = unsafe { Box::from_raw(fat) };
        Some((Arc::new(ParForBody { f }), args))
    }
}

/// Where an iteration block reports completion.
#[derive(Debug, Clone, Copy)]
pub struct ParentRef {
    pub node: NodeId,
    /// Completion token of the parent task (one per Spawn command).
    pub token: u64,
}

/// An *iteration block* (§IV-D, Figure 4): a set of loop iterations one
/// node must execute, peeled chunk by chunk by idle workers.
pub struct Itb {
    pub body: Arc<ParForBody>,
    pub args: Arc<[u8]>,
    /// Next unclaimed iteration.
    next: AtomicU64,
    /// One past the last iteration of this block.
    end: u64,
    /// Iterations per spawned task.
    chunk: u32,
    /// Iterations not yet completed.
    remaining: AtomicU64,
    pub parent: ParentRef,
}

impl Itb {
    pub fn new(
        body: Arc<ParForBody>,
        args: Arc<[u8]>,
        start: u64,
        count: u64,
        chunk: u32,
        parent: ParentRef,
    ) -> Arc<Self> {
        assert!(chunk > 0, "chunk size must be at least 1");
        assert!(count > 0, "empty iteration blocks must not be created");
        Arc::new(Itb {
            body,
            args,
            next: AtomicU64::new(start),
            end: start + count,
            chunk,
            remaining: AtomicU64::new(count),
            parent,
        })
    }

    /// Claims the next chunk of iterations; `None` when exhausted.
    pub fn claim(&self) -> Option<std::ops::Range<u64>> {
        loop {
            let cur = self.next.load(Ordering::Relaxed);
            if cur >= self.end {
                return None;
            }
            let hi = (cur + self.chunk as u64).min(self.end);
            if self.next.compare_exchange_weak(cur, hi, Ordering::AcqRel, Ordering::Relaxed).is_ok()
            {
                return Some(cur..hi);
            }
        }
    }

    /// `true` while unclaimed iterations remain.
    pub fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Acquire) < self.end
    }

    /// Reports `n` iterations finished; returns `true` exactly once, when
    /// the whole block is done (caller then notifies the parent).
    pub fn complete(&self, n: u64) -> bool {
        let prev = self.remaining.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "over-completed iteration block");
        prev == n
    }
}

impl std::fmt::Debug for Itb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Itb")
            .field("next", &self.next.load(Ordering::Relaxed))
            .field("end", &self.end)
            .field("chunk", &self.chunk)
            .field("remaining", &self.remaining.load(Ordering::Relaxed))
            .finish()
    }
}

/// A root task submitted from outside the runtime
/// (the "task zero" of §IV-D).
pub struct RootTask {
    pub f: Box<dyn FnOnce(&crate::api::TaskCtx<'_>) + Send + 'static>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-peer table with one claimed chunk, whose first slot (returned)
    /// wakes through `q` as local slot 7.
    fn table() -> (OpTable, u32, Arc<ReadyList>) {
        let table = OpTable::new(2);
        let q = Arc::new(ReadyList::default());
        let slot = table.grow(&q, 7);
        (table, slot, q)
    }

    /// The local slots `q` holds, in the order the worker would run them.
    fn woken(table: &OpTable, q: &ReadyList) -> Vec<usize> {
        let mut out = VecDeque::new();
        let n = q.take_into(table, &mut out);
        assert_eq!(n, out.len());
        out.into()
    }

    #[test]
    fn completion_without_park_does_not_wake() {
        let (table, slot, q) = table();
        let c = table.bind(slot);
        c.add_pending(1);
        c.ops_completed(1);
        assert!(woken(&table, &q).is_empty());
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn park_then_complete_wakes_once() {
        let (table, slot, q) = table();
        let c = table.bind(slot);
        c.add_pending(2);
        assert!(c.prepare_park());
        c.ops_completed(1);
        assert!(woken(&table, &q).is_empty(), "woke before last completion");
        c.ops_completed(1);
        assert_eq!(woken(&table, &q), [7]);
        assert!(woken(&table, &q).is_empty());
    }

    #[test]
    fn complete_before_park_skips_suspension() {
        let (table, slot, q) = table();
        let c = table.bind(slot);
        c.add_pending(1);
        c.ops_completed(1);
        assert!(!c.prepare_park(), "should not park with nothing pending");
        assert!(woken(&table, &q).is_empty());
    }

    #[test]
    fn token_roundtrip_completes() {
        let (table, slot, q) = table();
        let c = table.bind(slot);
        for _ in 0..3 {
            table.register(c, 1);
        }
        assert!(c.prepare_park());
        for _ in 0..3 {
            assert_eq!(table.acquit(c.token(), 1, 1).expect("registered").count(), 1);
        }
        assert_eq!(woken(&table, &q), [7]);
        assert_eq!(c.pending(), 0);
        assert!(table.acquit(c.token(), 1, 1).is_none(), "nothing left to take");
        assert_eq!(table.bound_slots(), 1);
        assert!(table.current(c.token()).is_some_and(|cur| std::ptr::eq(cur, c)));
        let token = c.token();
        table.release(c);
        assert_eq!(table.bound_slots(), 0);
        assert!(table.current(token).is_none(), "a released token names nobody");
    }

    #[test]
    fn batched_token_completion_matches_singles() {
        let (table, slot, q) = table();
        let c = table.bind(slot);
        for _ in 0..5 {
            table.register(c, 1);
        }
        assert!(c.prepare_park());
        drop(table.acquit(c.token(), 1, 3));
        assert!(woken(&table, &q).is_empty(), "woke with completions still pending");
        assert_eq!(c.pending(), 2);
        // Asking for more than is counted takes what is there.
        assert_eq!(table.acquit(c.token(), 1, 9).expect("two left").count(), 2);
        assert_eq!(woken(&table, &q), [7]);
        assert_eq!(c.pending(), 0);
        assert!(table.acquit(c.token(), 0, 1).is_none(), "nothing was sent to peer 0");
        assert!(table.acquit(0xdead_0000_beef, 1, 1).is_none(), "unknown slots are refused");
        table.release(c);
    }

    #[test]
    fn error_completion_wakes_and_reports_failure() {
        let (table, slot, q) = table();
        let c = table.bind(slot);
        table.register(c, 0);
        table.register(c, 1);
        table.register(c, 1);
        assert!(c.prepare_park());
        drop(table.acquit(c.token(), 0, 1));
        assert!(woken(&table, &q).is_empty());
        // Peer 1 dies: the sweep takes both operations toward it at once.
        let mut failed = 0;
        table.drain_peer(1, |units| {
            failed += units.count();
            units.record_remote_failures(1, units.count());
        });
        assert_eq!(failed, 2);
        assert_eq!(woken(&table, &q), [7]);
        assert_eq!(c.take_failure(), Some((1, 2)));
        assert_eq!(c.take_failure(), None, "failure must be consumed");
        // Their replies, had they been in flight, now find nothing.
        assert!(table.acquit(c.token(), 1, 2).is_none());
        table.release(c);
    }

    /// The hole the pointer tokens had: a task retires, the next one
    /// re-uses its identity and addresses the same peer, and a reply to
    /// the first arrives late.
    #[test]
    fn late_reply_to_a_reused_slot_acquits_nothing() {
        let (table, slot, _q) = table();
        let a = table.bind(slot).token();
        table.register(table.current(a).expect("A is bound"), 1);
        table.drain_peer(1, |units| drop(units)); // peer 1 declared dead (falsely, say)
        table.release(table.current(a).expect("A is bound"));
        let b = table.bind(slot);
        assert_eq!(b.token() as u32, a as u32, "same slot");
        assert_ne!(b.token(), a, "another generation");
        table.register(b, 1);
        assert!(table.acquit(a, 1, 1).is_none(), "A's reply must not settle B's op");
        assert_eq!(b.pending(), 1);
        assert_eq!(table.acquit(b.token(), 1, 1).expect("B's unit is still there").count(), 1);
        table.release(b);
    }

    /// The block is re-used across bindings: the second task starts from a
    /// fresh block, and what the watchdog addressed to the first (it holds
    /// no units, so it may act after the first retired) leaves
    /// the second where it was — parked again on its own operation.
    #[test]
    fn a_rebound_block_is_fresh_and_ignores_hits_on_its_predecessor() {
        let (table, slot, q) = table();
        let a = table.bind(slot);
        let a_token = a.token();
        a.set_op_deadline(5);
        a.note_op(1, 2);
        table.register(a, 1);
        assert!(a.prepare_park());
        table.drain_peer(1, |units| units.record_remote_failures(1, units.count()));
        assert_eq!(woken(&table, &q), [7]);
        a.abandon_pending_writes();
        table.release(a); // retires without looking at its failure

        let b = table.bind(slot);
        assert_eq!((b.op_deadline(), b.take_failure()), (0, None));
        assert!(!b.reply_disarmed());
        table.register(b, 1);
        assert!(b.prepare_park());
        b.note_parked(100);
        assert_eq!(b.parked_info(), Some((100, None, 0, 1)), "no command of A's is remembered");
        // A's token names nobody any more.
        assert!(table.current(a_token).is_none());
        // The watchdog judged A and acts now: B wakes once, finds a hit
        // that is not its own, and parks again.
        assert!(b.expire_deadline(a_token));
        assert_eq!(woken(&table, &q), [7]);
        assert!(!b.take_deadline_hit(), "a hit on A is not B's deadline");
        assert!(b.prepare_park());
        // B's own hit is honoured.
        assert!(b.expire_deadline(b.token()));
        assert_eq!(woken(&table, &q), [7]);
        assert!(b.take_deadline_hit());
        drop(table.acquit(b.token(), 1, 1));
        table.release(b);
    }

    #[test]
    fn parked_info_reports_only_while_parked() {
        let (table, slot, _q) = table();
        let c = table.bind(slot);
        assert!(c.parked_info().is_none());
        c.add_pending(1);
        c.note_op(4, 2);
        assert!(c.prepare_park());
        c.note_parked(1_000);
        let (since, dst, kind, pending) = c.parked_info().expect("parked");
        assert_eq!((since, dst, kind, pending), (1_000, Some(4), 2, 1));
        assert!(c.claim_warning());
        assert!(!c.claim_warning(), "one diagnostic per park");
        c.ops_completed(1);
        assert!(c.parked_info().is_none());
    }

    #[test]
    fn racing_completers_wake_exactly_once() {
        for _ in 0..200 {
            let (table, slot, q) = table();
            let c = table.bind(slot);
            c.add_pending(4);
            assert!(c.prepare_park());
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| c.ops_completed(1));
                }
            });
            assert_eq!(woken(&table, &q), [7]);
            assert!(woken(&table, &q).is_empty(), "duplicate wakeup");
        }
    }

    /// Parks every slot of a chunk bound in `table`, each on one
    /// operation, and returns the blocks in slot order.
    fn park_chunk(table: &OpTable, first: u32) -> Vec<&TaskControl> {
        (0..CHUNK_SLOTS as u32)
            .map(|i| {
                let c = table.bind(first + i);
                table.register(c, 1);
                assert!(c.prepare_park());
                c
            })
            .collect()
    }

    #[test]
    fn one_take_runs_its_batch_in_wake_order() {
        let (table, first, q) = table();
        let blocks = park_chunk(&table, first);
        assert!(q.is_empty());
        for i in [3, 0, 9, 4] {
            blocks[i].ops_completed(1);
        }
        assert!(!q.is_empty());
        let mut out = VecDeque::from([99]);
        assert_eq!(q.take_into(&table, &mut out), 4);
        assert_eq!(out, [99, 10, 7, 16, 11], "appended behind what was there, oldest wake first");
        assert!(q.is_empty());
        blocks[1].ops_completed(1);
        assert_eq!(woken(&table, &q), [8], "a take leaves the list empty for the next batch");
    }

    /// Completer threads wake distinct parked tasks while the owner takes
    /// batches: every wake arrives exactly once.
    #[test]
    fn concurrent_wakes_arrive_exactly_once() {
        const COMPLETERS: usize = 4;
        for _ in 0..20 {
            let (table, first, q) = table();
            let blocks = park_chunk(&table, first);
            let finished = AtomicUsize::new(0);
            let mut seen = VecDeque::new();
            std::thread::scope(|s| {
                for k in 0..COMPLETERS {
                    let (blocks, finished) = (&blocks, &finished);
                    s.spawn(move || {
                        for c in blocks.iter().skip(k).step_by(COMPLETERS) {
                            c.ops_completed(1);
                        }
                        finished.fetch_add(1, Ordering::Release);
                    });
                }
                // Take while they push; the take after the last completer
                // finished is the final one.
                loop {
                    let last = finished.load(Ordering::Acquire) == COMPLETERS;
                    q.take_into(&table, &mut seen);
                    if last {
                        break;
                    }
                    std::hint::spin_loop();
                }
            });
            let mut seen = Vec::from(seen);
            seen.sort_unstable();
            assert_eq!(seen, (7..7 + CHUNK_SLOTS).collect::<Vec<_>>(), "lost or repeated wakes");
        }
    }

    #[test]
    fn itb_claims_cover_range_without_overlap() {
        let body = Arc::new(ParForBody { f: Box::new(|_, _, _| {}) });
        let itb = Itb::new(body, Arc::from(&[][..]), 10, 25, 4, ParentRef { node: 0, token: 0 });
        let mut seen = Vec::new();
        while let Some(r) = itb.claim() {
            assert!(r.end - r.start <= 4);
            seen.extend(r);
        }
        seen.sort_unstable();
        assert_eq!(seen, (10..35).collect::<Vec<_>>());
        assert!(!itb.has_unclaimed());
    }

    #[test]
    fn itb_completion_fires_exactly_once() {
        let body = Arc::new(ParForBody { f: Box::new(|_, _, _| {}) });
        let itb = Itb::new(body, Arc::from(&[][..]), 0, 10, 3, ParentRef { node: 0, token: 0 });
        assert!(!itb.complete(3));
        assert!(!itb.complete(3));
        assert!(!itb.complete(3));
        assert!(itb.complete(1));
    }

    #[test]
    fn concurrent_itb_claims_are_disjoint() {
        let body = Arc::new(ParForBody { f: Box::new(|_, _, _| {}) });
        let itb = Itb::new(body, Arc::from(&[][..]), 0, 10_000, 7, ParentRef { node: 0, token: 0 });
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let itb = Arc::clone(&itb);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(r) = itb.claim() {
                        mine.extend(r);
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn deadline_expiry_force_wakes_a_parked_task_once() {
        let (table, slot, q) = table();
        let c = table.bind(slot);
        c.set_op_deadline(500);
        assert_eq!(c.op_deadline(), 500);
        c.add_pending(1);
        assert!(c.prepare_park());
        c.note_parked(100);
        assert!(c.expire_deadline(c.token()), "expiry performs the wake");
        assert_eq!(woken(&table, &q), [7]);
        assert!(!c.expire_deadline(c.token()), "task no longer parked");
        assert!(woken(&table, &q).is_empty(), "no duplicate wakeup");
        assert!(c.take_deadline_hit());
        assert!(!c.take_deadline_hit(), "hit is consumed");
        // The straggler completion finds the task awake and queues nothing.
        c.ops_completed(1);
        assert_eq!(c.pending(), 0);
        assert!(woken(&table, &q).is_empty());
    }

    #[test]
    fn expire_deadline_wakes_only_parked_tasks() {
        // The watchdog judged another binding of the block (generation 3,
        // not this task's 1): the wake still lands, the hit is not this
        // task's to honour.
        let (table, slot, q) = table();
        let c = table.bind(slot);
        let judged = tagged(3, 0);
        assert!(!c.expire_deadline(judged), "unparked task is untouched");
        assert!(woken(&table, &q).is_empty());
        c.add_pending(1);
        assert!(c.prepare_park());
        c.note_parked(100);
        assert!(c.expire_deadline(judged), "parked task is woken");
        assert_eq!(woken(&table, &q), [7]);
        assert!(!c.expire_deadline(judged), "second wake is a no-op");
        assert!(woken(&table, &q).is_empty(), "no duplicate wakeup");
        assert!(!c.take_deadline_hit(), "another binding's hit is not a deadline expiry");
        // The straggler completion finds the task awake and queues nothing.
        c.ops_completed(1);
        assert_eq!(c.pending(), 0);
        assert!(woken(&table, &q).is_empty());
    }

    #[test]
    fn abandoned_tasks_refuse_reply_writes_until_rearmed() {
        let (table, slot, _q) = table();
        let c = table.bind(slot);
        assert!(c.begin_reply_write(), "active task accepts writes");
        c.end_reply_write();
        c.add_pending(1);
        c.abandon_pending_writes();
        assert!(!c.begin_reply_write(), "abandoned task refuses writes");
        c.end_reply_write();
        assert!(!c.try_rearm(), "cannot rearm with operations in flight");
        c.ops_completed(1);
        assert!(c.try_rearm(), "rearms once drained");
        assert!(c.begin_reply_write());
        c.end_reply_write();
    }

    #[test]
    fn abandon_waits_for_in_flight_reply_writers() {
        for _ in 0..100 {
            let (table, slot, _q) = table();
            let c = table.bind(slot);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _ok = c.begin_reply_write();
                    // Simulated reply write window.
                    std::hint::black_box(&c);
                    c.end_reply_write();
                });
                c.abandon_pending_writes();
            });
            // After abandon returned, no helper was mid-write: the writer
            // either finished first (ok) or saw the abandon (skipped).
            assert_eq!(c.reply_writers.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn parfor_body_wire_roundtrip() {
        let called = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&called);
        let body = Arc::new(ParForBody {
            f: Box::new(move |_, range, _| {
                c2.fetch_add(range.start, Ordering::Relaxed);
            }),
        });
        let wire = ParForBody::to_wire(&body);
        let back = unsafe { ParForBody::from_wire(wire) };
        assert_eq!(Arc::strong_count(&body), 2);
        drop(back);
        assert_eq!(Arc::strong_count(&body), 1);
    }

    /// The cross-process wire form round-trips within one process (the
    /// strongest check available in a unit test — gmt-launch's CI job
    /// covers the genuinely-two-processes case): captured plain data is
    /// carried in the packed bytes, user args are recovered exactly, and
    /// this also validates the `RawDyn` fat-pointer layout assumption.
    #[test]
    fn closure_roundtrips_through_the_cross_process_wire_form() {
        // Captures: 24 bytes of plain data, deliberately not zero-sized.
        let (a, b, c) = (0x1111_2222_3333_4444u64, 7u64, 13u64);
        let body = Arc::new(ParForBody {
            f: Box::new(move |_, range, args| {
                assert_eq!((a, b, c), (0x1111_2222_3333_4444, 7, 13));
                assert_eq!(args, b"user-args");
                assert_eq!(range, 42..58);
            }),
        });
        let (off, packed) = ParForBody::to_wire_bytes(&body, b"user-args");
        assert_eq!(packed[0..4], 24u32.to_le_bytes(), "captures travel by value");
        let (back, args) = unsafe { ParForBody::from_wire_bytes(off, &packed) }.unwrap();
        assert_eq!(&args[..], b"user-args");
        // Calling the rebuilt closure needs a TaskCtx, which needs a full
        // runtime; integration tests cover the call. Here, exercise its
        // drop glue (frees the copied captures with the right layout).
        drop(back);
        drop(args);

        // Zero-sized closure: no captures, args only.
        let zst = Arc::new(ParForBody { f: Box::new(|_, _, _| {}) });
        let (off, packed) = ParForBody::to_wire_bytes(&zst, b"");
        assert_eq!(packed.len(), 8, "ZST closure packs to header only");
        let (_back, args) = unsafe { ParForBody::from_wire_bytes(off, &packed) }.unwrap();
        assert!(args.is_empty());

        // Malformed packings are rejected, not dereferenced.
        assert!(unsafe { ParForBody::from_wire_bytes(off, &[1, 2, 3]) }.is_none());
        let mut bad_align = packed.clone();
        bad_align[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(unsafe { ParForBody::from_wire_bytes(off, &bad_align) }.is_none());
        let mut truncated = packed;
        truncated[0..4].copy_from_slice(&64u32.to_le_bytes());
        assert!(unsafe { ParForBody::from_wire_bytes(off, &truncated) }.is_none());
    }

    /// The op-table protocol on one slot, in every interleaving.
    ///
    /// Each actor is the real operation cut at its atomic accesses — one
    /// step, one access to a shared word — around the same [`take`] rule:
    /// the owning worker (`bind` as the reset of the embedded block with
    /// its generation bump; `register` as add-pending, load, write; the
    /// park, wake and deadline-hit check of `wait_commands`; `release`
    /// once nothing is pending; bind again), two helpers working through
    /// their replies (`acquit` as load, compare-and-swap, `ops_completed`,
    /// the wake's push), the communication server's one `drain_peer` of
    /// peer 1, and its watchdog, which holds no units: it judges a parked
    /// binding once and then, whatever became of that binding, writes its
    /// hit and force-wakes.
    /// The search visits every reachable state once.
    mod model {
        use super::super::{generation_of, tagged, take};
        use std::collections::HashSet;

        /// Generations of the slot's first and second binding.
        const GENERATION: [u32; 2] = [1, 3];

        /// What the owner emits, `(binding, peer)` each; it waits for its
        /// operations and releases the slot where the binding changes and
        /// after the last one.
        const EMITS: [(usize, usize); 4] = [(0, 1), (0, 0), (0, 1), (1, 1)];

        /// One reply a helper processes: `n` operations of `binding`
        /// answered by `peer`. It can arrive once those were emitted; a
        /// `late` one is a duplicate that arrives after its binding's slot
        /// was released, and must find nothing.
        struct Reply {
            binding: usize,
            peer: usize,
            n: u32,
            late: bool,
        }

        /// The two helpers' inboxes, in processing order.
        const REPLIES: [&[Reply]; 2] = [
            &[
                Reply { binding: 0, peer: 1, n: 2, late: false },
                Reply { binding: 0, peer: 1, n: 1, late: true },
            ],
            &[
                Reply { binding: 0, peer: 0, n: 1, late: false },
                Reply { binding: 1, peer: 1, n: 1, late: false },
            ],
        ];

        /// The owner's states carry the index of its next emit.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Owner {
            Bind(usize),
            AddPending(usize),
            Load(usize),
            Write(usize, u64),
            /// `prepare_park`, at each turn of `wait_commands`' loop.
            Park(usize),
            /// Suspended until its entry shows up in the ready list.
            Parked(usize),
            /// Woken: `take_deadline_hit`, then around the loop again.
            TakeHit(usize),
            Release(usize),
            Done,
        }

        /// `acquit` and `drain_peer` alike: load the count, swing it,
        /// complete what was taken, requeue the task if that woke it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Taker {
            Load,
            Cas(u64),
            Complete(u32),
            Push,
            Done,
        }

        impl Taker {
            /// Between taking units and its last access to their task.
            fn holds_units(self) -> bool {
                matches!(self, Taker::Complete(_) | Taker::Push)
            }
        }

        /// `sweep_stuck_tasks` on this slot, once: judge, then
        /// `expire_deadline`'s three accesses (store the hit, clear the
        /// parked flag, requeue). From `Hit` on it carries the generation
        /// it judged.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Watchdog {
            Judge,
            Hit(u32),
            Wake(u32),
            Push,
            Done,
        }

        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct World {
            /// The slot's count words, one per peer.
            counts: [u64; 2],
            /// The block: pending count and parked flag (one word in the
            /// code), the generation in its token word, and the generation
            /// a deadline hit is addressed to (0 for none).
            pending: u32,
            parked: bool,
            generation: u32,
            hit: u32,
            /// Entries for this slot in the worker's ready list.
            ready: u32,
            owner: Owner,
            /// Each helper's position in its inbox and in that reply.
            helpers: [(usize, Taker); 2],
            sweeper: Taker,
            watchdog: Watchdog,
            // Ghost state: read by the checks, never by an actor's choice
            // of what to write.
            emitted: [[u32; 2]; 2],
            taken: [u32; 2],
            drained: u32,
            released: bool,
            /// The generation the watchdog judged (0 before it did).
            judged: u32,
        }

        impl World {
            /// One step of `load; loop { take; compare_exchange }` on the
            /// count toward `peer`, then the completion. `generation` is
            /// the token's; the sweeper passes `None` and uses the word's.
            fn take_step(
                &mut self,
                at: Taker,
                peer: usize,
                generation: Option<u32>,
                n: u32,
            ) -> (Taker, u32) {
                match at {
                    Taker::Load => (Taker::Cas(self.counts[peer]), 0),
                    Taker::Cas(cur) => {
                        let generation = generation.unwrap_or(generation_of(cur));
                        match take(cur, generation, n) {
                            None => (Taker::Done, 0),
                            Some(_) if self.counts[peer] != cur => {
                                (Taker::Cas(self.counts[peer]), 0)
                            }
                            Some((next, taken)) => {
                                self.counts[peer] = next;
                                let binding = GENERATION.iter().position(|&g| g == generation);
                                self.taken[binding.expect("a generation that was bound")] += taken;
                                (Taker::Complete(taken), taken)
                            }
                        }
                    }
                    Taker::Complete(taken) => {
                        self.pending =
                            self.pending.checked_sub(taken).expect("completed more than pending");
                        // The last completion of a parked task takes the
                        // flag with it, in the same compare-and-swap.
                        if self.pending == 0 && self.parked {
                            self.parked = false;
                            (Taker::Push, 0)
                        } else {
                            (Taker::Done, 0)
                        }
                    }
                    Taker::Push => {
                        self.ready += 1;
                        (Taker::Done, 0)
                    }
                    Taker::Done => unreachable!("finished actors do not step"),
                }
            }

            /// Whether the block may be reset or handed on: nobody is
            /// between taking units of it and their last access to it, nor
            /// owes it a wake-up.
            fn unobserved(&self) -> bool {
                let takers = self.helpers.iter().map(|h| h.1).chain([self.sweeper]);
                !takers.into_iter().any(Taker::holds_units) && self.watchdog != Watchdog::Push
            }

            /// The state after `actor` takes its next step; `None` while
            /// it is finished or has to wait.
            fn step(&self, actor: usize) -> Option<World> {
                let mut w = self.clone();
                match actor {
                    0 => match self.owner {
                        Owner::Bind(i) => {
                            assert!(self.unobserved(), "reset under a holder of units: {self:?}");
                            (w.pending, w.parked, w.hit) = (0, false, 0);
                            w.generation += 1;
                            assert_eq!(w.generation, GENERATION[EMITS[i].0]);
                            w.owner = Owner::AddPending(i);
                        }
                        Owner::AddPending(i) => {
                            w.pending += 1;
                            w.owner = Owner::Load(i);
                        }
                        Owner::Load(i) => w.owner = Owner::Write(i, self.counts[EMITS[i].1]),
                        Owner::Write(i, cur) => {
                            let (binding, peer) = EMITS[i];
                            if generation_of(cur) == GENERATION[binding] {
                                w.counts[peer] += 1;
                            } else {
                                w.counts[peer] = tagged(GENERATION[binding], 1);
                            }
                            w.emitted[binding][peer] += 1;
                            let same_binding = EMITS.get(i + 1).is_some_and(|e| e.0 == binding);
                            w.owner = if same_binding {
                                Owner::AddPending(i + 1)
                            } else {
                                Owner::Park(i + 1)
                            };
                        }
                        Owner::Park(next) if self.pending == 0 => w.owner = Owner::Release(next),
                        Owner::Park(next) => {
                            w.parked = true;
                            w.owner = Owner::Parked(next);
                        }
                        Owner::Parked(_) if self.ready == 0 => return None,
                        Owner::Parked(next) => {
                            w.ready -= 1;
                            w.owner = Owner::TakeHit(next);
                        }
                        Owner::TakeHit(next) => {
                            w.hit = 0;
                            // `take_deadline_hit`: honoured only if it is
                            // addressed to this binding.
                            if self.hit == self.generation {
                                assert_eq!(
                                    self.judged, self.generation,
                                    "honoured a hit judged on another binding: {self:?}"
                                );
                            }
                            w.owner = Owner::Park(next);
                        }
                        Owner::Release(next) => {
                            assert_eq!(self.pending, 0, "released with operations pending");
                            assert!(
                                self.counts.iter().all(|&c| c as u32 == 0),
                                "released with operations still counted: {self:?}"
                            );
                            assert!(self.unobserved(), "released under a holder of units");
                            w.released = true;
                            w.generation += 1;
                            w.owner =
                                if next < EMITS.len() { Owner::Bind(next) } else { Owner::Done };
                        }
                        Owner::Done => return None,
                    },
                    1 | 2 => {
                        let (index, at) = self.helpers[actor - 1];
                        let reply = REPLIES[actor - 1].get(index)?;
                        let arrived = if reply.late {
                            self.released
                        } else {
                            self.emitted[reply.binding][reply.peer] >= reply.n
                        };
                        if !arrived {
                            return None;
                        }
                        let generation = GENERATION[reply.binding];
                        let (at, taken) = w.take_step(at, reply.peer, Some(generation), reply.n);
                        assert!(
                            !reply.late || taken == 0,
                            "a released binding's token took a unit"
                        );
                        w.helpers[actor - 1] =
                            if at == Taker::Done { (index + 1, Taker::Load) } else { (index, at) };
                    }
                    3 => {
                        if self.sweeper == Taker::Done {
                            return None;
                        }
                        let (at, taken) = w.take_step(self.sweeper, 1, None, u32::MAX);
                        w.drained += taken;
                        w.sweeper = at;
                    }
                    // The watchdog.
                    _ => match self.watchdog {
                        Watchdog::Judge => {
                            let stuck = self.generation & 1 == 1 && self.parked;
                            if !stuck {
                                return None;
                            }
                            w.judged = self.generation;
                            w.watchdog = Watchdog::Hit(self.generation);
                        }
                        Watchdog::Hit(judged) => {
                            w.hit = judged;
                            w.watchdog = Watchdog::Wake(judged);
                        }
                        Watchdog::Wake(_) => {
                            w.watchdog = if self.parked { Watchdog::Push } else { Watchdog::Done };
                            w.parked = false;
                        }
                        Watchdog::Push => {
                            w.ready += 1;
                            w.watchdog = Watchdog::Done;
                        }
                        Watchdog::Done => return None,
                    },
                }
                Some(w)
            }
        }

        #[test]
        fn every_interleaving_conserves_units() {
            let start = World {
                counts: [0; 2],
                pending: 0,
                parked: false,
                generation: 0,
                hit: 0,
                ready: 0,
                owner: Owner::Bind(0),
                helpers: [(0, Taker::Load); 2],
                sweeper: Taker::Load,
                watchdog: Watchdog::Judge,
                emitted: [[0; 2]; 2],
                taken: [0; 2],
                drained: 0,
                released: false,
                judged: 0,
            };
            let mut seen = HashSet::new();
            let mut drained = HashSet::new();
            let mut late_met_rebound_count = HashSet::new();
            let mut hit_met_its_binding = HashSet::new();
            let mut wake_met_its_binding = HashSet::new();
            let mut stack = vec![start];
            while let Some(w) = stack.pop() {
                if seen.contains(&w) {
                    continue;
                }
                if let (1, Taker::Cas(cur)) = w.helpers[0] {
                    late_met_rebound_count.insert(generation_of(cur) == GENERATION[1]);
                }
                if let (Owner::TakeHit(_), true) = (w.owner, w.hit != 0) {
                    hit_met_its_binding.insert(w.hit == w.generation);
                }
                if let (Watchdog::Wake(judged), true) = (w.watchdog, w.parked) {
                    wake_met_its_binding.insert(judged == w.generation);
                }
                for binding in 0..2 {
                    let emitted: u32 = w.emitted[binding].iter().sum();
                    assert!(w.taken[binding] <= emitted, "a unit was taken twice: {w:?}");
                }
                assert!(w.ready + w.parked as u32 <= 1, "a park was woken twice: {w:?}");
                let next: Vec<World> = (0..5).filter_map(|actor| w.step(actor)).collect();
                if next.is_empty() {
                    // Nobody can move: everybody must be finished (the
                    // watchdog may never have seen a park), with every
                    // emitted operation acquitted or drained and the last
                    // binding neither parked nor queued.
                    assert_eq!(w.owner, Owner::Done, "stuck: {w:?}");
                    assert_eq!(w.sweeper, Taker::Done, "stuck: {w:?}");
                    for (helper, inbox) in w.helpers.iter().zip(REPLIES) {
                        assert_eq!(helper.0, inbox.len(), "stuck: {w:?}");
                    }
                    assert!(matches!(w.watchdog, Watchdog::Judge | Watchdog::Done), "stuck: {w:?}");
                    assert_eq!(w.taken, [3, 1], "operations lost: {w:?}");
                    assert_eq!((w.pending, w.parked, w.ready), (0, false, 0));
                    drained.insert(w.drained);
                }
                stack.extend(next);
                seen.insert(w);
            }
            // The sweep ran before, between and after the registers.
            assert_eq!(drained, HashSet::from([0, 1, 2]));
            // The duplicate met its own generation's empty count, and the
            // next binding's live one (the ABA case).
            assert_eq!(late_met_rebound_count, HashSet::from([false, true]));
            // The watchdog's hit and its force-wake each landed on the
            // binding it judged, and on the one bound after it.
            assert_eq!(hit_met_its_binding, HashSet::from([false, true]));
            assert_eq!(wake_met_its_binding, HashSet::from([false, true]));
        }
    }

    /// [`ReadyList`] push and take, and the worker's sleep on an empty
    /// list, in every interleaving.
    ///
    /// Two wakers each push two blocks — `push` cut at its accesses: load
    /// the head, link the block to it, compare-and-swap — and then, their
    /// batch done, wake the worker (`Sleeper::wake`: load its flag, and
    /// on a raised one clear it and leave an unpark token). The owning
    /// worker takes the whole list with one swap and walks it a link at a
    /// time; a take that found nothing goes to sleep the way
    /// `idle::Sleeper::sleep` does: raise the flag, recheck the head,
    /// park until a token. Every block must be taken once, each waker's
    /// blocks in push order, and the worker must never sleep for good
    /// with a block in the list. The accesses are sequentially
    /// consistent here; the fences that make them so on the hardware are
    /// what `idle::tests::no_wakeup_is_lost` checks.
    mod ready_model {
        use std::collections::HashSet;

        const END: u8 = u8::MAX;

        /// The blocks each waker pushes, in order.
        const PUSHES: [[u8; 2]; 2] = [[0, 1], [2, 3]];

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Waker {
            /// About to push its `i`-th block.
            Load(usize),
            /// Linking its `i`-th block to the head it saw.
            Link(usize, u8),
            /// Swinging the head from the one it saw to its block.
            Cas(usize, u8),
            /// Both pushed: look at the worker's flag.
            Wake,
            Done,
        }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Owner {
            /// Swap the head out.
            Take,
            /// Walk the taken chain from this block.
            Walk(u8),
            /// Found nothing: raise the flag.
            Raise,
            /// Flag up: look at the head once more.
            Recheck,
            /// Parked until a token.
            Parked,
        }

        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct World {
            head: u8,
            next: [u8; 4],
            wakers: [Waker; 2],
            owner: Owner,
            asleep: bool,
            token: bool,
            /// The blocks of the current take, newest first, and
            /// everything taken so far in run order.
            batch: Vec<u8>,
            taken: Vec<u8>,
        }

        impl World {
            fn step(&self, actor: usize) -> Option<World> {
                let mut w = self.clone();
                if actor < 2 {
                    let push = PUSHES[actor];
                    w.wakers[actor] = match self.wakers[actor] {
                        Waker::Load(i) => Waker::Link(i, self.head),
                        Waker::Link(i, seen) => {
                            w.next[push[i] as usize] = seen;
                            Waker::Cas(i, seen)
                        }
                        Waker::Cas(i, seen) if self.head == seen => {
                            w.head = push[i];
                            if i + 1 < push.len() {
                                Waker::Load(i + 1)
                            } else {
                                Waker::Wake
                            }
                        }
                        // A failed compare-and-swap returns what it saw.
                        Waker::Cas(i, _) => Waker::Link(i, self.head),
                        Waker::Wake => {
                            if self.asleep {
                                w.asleep = false;
                                w.token = true;
                            }
                            Waker::Done
                        }
                        Waker::Done => return None,
                    };
                    return Some(w);
                }
                if self.taken.len() == 4 {
                    return None;
                }
                w.owner = match self.owner {
                    Owner::Take => {
                        w.head = END;
                        match self.head {
                            END => Owner::Raise,
                            first => Owner::Walk(first),
                        }
                    }
                    Owner::Walk(at) => {
                        w.batch.push(at);
                        match self.next[at as usize] {
                            END => {
                                // `take_into` runs the batch in wake order.
                                w.taken.extend(w.batch.drain(..).rev());
                                Owner::Take
                            }
                            next => Owner::Walk(next),
                        }
                    }
                    Owner::Raise => {
                        w.asleep = true;
                        Owner::Recheck
                    }
                    Owner::Recheck if self.head != END => {
                        w.asleep = false;
                        Owner::Take
                    }
                    Owner::Recheck => Owner::Parked,
                    Owner::Parked if !self.token => return None,
                    Owner::Parked => {
                        (w.token, w.asleep) = (false, false);
                        Owner::Take
                    }
                };
                Some(w)
            }
        }

        #[test]
        fn every_interleaving_takes_each_block_once_and_sleeps_only_on_empty() {
            let start = World {
                head: END,
                next: [END; 4],
                wakers: [Waker::Load(0); 2],
                owner: Owner::Take,
                asleep: false,
                token: false,
                batch: Vec::new(),
                taken: Vec::new(),
            };
            let mut seen = HashSet::new();
            let mut finals = HashSet::new();
            let mut slept = false;
            let mut stack = vec![start];
            while let Some(w) = stack.pop() {
                if !seen.insert(w.clone()) {
                    continue;
                }
                slept |= w.owner == Owner::Parked;
                let distinct: HashSet<_> = w.taken.iter().collect();
                assert_eq!(distinct.len(), w.taken.len(), "a block was taken twice: {w:?}");
                for push in PUSHES {
                    let at = |b: u8| w.taken.iter().position(|&t| t == b);
                    if let (Some(a), Some(b)) = (at(push[0]), at(push[1])) {
                        assert!(a < b, "a waker's blocks ran out of push order: {w:?}");
                    }
                }
                let next: Vec<World> = (0..3).filter_map(|actor| w.step(actor)).collect();
                if next.is_empty() {
                    // Nobody can move: the worker took everything, or it
                    // sleeps on a list that stays empty — a lost wakeup
                    // if anything is left in it.
                    assert!(w.wakers.iter().all(|&k| k == Waker::Done), "stuck: {w:?}");
                    assert_eq!(w.taken.len(), 4, "the worker sleeps with blocks queued: {w:?}");
                    finals.insert(w.taken.clone());
                }
                stack.extend(next);
            }
            assert!(slept, "the worker never slept, so no sleep was checked");
            // Both wakers' batches interleave every way a take can split.
            assert!(finals.contains(&vec![0, 1, 2, 3]) && finals.contains(&vec![2, 3, 0, 1]));
            assert!(finals.contains(&vec![0, 2, 1, 3]));
        }
    }
}
