//! The GMT application programming interface (the paper's Table I).
//!
//! Every GMT primitive is a method on [`TaskCtx`], the context handed to
//! each task. Blocking primitives suspend the *task* (never the worker
//! thread): the task registers its expected completions, yields, and is
//! re-readied when the last reply arrives. Non-blocking primitives return
//! immediately; [`TaskCtx::wait_commands`] drains them (per §III-D it
//! waits for *all* pending operations of the task, not a specific one).
//!
//! Every remote operation leaves through one private `emit`: it counts the
//! operation toward its destination in the node's
//! [`OpTable`](crate::task::OpTable) and stamps the command with the
//! task's token, the one value a task mints in its life. No lock is taken
//! and nothing is hashed between a primitive and the thread-private
//! command block its command lands in (§IV-C).
//!
//! | Paper primitive | Here |
//! |---|---|
//! | `gmt_alloc` / `gmt_free` | [`TaskCtx::alloc`] / [`TaskCtx::free`] |
//! | `gmt_put` / `gmt_get` | [`TaskCtx::put`] / [`TaskCtx::get`] |
//! | `gmt_putNB` / `gmt_getNB` | [`TaskCtx::put_nb`] / [`TaskCtx::get_nb`] |
//! | `gmt_putValue(NB)` / `gmt_getValue` | [`TaskCtx::put_value`]`(_nb)` / [`TaskCtx::get_value`] |
//! | `gmt_atomicAdd` / `gmt_atomicCAS` | [`TaskCtx::atomic_add`] / [`TaskCtx::atomic_cas`] |
//! | `gmt_atomicAddNB` / `gmt_atomicCASNB` | [`TaskCtx::atomic_fetch_add_nb`] (result dropped: [`TaskCtx::atomic_add_nb`]) / [`TaskCtx::atomic_cas_nb`] |
//! | `gmt_waitCommands` | [`TaskCtx::wait_commands`] |
//! | `gmt_parFor(func(start_it, num_it, args))` | [`TaskCtx::parfor_range`]; per iteration: [`TaskCtx::parfor`] / [`TaskCtx::parfor_args`] |
//!
//! Every blocking primitive is its non-blocking form followed by
//! `wait_commands`. The forms whose reply writes through a caller
//! pointer (`get_nb`, `atomic_fetch_add_nb`, `atomic_cas_nb`) are
//! `unsafe`; [`TaskCtx::gather`], [`TaskCtx::gather_ranges`],
//! [`TaskCtx::scatter`] and [`TaskCtx::atomic_cas_wave`] are their safe
//! face: many operations in flight, one wait.
//!
//! On a degraded cluster (peers confirmed dead by the failure detector)
//! blocking primitives return `Err(GmtError::RemoteDead)` instead of
//! hanging, and the parallel loops skip the dead at spawn.
//! [`TaskCtx::set_op_deadline`] bounds every wait of a task where no death
//! will be confirmed in time: behind a silent partition shorter than
//! `Config::peer_death_timeout_ns`, or toward a peer that is heard but
//! never answers.

use crate::command::Command;
use crate::error::GmtError;
use crate::handle::{Distribution, GmtArray, Layout};
use crate::runtime::NodeShared;
use crate::task::{BodyFn, Itb, ParForBody, ParentRef, TaskControl};
use crate::tls;
use crate::value::Scalar;
use crate::NodeId;
use gmt_context::Yielder;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Floor on how long a *poisoned* task (one whose deadline abandoned
/// operations that may never complete) waits before failing fast, used
/// when no explicit deadline is armed any more. Generous enough for any
/// straggler that still can complete, small enough that degraded-mode
/// callers observe bounded latency.
const POISONED_WAIT_FLOOR_NS: u64 = 100_000_000;

/// Task-creation locality policy (§III-C): where the tasks of a parallel
/// loop are spawned, mirroring the data-distribution policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpawnPolicy {
    /// Spread iterations across all nodes (`GMT_SPAWN_PARTITION`).
    Partition,
    /// Keep all iterations on the calling node (`GMT_SPAWN_LOCAL`).
    Local,
    /// Spread iterations across all *other* nodes (`GMT_SPAWN_REMOTE`);
    /// degenerates to `Local` on a 1-node cluster.
    Remote,
}

/// Execution context of a GMT task.
///
/// Obtained from [`NodeHandle::run`](crate::runtime::NodeHandle::run) or
/// inside a [`TaskCtx::parfor`] body; borrows the worker-side state of the
/// current task, so it cannot be sent anywhere — exactly like the
/// implicit task context of the C API.
pub struct TaskCtx<'a> {
    node: &'a Arc<NodeShared>,
    ctl: &'a TaskControl,
    yielder: &'a Yielder,
}

impl<'a> TaskCtx<'a> {
    /// The context of the running task that was bound as `token`: a
    /// coroutine owns its node, not a borrow of it, so the block is looked
    /// up from inside.
    pub(crate) fn new(node: &'a Arc<NodeShared>, token: u64, yielder: &'a Yielder) -> Self {
        let ctl = node.ops.current(token).expect("a task stays bound while its coroutine runs");
        TaskCtx { node, ctl, yielder }
    }

    /// Id of the node this task is executing on.
    pub fn node_id(&self) -> NodeId {
        self.node.node_id
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.node.nodes
    }

    fn layout(&self, arr: &GmtArray) -> Layout {
        arr.layout(self.node.nodes)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `nbytes` of zero-initialized global memory with the given
    /// distribution (the paper's `gmt_alloc`). Blocks until every node has
    /// installed its segment.
    ///
    /// Nodes already confirmed dead are skipped entirely: they get no
    /// message, own no blocks (the layout maps blocks over the survivors
    /// — see [`Layout::degraded`](crate::handle::Layout::degraded)), and
    /// the array is collectively installed on every survivor. Arrays
    /// allocated *after* the failure detector converges are therefore
    /// fully reachable and kernels over them complete exactly.
    ///
    /// # Panics
    ///
    /// Panics if a peer is declared dead *mid*-allocation: a global array
    /// with segments installed on some survivors but not others has no
    /// usable semantics, matching the C API's no-error-surface
    /// `gmt_alloc`.
    pub fn alloc(&self, nbytes: u64, dist: Distribution) -> GmtArray {
        let me = self.node.node_id;
        // Stride-minted: 1 in-process, the cluster size when each node is
        // its own process (disjoint interleaved sequences, still dense).
        let id = self
            .node
            .cluster
            .next_alloc_id
            .fetch_add(self.node.cluster.alloc_stride, Ordering::Relaxed);
        // One snapshot of the dead set places the array AND picks the
        // recipients, so the layout and the collective agree even if a
        // death lands mid-allocation.
        let dead_mask = self.node.dead_mask();
        let arr = GmtArray::new(id, nbytes, dist, me, self.node.nodes, dead_mask);
        let layout = self.layout(&arr);
        self.node.memory.alloc(id, &layout, me);
        for dst in 0..self.node.nodes {
            if dst == me || dead_mask >> dst & 1 == 1 {
                continue;
            }
            let token = self.ctl.token();
            self.emit(
                dst,
                &Command::Alloc {
                    token,
                    id,
                    nbytes,
                    dist: dist.to_u8(),
                    origin: me as u32,
                    dead_mask,
                },
            );
        }
        self.wait_commands().expect("gmt_alloc: peer died during collective allocation");
        arr
    }

    /// Releases a global array on every node (the paper's `gmt_free`).
    ///
    /// A dead peer's segment is unreachable anyway, so its failure is
    /// swallowed: freeing is best-effort on a degraded cluster. Swallowed
    /// failures are *counted* in the `free.remote_dead_swallowed` metric
    /// and logged once per dead peer, so the degradation stays observable
    /// without poisoning teardown paths.
    pub fn free(&self, arr: GmtArray) {
        let me = self.node.node_id;
        self.node.memory.free(arr.id);
        for dst in 0..self.node.nodes {
            if dst == me {
                continue;
            }
            if self.node.peer_is_dead(dst) {
                self.swallow_dead_free(dst, 1);
                continue;
            }
            let token = self.ctl.token();
            self.emit(dst, &Command::Free { token, id: arr.id });
        }
        if let Err(GmtError::RemoteDead { node, failed_ops }) = self.wait_commands() {
            self.swallow_dead_free(node, failed_ops as u64);
        }
    }

    /// Accounts for a `gmt_free` toward a dead peer: bumps the
    /// `free.remote_dead_swallowed` counter and warns once per dead peer.
    fn swallow_dead_free(&self, dst: NodeId, ops: u64) {
        // Workers have no dedicated counter shard; the cells are atomic,
        // so shard 0 is as correct as any.
        self.node.metrics.free_remote_dead_swallowed.add(0, ops);
        if !self.node.free_warned[dst].swap(true, Ordering::Relaxed) {
            eprintln!(
                "[gmt] node {}: gmt_free toward dead peer {dst} swallowed (its segments died \
                 with it; counted in free.remote_dead_swallowed, further frees are silent)",
                self.node.node_id
            );
        }
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Non-blocking put: copies `data` into the array starting at byte
    /// `offset` (the paper's `gmt_putNB`). `data` is captured into the
    /// command immediately, so the buffer can be reused on return; use
    /// [`TaskCtx::wait_commands`] to await completion.
    pub fn put_nb(&self, arr: &GmtArray, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let layout = self.layout(arr);
        let me = self.node.node_id;
        let max = self.node.config.max_inline_payload() as u64;
        for ext in layout.extents(offset, data.len() as u64) {
            let base = (ext.global_offset - offset) as usize;
            let slice = &data[base..base + ext.len as usize];
            if ext.node == me {
                self.node.memory.with(arr.id, |s| s.write(ext.segment_offset as usize, slice));
                continue;
            }
            // Split oversized transfers so each command fits one buffer.
            let mut done = 0u64;
            while done < ext.len {
                let take = (ext.len - done).min(max) as usize;
                let token = self.ctl.token();
                self.emit(
                    ext.node,
                    &Command::Put {
                        token,
                        array: arr.id,
                        offset: ext.segment_offset + done,
                        data: &slice[done as usize..done as usize + take],
                    },
                );
                done += take as u64;
            }
        }
    }

    /// Blocking put (the paper's `gmt_put`): on return the data is
    /// globally visible, or the owning peer was declared dead.
    pub fn put(&self, arr: &GmtArray, offset: u64, data: &[u8]) -> Result<(), GmtError> {
        self.put_nb(arr, offset, data);
        self.wait_commands()
    }

    /// Blocking get (the paper's `gmt_get`): fills `dest` from the array
    /// starting at byte `offset`. On `Err`, the bytes owned by the dead
    /// peer are left untouched (zero-filled portions stay zero).
    pub fn get(&self, arr: &GmtArray, offset: u64, dest: &mut [u8]) -> Result<(), GmtError> {
        self.reclaim_reply_delivery(|| self.spans_remote(arr, offset, dest.len() as u64))?;
        // Safety: we wait for completion below, so the raw destination
        // pointers die only after the last reply wrote through them.
        unsafe { self.get_nb(arr, offset, dest) };
        self.wait_commands()
    }

    /// Non-blocking get (the paper's `gmt_getNB`).
    ///
    /// # Safety
    ///
    /// `dest` must stay valid and untouched until a subsequent
    /// [`TaskCtx::wait_commands`] on this task returns — replies write
    /// into it from helper threads. (The C API has the same contract,
    /// just without the keyword.)
    ///
    /// Additionally, if a previous wait on this task returned
    /// [`GmtError::DeadlineExceeded`], remote replies are dropped until a
    /// wait reaches quiescence: a remote `get_nb` issued in that window
    /// completes without writing `dest`. The safe wrappers ([`TaskCtx::get`]
    /// and friends) refuse to issue in that window; raw callers must
    /// re-wait first.
    pub unsafe fn get_nb(&self, arr: &GmtArray, offset: u64, dest: &mut [u8]) {
        if dest.is_empty() {
            return;
        }
        let layout = self.layout(arr);
        let me = self.node.node_id;
        let max = self.node.config.max_inline_payload() as u64;
        for ext in layout.extents(offset, dest.len() as u64) {
            let base = (ext.global_offset - offset) as usize;
            if ext.node == me {
                let slice = &mut dest[base..base + ext.len as usize];
                self.node.memory.with(arr.id, |s| s.read(ext.segment_offset as usize, slice));
                continue;
            }
            let mut done = 0u64;
            while done < ext.len {
                let take = (ext.len - done).min(max);
                let dst_ptr = dest[base + done as usize..].as_mut_ptr() as u64;
                let token = self.ctl.token();
                self.emit(
                    ext.node,
                    &Command::Get {
                        token,
                        array: arr.id,
                        offset: ext.segment_offset + done,
                        len: take as u32,
                        dest: dst_ptr,
                    },
                );
                done += take;
            }
        }
    }

    /// Blocking typed store of element `index` (the paper's
    /// `gmt_putValue`).
    pub fn put_value<T: Scalar>(
        &self,
        arr: &GmtArray,
        index: u64,
        value: T,
    ) -> Result<(), GmtError> {
        self.put_value_nb(arr, index, value);
        self.wait_commands()
    }

    /// Non-blocking typed store (the paper's `gmt_putValueNB`).
    pub fn put_value_nb<T: Scalar>(&self, arr: &GmtArray, index: u64, value: T) {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        value.write_le(buf);
        self.put_nb(arr, index * T::SIZE as u64, buf);
    }

    /// Blocking typed load of element `index` (the paper's
    /// `gmt_getValue`).
    pub fn get_value<T: Scalar>(&self, arr: &GmtArray, index: u64) -> Result<T, GmtError> {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.get(arr, index * T::SIZE as u64, buf)?;
        Ok(T::read_le(buf))
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Atomically adds `delta` to the 64-bit word at byte `offset`,
    /// returning the previous value (the paper's `gmt_atomicAdd`).
    /// `offset` must be 8-byte aligned.
    pub fn atomic_add(&self, arr: &GmtArray, offset: u64, delta: i64) -> Result<i64, GmtError> {
        self.reclaim_reply_delivery(|| self.spans_remote(arr, offset, 8))?;
        let mut old = 0i64;
        // Safety: `old` lives until the wait below has returned.
        unsafe { self.atomic_fetch_add_nb(arr, offset, delta, &mut old) };
        self.wait_commands()?;
        Ok(old)
    }

    /// Fire-and-forget atomic add (the paper's `gmt_atomicAddNB` with the
    /// result dropped): the natural primitive for histogram-style
    /// concurrent accumulation, and the one form the aggregation layer
    /// merges at the source. Completion is awaited by
    /// [`TaskCtx::wait_commands`].
    pub fn atomic_add_nb(&self, arr: &GmtArray, offset: u64, delta: i64) {
        // Safety: a null slot is never written; the reply acknowledges
        // completion and stores nothing.
        unsafe { self.add_to(arr, offset, delta, std::ptr::null_mut()) };
    }

    /// Non-blocking fetching add (the paper's `gmt_atomicAddNB`): the
    /// previous value of the word lands in `old` — at once when this node
    /// owns the word, otherwise by the time a subsequent
    /// [`TaskCtx::wait_commands`] returns `Ok`.
    ///
    /// # Safety
    ///
    /// As for [`TaskCtx::get_nb`]: `old` must stay valid and untouched
    /// until a subsequent wait on this task returns; and after a wait
    /// that returned [`GmtError::DeadlineExceeded`], wait again until one
    /// returns `Ok` before issuing this — until then remote replies are
    /// dropped and `old` would never be written.
    pub unsafe fn atomic_fetch_add_nb(
        &self,
        arr: &GmtArray,
        offset: u64,
        delta: i64,
        old: &mut i64,
    ) {
        // Safety: the caller's contract is `add_to`'s.
        unsafe { self.add_to(arr, offset, delta, old) };
    }

    /// The one place an `Add` is applied or emitted.
    ///
    /// # Safety
    ///
    /// `old` is null (result dropped) or satisfies the contract of
    /// [`TaskCtx::atomic_fetch_add_nb`].
    // Inlined so the null slot folds away at `atomic_add_nb`'s call
    // site: `scatter_add_sim` read 4 % slower without (EXPERIMENTS.md).
    #[inline(always)]
    unsafe fn add_to(&self, arr: &GmtArray, offset: u64, delta: i64, old: *mut i64) {
        assert_eq!(offset % 8, 0, "atomic add requires 8-byte alignment");
        let (owner, seg_off) = self.layout(arr).locate(offset);
        if owner == self.node.node_id {
            let prev = self.node.memory.with(arr.id, |s| s.atomic_add(seg_off as usize, delta));
            if !old.is_null() {
                // Safety: non-null `old` is the caller's live slot.
                unsafe { old.write(prev) };
            }
            return;
        }
        let token = self.ctl.token();
        let dest = old as u64;
        self.emit(owner, &Command::Add { token, array: arr.id, offset: seg_off, delta, dest });
    }

    /// Atomic compare-and-swap on the 64-bit word at byte `offset`,
    /// returning the previous value (the paper's `gmt_atomicCAS`); the
    /// swap happened iff the return equals `expected`.
    pub fn atomic_cas(
        &self,
        arr: &GmtArray,
        offset: u64,
        expected: i64,
        new: i64,
    ) -> Result<i64, GmtError> {
        self.reclaim_reply_delivery(|| self.spans_remote(arr, offset, 8))?;
        let mut old = 0i64;
        // Safety: `old` lives until the wait below has returned.
        unsafe { self.atomic_cas_nb(arr, offset, expected, new, &mut old) };
        self.wait_commands()?;
        Ok(old)
    }

    /// Non-blocking compare-and-swap (the paper's `gmt_atomicCASNB`): the
    /// previous value of the word lands in `old` — at once when this node
    /// owns the word, otherwise by the time a subsequent
    /// [`TaskCtx::wait_commands`] returns `Ok`.
    ///
    /// # Safety
    ///
    /// As for [`TaskCtx::atomic_fetch_add_nb`].
    pub unsafe fn atomic_cas_nb(
        &self,
        arr: &GmtArray,
        offset: u64,
        expected: i64,
        new: i64,
        old: &mut i64,
    ) {
        assert_eq!(offset % 8, 0, "atomic_cas requires 8-byte alignment");
        let (owner, seg_off) = self.layout(arr).locate(offset);
        if owner == self.node.node_id {
            *old = self.node.memory.with(arr.id, |s| s.atomic_cas(seg_off as usize, expected, new));
            return;
        }
        let token = self.ctl.token();
        let dest = old as *mut i64 as u64;
        self.emit(
            owner,
            &Command::Cas { token, array: arr.id, offset: seg_off, expected, new, dest },
        );
    }

    // ------------------------------------------------------------------
    // Waves: many fine-grained operations in flight, one wait
    // ------------------------------------------------------------------
    //
    // The safe face of the non-blocking forms: each helper owns the slots
    // its replies write into, re-arms reply delivery once, issues
    // everything back to back, waits once and hands back the results.
    // This is the access pattern aggregation was built for — a large
    // batch of fine-grained operations at unpredictable offsets becomes a
    // few network buffers.

    /// Issues one non-blocking get per `(byte offset, byte length)` span
    /// into one contiguous buffer and waits for all of them.
    fn gather_spans(
        &self,
        arr: &GmtArray,
        spans: impl Iterator<Item = (u64, u64)> + Clone,
    ) -> Result<Vec<u8>, GmtError> {
        self.reclaim_reply_delivery(|| {
            spans.clone().any(|(offset, len)| self.spans_remote(arr, offset, len))
        })?;
        let total: u64 = spans.clone().map(|(_, len)| len).sum();
        let mut raw = vec![0u8; total as usize];
        let mut rest = &mut raw[..];
        for (offset, len) in spans {
            let (slot, tail) = rest.split_at_mut(len as usize);
            rest = tail;
            // Safety: `raw` outlives the wait below and is not read until
            // every reply has landed.
            unsafe { self.get_nb(arr, offset, slot) };
        }
        self.wait_commands()?;
        Ok(raw)
    }

    /// Gathers the elements at `indices`, all reads in flight at once.
    pub fn gather<T: Scalar>(&self, arr: &GmtArray, indices: &[u64]) -> Result<Vec<T>, GmtError> {
        let size = T::SIZE as u64;
        let raw = self.gather_spans(arr, indices.iter().map(|&i| (i * size, size)))?;
        Ok(raw.chunks_exact(T::SIZE).map(T::read_le).collect())
    }

    /// Gathers the element ranges `(first, count)` back to back into
    /// `out` (cleared first), all reads in flight at once: the ragged
    /// form of [`TaskCtx::gather`], e.g. the adjacency lists of a set of
    /// vertices. On `Err`, `out` is left empty.
    pub fn gather_ranges<T: Scalar>(
        &self,
        arr: &GmtArray,
        ranges: &[(u64, u64)],
        out: &mut Vec<T>,
    ) -> Result<(), GmtError> {
        out.clear();
        let size = T::SIZE as u64;
        let spans = ranges.iter().map(|&(first, count)| (first * size, count * size));
        let raw = self.gather_spans(arr, spans)?;
        out.extend(raw.chunks_exact(T::SIZE).map(T::read_le));
        Ok(())
    }

    /// Scatters `(index, value)` pairs with non-blocking puts, then waits
    /// for global visibility.
    pub fn scatter<T: Scalar>(&self, arr: &GmtArray, pairs: &[(u64, T)]) -> Result<(), GmtError> {
        for &(i, v) in pairs {
            self.put_value_nb(arr, i, v);
        }
        self.wait_commands()
    }

    /// Compare-and-swaps the 64-bit elements at `indices` from `expected`
    /// to `new`, all in flight at once, and returns each element's
    /// previous value in order. An index listed twice is swapped by
    /// exactly one of its two operations.
    pub fn atomic_cas_wave(
        &self,
        arr: &GmtArray,
        indices: &[u64],
        expected: i64,
        new: i64,
    ) -> Result<Vec<i64>, GmtError> {
        self.reclaim_reply_delivery(|| indices.iter().any(|&i| self.spans_remote(arr, i * 8, 8)))?;
        let mut old = vec![0i64; indices.len()];
        for (slot, &i) in old.iter_mut().zip(indices) {
            // Safety: `old` outlives the wait below and is not read until
            // every reply has landed.
            unsafe { self.atomic_cas_nb(arr, i * 8, expected, new, slot) };
        }
        self.wait_commands()?;
        Ok(old)
    }

    /// Suspends the task until every previously issued operation of this
    /// task has completed (the paper's `gmt_waitCommands`).
    ///
    /// Returns `Err(GmtError::RemoteDead)` if any of the awaited
    /// operations failed because its destination was declared dead; the
    /// rest completed normally. The failure state is consumed: a
    /// subsequent wait with no new failures returns `Ok`.
    ///
    /// If this task runs with an operation deadline
    /// (`Config::op_deadline_ns` or [`TaskCtx::set_op_deadline`]) and the
    /// pending operations outlive it, the watchdog force-wakes the task
    /// and this returns `Err(GmtError::DeadlineExceeded)`: reply delivery
    /// into task-provided buffers is disarmed first, so the abandoned
    /// stragglers drain harmlessly in the background.
    pub fn wait_commands(&self) -> Result<(), GmtError> {
        if self.ctl.pending() != 0
            && self.ctl.reply_disarmed()
            && self.ctl.op_deadline() == 0
            && self.node.config.op_deadline_ns == 0
        {
            // Poisoned task (a previous deadline abandoned operations that
            // may never complete, e.g. behind a partition nothing detects) and
            // no deadline is armed any more: never wait unbounded here —
            // re-arm a floor deadline so the watchdog still frees us.
            self.set_op_deadline(POISONED_WAIT_FLOOR_NS);
        }
        while self.ctl.pending() != 0 {
            // The worker runs the park protocol after the yield; the
            // intent flag tells it this is a blocking yield. Spurious
            // wakeups are tolerated by the re-check.
            self.ctl.set_park_intent();
            self.yielder.yield_now();
            if self.ctl.take_deadline_hit() {
                let pending = self.ctl.pending();
                if pending > 0 {
                    // Forbid helpers from writing reply data through this
                    // task's stack before the caller's frames unwind; the
                    // straggler tokens still complete in the background
                    // and a later quiescent wait re-arms delivery. Any
                    // dead-peer failure in the same batch is subsumed.
                    self.ctl.abandon_pending_writes();
                    let _ = self.ctl.take_failure();
                    return Err(GmtError::DeadlineExceeded { pending });
                }
            }
        }
        // Drained cleanly: a deadline hit that lost the race against the
        // final completion is stale, and an earlier abandon can re-arm.
        let _ = self.ctl.take_deadline_hit();
        self.ctl.try_rearm();
        match self.ctl.take_failure() {
            None => Ok(()),
            Some((node, failed_ops)) => Err(GmtError::RemoteDead { node, failed_ops }),
        }
    }

    /// Cooperatively yields to other tasks on this worker.
    pub fn yield_now(&self) {
        self.yielder.yield_now();
    }

    // ------------------------------------------------------------------
    // Deadlines & membership
    // ------------------------------------------------------------------

    /// True if any byte of `[offset, offset + len)` of `arr` lives on
    /// another node.
    fn spans_remote(&self, arr: &GmtArray, offset: u64, len: u64) -> bool {
        let layout = self.layout(arr);
        let me = self.node.node_id;
        layout.extents(offset, len).any(|e| e.node != me)
    }

    /// Re-arms reply delivery after a deadline abandon, called before
    /// issuing an operation whose reply writes through a task-provided
    /// pointer. While a previous batch is abandoned, helpers skip such
    /// writes, so issuing a fresh destination-carrying remote operation
    /// must first wait out the stragglers — otherwise its reply would be
    /// silently dropped.
    ///
    /// In the common case this is one load. In the abandoned state it
    /// yields cooperatively for up to one deadline's worth of time; if
    /// the stragglers still have not drained (they may *never* — behind a
    /// partition nothing detects they are lost for good), it fails fast with
    /// [`GmtError::DeadlineExceeded`] rather than hanging: the task is
    /// poisoned for reply-carrying remote operations, while purely local
    /// operations (for which `is_remote` returns `false`) proceed
    /// untouched.
    fn reclaim_reply_delivery(&self, is_remote: impl FnOnce() -> bool) -> Result<(), GmtError> {
        if !self.node.deadlines_armed.load(Ordering::Relaxed) || self.ctl.try_rearm() {
            return Ok(());
        }
        if !is_remote() {
            // Local data never rides the reply path; serving it keeps a
            // degraded cluster's node-local work running.
            return Ok(());
        }
        let bound = match self.ctl.op_deadline() {
            0 => self.node.config.op_deadline_ns,
            d => d,
        }
        .max(POISONED_WAIT_FLOOR_NS);
        let start = self.node.agg.now_ns();
        while !self.ctl.try_rearm() {
            if self.node.agg.now_ns().saturating_sub(start) >= bound {
                let _ = self.ctl.take_deadline_hit();
                return Err(GmtError::DeadlineExceeded { pending: self.ctl.pending() });
            }
            // Cooperative yield (no park): nothing may ever complete the
            // stragglers, so stay schedulable and enforce the bound above.
            self.yielder.yield_now();
        }
        // A deadline expiry consumed here belonged to the abandoned
        // batch, not to the operations about to be issued.
        let _ = self.ctl.take_deadline_hit();
        Ok(())
    }

    /// Sets (or clears, with 0) this task's operation deadline in
    /// nanoseconds, overriding `Config::op_deadline_ns`. While set, a
    /// blocking wait whose operations are still pending past the deadline
    /// is force-woken by the watchdog and returns
    /// [`GmtError::DeadlineExceeded`] instead of hanging — the last line
    /// of defense where no death is confirmed in time: a silent partition
    /// shorter than `Config::peer_death_timeout_ns`, or a peer that is
    /// heard but never answers.
    pub fn set_op_deadline(&self, ns: u64) {
        self.ctl.set_op_deadline(ns);
        if ns > 0 && !self.node.deadlines_armed.load(Ordering::Relaxed) {
            // Helpers check this flag before writing reply data through
            // task stacks; the Release store pairs with their Acquire
            // load, so operations emitted after this call are guarded.
            self.node.deadlines_armed.store(true, Ordering::Release);
        }
    }

    /// Nodes confirmed dead by the failure detector, ascending.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.node.membership.dead_nodes()
    }

    /// The membership epoch: bumped exactly once per confirmed death, so
    /// converged survivors agree on it. A `GlobalBarrier` pins the epoch at
    /// creation and fails fast when it moves.
    pub fn membership_epoch(&self) -> u64 {
        self.node.membership.epoch()
    }

    // ------------------------------------------------------------------
    // Parallelism
    // ------------------------------------------------------------------

    /// Parallel loop (the paper's `gmt_parFor`): executes `f(ctx, i)` for
    /// every `i in 0..iters`, `chunk` iterations per task, with tasks
    /// placed per `policy`. Suspends the calling task until all
    /// iterations complete (§III-B). Nesting is allowed.
    pub fn parfor<F>(&self, policy: SpawnPolicy, iters: u64, chunk: u32, f: F)
    where
        F: Fn(&TaskCtx<'_>, u64) + Send + Sync + 'static,
    {
        self.parfor_args(policy, iters, chunk, &[], move |ctx, i, _| f(ctx, i));
    }

    /// Parallel loop with an explicit argument buffer, exactly like the C
    /// `gmt_parFor(it, chunk, func, args, locality)`: `args` is copied
    /// once per destination node and passed to every iteration.
    ///
    /// Nodes already confirmed dead are skipped at spawn time (their
    /// share redistributes over the survivors). A peer dying *mid*-loop
    /// loses iterations with no meaningful partial result, so this
    /// panics, mirroring `alloc`.
    pub fn parfor_args<F>(&self, policy: SpawnPolicy, iters: u64, chunk: u32, args: &[u8], f: F)
    where
        F: Fn(&TaskCtx<'_>, u64, &[u8]) + Send + Sync + 'static,
    {
        // The per-iteration loops: `f` runs once for each index of a chunk.
        self.spawn_blocks(
            policy,
            iters,
            chunk,
            args,
            Box::new(move |ctx, range, args| {
                for i in range {
                    f(ctx, i, args);
                }
            }),
        )
    }

    /// Parallel loop whose body receives the whole chunk its task claimed,
    /// `f(ctx, start..end)` with `end - start <= chunk` — the paper's own
    /// signature, `func(start_it, num_it, args)`. This is the form for a
    /// body that wants to issue its chunk's operations as waves (one bulk
    /// put, one [`TaskCtx::gather`] ...) instead of iteration by
    /// iteration. Placement, nesting and dead-peer behaviour are those of
    /// [`TaskCtx::parfor`].
    pub fn parfor_range<F>(&self, policy: SpawnPolicy, iters: u64, chunk: u32, f: F)
    where
        F: Fn(&TaskCtx<'_>, std::ops::Range<u64>) + Send + Sync + 'static,
    {
        let body: Box<BodyFn> = Box::new(move |ctx, range, _| f(ctx, range));
        self.spawn_blocks(policy, iters, chunk, &[], body);
    }

    /// Spawns the iteration blocks of one parallel loop and waits for
    /// them: the single implementation behind every `parfor*` entry point.
    /// Panics if a destination died mid-loop (the no-error-surface
    /// contract of the C `gmt_parFor`).
    fn spawn_blocks(
        &self,
        policy: SpawnPolicy,
        iters: u64,
        chunk: u32,
        args: &[u8],
        f: Box<BodyFn>,
    ) {
        if iters == 0 {
            return;
        }
        let chunk = chunk.max(1);
        let me = self.node.node_id;
        let body = Arc::new(ParForBody { f });
        let args_arc: Arc<[u8]> = Arc::from(args);
        let is_dead = |n: NodeId| self.node.peer_is_dead(n);
        let splits = split_iterations(policy, iters, self.node.nodes, me, &is_dead);
        for &(dst, start, count) in &splits {
            debug_assert!(count > 0);
            let token = self.ctl.token();
            if dst == me {
                // Counted toward this node itself, where the worker that
                // finishes the block acquits it (`notify_parent`).
                self.node.ops.register(self.ctl, me);
                self.node.itb_queue.push(Itb::new(
                    Arc::clone(&body),
                    Arc::clone(&args_arc),
                    start,
                    count,
                    chunk,
                    ParentRef { node: me, token },
                ));
            } else if self.node.cluster.cross_process {
                // The peer is another OS process: ship the body by value
                // (vtable offset + captured bytes packed ahead of the
                // args) — a raw Arc pointer would be a foreign address
                // there. See `ParForBody::to_wire_bytes` for the
                // plain-data-captures obligation this places on `f`.
                let (body_off, packed) = ParForBody::to_wire_bytes(&body, args);
                self.emit(
                    dst,
                    &Command::Spawn { token, body: body_off, start, count, chunk, args: &packed },
                );
            } else {
                self.emit(
                    dst,
                    &Command::Spawn {
                        token,
                        body: ParForBody::to_wire(&body),
                        start,
                        count,
                        chunk,
                        args,
                    },
                );
            }
        }
        if self.wait_commands().is_err() {
            // Attribute the loss per spawn block: every block whose
            // destination is dead *now* counts as lost. A dying node may
            // have finished some iterations before its death was
            // confirmed, so this over-counts the loss — never under. With
            // no confirmed death behind the failure (e.g. a deadline
            // expiry), every remote block counts.
            let any_dead = splits.iter().any(|&(dst, _, _)| dst != me && is_dead(dst));
            let (mut nodes, mut lost) = (Vec::new(), 0);
            for &(dst, _, count) in &splits {
                if dst != me && (!any_dead || is_dead(dst)) {
                    nodes.push(dst);
                    lost += count;
                }
            }
            assert!(
                lost == 0,
                "gmt_parFor: node(s) {nodes:?} died while executing iterations ({lost} of {iters} lost)"
            );
        }
    }

    #[inline]
    fn emit(&self, dst: NodeId, cmd: &Command<'_>) {
        debug_assert_ne!(dst, self.node.node_id, "local ops never become commands");
        debug_assert!(!cmd.is_reply(), "tasks emit requests; helpers emit replies");
        // Remember the last remote command for watchdog diagnostics.
        self.ctl.note_op(dst, cmd.opcode());
        // Count the operation — in the task's pending count and in the op
        // table — before the command becomes visible anywhere: only
        // counted operations are error-completed if `dst` is (or is later
        // confirmed) dead, and the comm server re-drains the op table
        // whenever it drops a buffer bound for a dead peer, so an emit
        // racing the death confirmation is still covered.
        self.node.ops.register(self.ctl, dst);
        tls::with_sink(|s| s.emit(dst, cmd));
    }
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx").field("node", &self.node.node_id).finish()
    }
}

/// Splits `iters` iterations across nodes per the spawn policy, returning
/// `(node, start, count)` triples with `count > 0`. Nodes for which
/// `is_dead` returns true receive nothing — their share redistributes
/// over the survivors. `Remote` degenerates to `Local` when every other
/// node is dead (or the cluster has one node).
pub(crate) fn split_iterations(
    policy: SpawnPolicy,
    iters: u64,
    nodes: usize,
    me: NodeId,
    is_dead: &dyn Fn(NodeId) -> bool,
) -> Vec<(NodeId, u64, u64)> {
    match policy {
        SpawnPolicy::Local => vec![(me, 0, iters)],
        SpawnPolicy::Partition => {
            let alive: Vec<NodeId> = (0..nodes).filter(|&n| n == me || !is_dead(n)).collect();
            split_over(&alive, iters)
        }
        SpawnPolicy::Remote => {
            let others: Vec<NodeId> = (0..nodes).filter(|&n| n != me && !is_dead(n)).collect();
            if others.is_empty() {
                return vec![(me, 0, iters)];
            }
            split_over(&others, iters)
        }
    }
}

/// Block-distributes `iters` over `targets` (non-empty): contiguous
/// ranges in target order, every returned count > 0.
fn split_over(targets: &[NodeId], iters: u64) -> Vec<(NodeId, u64, u64)> {
    let block = iters.div_ceil(targets.len() as u64);
    targets
        .iter()
        .enumerate()
        .filter_map(|(i, &n)| {
            let start = i as u64 * block;
            if start >= iters {
                None
            } else {
                Some((n, start, (iters - start).min(block)))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE_DEAD: &dyn Fn(NodeId) -> bool = &|_| false;

    #[test]
    fn split_partition_covers_all_iterations() {
        for nodes in [1usize, 2, 3, 7] {
            for iters in [1u64, 5, 100, 1001] {
                let parts = split_iterations(SpawnPolicy::Partition, iters, nodes, 0, NONE_DEAD);
                let total: u64 = parts.iter().map(|&(_, _, c)| c).sum();
                assert_eq!(total, iters);
                let mut expected_start = 0;
                for &(_, start, count) in &parts {
                    assert_eq!(start, expected_start);
                    assert!(count > 0);
                    expected_start += count;
                }
            }
        }
    }

    #[test]
    fn split_local_stays_home() {
        let parts = split_iterations(SpawnPolicy::Local, 42, 8, 3, NONE_DEAD);
        assert_eq!(parts, vec![(3, 0, 42)]);
    }

    #[test]
    fn split_remote_avoids_me() {
        let parts = split_iterations(SpawnPolicy::Remote, 100, 4, 2, NONE_DEAD);
        let total: u64 = parts.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 100);
        assert!(parts.iter().all(|&(n, _, _)| n != 2));
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn split_remote_single_node_degenerates() {
        assert_eq!(split_iterations(SpawnPolicy::Remote, 9, 1, 0, NONE_DEAD), vec![(0, 0, 9)]);
    }

    #[test]
    fn split_fewer_iters_than_nodes() {
        let parts = split_iterations(SpawnPolicy::Partition, 2, 5, 0, NONE_DEAD);
        let total: u64 = parts.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 2);
        assert!(parts.iter().all(|&(_, _, c)| c > 0));
    }

    #[test]
    fn split_partition_redistributes_over_survivors() {
        // Nodes 1 and 3 dead out of 4: their share moves to 0 and 2, the
        // iteration space stays fully covered and contiguous.
        let dead = |n: NodeId| n == 1 || n == 3;
        let parts = split_iterations(SpawnPolicy::Partition, 100, 4, 0, &dead);
        let total: u64 = parts.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 100);
        assert!(parts.iter().all(|&(n, _, _)| n == 0 || n == 2));
        let mut expected_start = 0;
        for &(_, start, count) in &parts {
            assert_eq!(start, expected_start);
            expected_start += count;
        }
    }

    #[test]
    fn split_remote_with_all_others_dead_falls_back_home() {
        let dead = |n: NodeId| n != 2;
        assert_eq!(split_iterations(SpawnPolicy::Remote, 7, 4, 2, &dead), vec![(2, 0, 7)]);
    }

    #[test]
    fn split_remote_skips_dead_peers() {
        let dead = |n: NodeId| n == 1;
        let parts = split_iterations(SpawnPolicy::Remote, 90, 4, 0, &dead);
        let total: u64 = parts.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 90);
        assert!(parts.iter().all(|&(n, _, _)| n == 2 || n == 3));
    }
}
