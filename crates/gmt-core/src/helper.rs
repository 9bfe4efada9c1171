//! Helper threads: manage the global address space and synchronization
//! (§IV-A). Helpers parse incoming aggregation buffers, execute commands
//! against local segments, and generate reply commands that flow back
//! through the same aggregation pipeline.
//!
//! Every received buffer goes through one three-stage pipeline —
//! *decode* (one pass extracts every request command into
//! struct-of-arrays staging, [`BatchStage`]), *bucket* (requests are
//! grouped by target segment so each same-segment run resolves the
//! segment once via [`NodeMemory::with`]), *apply* (runs go through
//! the vectorized [`Segment`] kernels: same-offset atomic adds pre-merged
//! into one RMW, batch copies at a word atomic per 8 bytes, each
//! `GetRun`'s spans read back to back from the segment — and each
//! `CasRun`'s old values swapped out of it — straight into the outgoing
//! command block as one reply through one sink access per run, token
//! acknowledgements assembled straight from the staged token columns).
//! Reply-side opcodes are executed one by one but gain run-detection for
//! same-token `Ack` bursts. Control commands (`Alloc`/`Free`/`Spawn`) act as barriers: the
//! staged batch applies before them, preserving their order relative to
//! data commands.
//!
//! What the pipeline must be observably equivalent to — each command
//! applied alone, in some order — is written down as the host-side model
//! of `tests/batch_equivalence.rs`, which randomized mixed-opcode
//! workloads are compared against.
//!
//! [`BatchStage`]: crate::command::BatchStage
//! [`NodeMemory::with`]: crate::memory::NodeMemory::with
//! [`Segment`]: crate::memory::Segment

use crate::aggregation::CommandSink;
use crate::command::{BatchStage, Command, CommandIter};
use crate::handle::{Distribution, Layout};
use crate::idle::{sleep_idle, wake_comm_on_backlog, IdleEdge};
use crate::metrics::ThreadTracer;
use crate::runtime::NodeShared;
use crate::task::{Itb, ParForBody, ParentRef, Units};
use crate::tls;
use crate::NodeId;
use crossbeam::queue::SegQueue;
use gmt_net::Payload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Received aggregation buffers awaiting the helpers, as (source node,
/// bytes), and how many there are. Payloads are pooled: dropping one
/// (after processing) returns the buffer to the *sending* node's channel
/// pool. The count is the communication server's receive credit and the
/// helpers' sleep recheck, read with one load instead of the queue's lock.
pub struct HelperInbox {
    queue: SegQueue<(NodeId, Payload)>,
    backlog: AtomicUsize,
}

impl Default for HelperInbox {
    fn default() -> Self {
        HelperInbox { queue: SegQueue::new(), backlog: AtomicUsize::new(0) }
    }
}

impl HelperInbox {
    /// Communication server: queues one delivered buffer. Counted before
    /// it is poppable, so the count never underflows.
    pub fn push(&self, src: NodeId, payload: Payload) {
        self.backlog.fetch_add(1, Ordering::Relaxed);
        self.queue.push((src, payload));
    }

    /// Helper: takes the oldest buffer.
    pub fn pop(&self) -> Option<(NodeId, Payload)> {
        let item = self.queue.pop()?;
        self.backlog.fetch_sub(1, Ordering::Relaxed);
        Some(item)
    }

    /// Buffers delivered and not yet taken by a helper.
    pub fn backlog(&self) -> usize {
        self.backlog.load(Ordering::Relaxed)
    }
}

/// Per-helper-thread working memory, reused across buffers. Every vector
/// is grow-only while one buffer is processed and shrunk back to a cap
/// derived from `buffer_size` between buffers ([`HelperScratch::shrink`]),
/// so one pathological buffer cannot pin its high-water allocation on the
/// thread forever.
struct HelperScratch {
    /// SoA staging columns of the batch decoder (stage 1).
    stage: BatchStage,
    /// Index permutation used to bucket one class by segment (stage 2).
    order: Vec<u32>,
    /// Same-offset pre-merge staging for atomic adds, sorted by offset
    /// before [`crate::memory::Segment::atomic_add_batch`] runs.
    merge: Vec<(u64, i64)>,
    merge_offsets: Vec<u64>,
    merge_deltas: Vec<i64>,
    /// Token-only acknowledgements of the buffer (one vectorized `AckN`).
    acks: Vec<u8>,
}

impl HelperScratch {
    fn new() -> Self {
        HelperScratch {
            stage: BatchStage::new(),
            order: Vec::new(),
            merge: Vec::new(),
            merge_offsets: Vec::new(),
            merge_deltas: Vec::new(),
            acks: Vec::new(),
        }
    }

    /// Caps every reusable allocation at sizes derived from
    /// `buffer_size`; called between buffers, when everything is empty.
    fn shrink(&mut self, buffer_size: usize) {
        if self.acks.capacity() > buffer_size {
            self.acks.shrink_to(buffer_size);
        }
        // A buffer of `buffer_size` bytes holds fewer commands than
        // `buffer_size / 8` (the smallest command is 9 bytes on the
        // wire), which bounds every staging column.
        let max_entries = buffer_size / 8;
        self.stage.shrink(max_entries);
        if self.merge_offsets.capacity() > max_entries {
            self.merge_offsets.shrink_to(max_entries);
        }
        if self.merge_deltas.capacity() > max_entries {
            self.merge_deltas.shrink_to(max_entries);
        }
        if self.order.capacity() > max_entries {
            self.order.shrink_to(max_entries);
        }
        if self.merge.capacity() > max_entries {
            self.merge.shrink_to(max_entries);
        }
    }
}

/// Executes one control command (`Alloc`/`Free`/`Spawn`) or reply command
/// — the opcodes the pipeline does not stage. `acks` collects the
/// completion tokens of token-only acknowledgements so one vectorized
/// [`Command::AckN`] answers the whole buffer.
fn execute_control_or_reply(
    node: &Arc<NodeShared>,
    src: NodeId,
    cmd: &Command<'_>,
    acks: &mut Vec<u8>,
) {
    match *cmd {
        Command::Alloc { token, id, nbytes, dist, origin, dead_mask } => {
            let dist = Distribution::from_u8(dist).expect("valid distribution on wire");
            let layout = Layout::degraded(nbytes, dist, origin as NodeId, node.nodes, dead_mask);
            node.memory.alloc(id, &layout, node.node_id);
            acks.extend_from_slice(&token.to_le_bytes());
        }
        Command::Free { token, id } => {
            node.memory.free(id);
            acks.extend_from_slice(&token.to_le_bytes());
        }
        Command::Spawn { token, body, start, count, chunk, args } => {
            let (body, args) = if node.cluster.cross_process {
                // `body` is a vtable offset and `args` packs the closure's
                // captured bytes ahead of the user args — rebuild both.
                // The reliability layer has already verified delivery, so
                // a malformed packing is a protocol bug, not line noise.
                unsafe { ParForBody::from_wire_bytes(body, args) }
                    .expect("malformed cross-process Spawn body")
            } else {
                // Safety: the wire pointer carries one strong reference,
                // minted by the issuing parFor.
                (unsafe { ParForBody::from_wire(body) }, Arc::from(args))
            };
            node.itb_queue.push(Itb::new(
                body,
                args,
                start,
                count,
                chunk,
                ParentRef { node: src, token },
            ));
            // The Ack is sent by whichever worker completes the last
            // iteration of the block.
        }

        // ---- replies: complete operations of local tasks ----------
        //
        // Every completion first *acquits* its operation in the op table:
        // if nothing is there to take, the comm server's death sweep
        // already error-completed it (the reply raced a — possibly
        // false-positive — death confirmation against `src`) or its task
        // is gone, and the reply must be dropped whole. The `Units` taken
        // complete when they drop, after the reply's data is in place.
        Command::Ack { token } => complete_ack_run(node, src, token, 1),
        Command::AckN { tokens } => {
            // Runs of equal tokens (one task's merged adds, or its
            // burst of puts) acquit and complete in one batch each.
            let mut it = crate::command::tokens(tokens).peekable();
            while let Some(token) = it.next() {
                let mut n = 1u32;
                while it.peek() == Some(&token) {
                    it.next();
                    n += 1;
                }
                complete_ack_run(node, src, token, n);
            }
        }
        Command::GetReply { token, dest, spans, data } => {
            // One acquittal and one copy for the whole run.
            if let Some(units) = node.ops.acquit(token, src, spans) {
                // Safety: `dest` points into the buffer registered by the
                // issuing task, which stays parked (and its buffer alive)
                // until this completion — unless it abandoned the
                // operation after a deadline expiry, in which case the
                // write guard refuses the write.
                reply_write(node, &units, || unsafe {
                    std::ptr::copy_nonoverlapping(data.as_ptr(), dest as *mut u8, data.len());
                });
            }
        }
        Command::AtomicReply { token, dest, olds } => {
            // One acquittal and one copy for the whole run.
            if let Some(units) = node.ops.acquit(token, src, (olds.len() / 8) as u32) {
                if dest != 0 {
                    #[cfg(not(target_endian = "little"))]
                    compile_error!("atomic replies copy little-endian old values into i64 slots");
                    // Safety: as above; `dest` is the first of as many
                    // i64 slots as the run has elements, back to back in a
                    // buffer the waiting task holds (0 = fire-and-forget).
                    reply_write(node, &units, || unsafe {
                        std::ptr::copy_nonoverlapping(olds.as_ptr(), dest as *mut u8, olds.len());
                    });
                }
            }
        }
        Command::Put { .. }
        | Command::Get { .. }
        | Command::GetRun { .. }
        | Command::Add { .. }
        | Command::AddN { .. }
        | Command::Cas { .. }
        | Command::CasRun { .. } => unreachable!("request opcodes are staged, not executed here"),
    }
}

/// Acquits and completes `n` operations of `token` in one batch (one
/// decrement instead of *n*); a shortfall means the death sweep already
/// error-completed the rest.
fn complete_ack_run(node: &NodeShared, src: NodeId, token: u64, n: u32) {
    drop(node.ops.acquit(token, src, n));
}

/// Executes every command in one received aggregation buffer (decode →
/// bucket → apply; see the module docs) and returns how many there were,
/// and whether any was a reply (which may have readied a local task).
/// `src` is the node the buffer came from (replies go back there), `chan`
/// the executing helper's counter shard.
fn process_buffer(
    node: &Arc<NodeShared>,
    src: NodeId,
    buf: &[u8],
    hs: &mut HelperScratch,
    chan: usize,
) -> (u64, bool) {
    debug_assert!(hs.acks.is_empty() && hs.stage.is_empty());
    let mut executed = 0u64;
    let mut replies = false;
    let mut segments_resolved = 0u64;
    // Run-detection for same-token `Ack` bursts: consecutive plain acks
    // carrying one token settle with a single batched completion, like
    // the equal-token runs inside an `AckN`. Staged requests between two
    // acks do not break the run (their completions are unrelated).
    let mut ack_run: Option<(u64, u32)> = None;
    for cmd in CommandIter::new(buf) {
        node.metrics.cmd_counter(cmd.opcode()).add(chan, 1);
        executed += 1;
        if hs.stage.stage(&cmd, buf) {
            continue;
        }
        let control =
            matches!(cmd, Command::Alloc { .. } | Command::Free { .. } | Command::Spawn { .. });
        replies |= !control;
        if let Command::Ack { token } = cmd {
            match &mut ack_run {
                Some((t, n)) if *t == token => *n += 1,
                Some((t, n)) => {
                    complete_ack_run(node, src, *t, *n);
                    (*t, *n) = (token, 1);
                }
                None => ack_run = Some((token, 1)),
            }
            continue;
        }
        if control {
            // Control barrier: staged data commands must apply before an
            // alloc/free/spawn that follows them in the buffer.
            segments_resolved += apply_staged(node, src, buf, hs, chan);
        } else if let Some((t, n)) = ack_run.take() {
            // Another reply opcode breaks an ack run.
            complete_ack_run(node, src, t, n);
        }
        execute_control_or_reply(node, src, &cmd, &mut hs.acks);
    }
    if let Some((t, n)) = ack_run.take() {
        complete_ack_run(node, src, t, n);
    }
    segments_resolved += apply_staged(node, src, buf, hs, chan);
    node.metrics.batch_buffers.add(chan, 1);
    if segments_resolved > 0 {
        node.metrics.batch_segments_per_buffer.record(segments_resolved);
    }
    flush_acks(node, src, &mut hs.acks);
    (executed, replies)
}

/// Builds the bucketing permutation for one class: `order` becomes the
/// stable by-array ordering of `0..arrays.len()`. Buffers usually carry
/// commands already grouped by array (one task hammers one array), so the
/// common case is a grouped check and an identity permutation — the
/// stable sort (which allocates) only runs on genuinely interleaved
/// buffers.
fn bucket_by_array(order: &mut Vec<u32>, arrays: &[u64]) {
    order.clear();
    order.extend(0..arrays.len() as u32);
    if !arrays.windows(2).all(|w| w[0] <= w[1]) {
        order.sort_by_key(|&i| arrays[i as usize]);
    }
}

/// Iterates the same-array runs of a bucketed class, resolving each run's
/// segment once and recording the run-length metric.
fn for_each_run(
    node: &Arc<NodeShared>,
    order: &[u32],
    arrays: &[u64],
    mut apply: impl FnMut(&crate::memory::Segment, &[u32]),
) -> u64 {
    let mut resolved = 0u64;
    let mut i = 0;
    while i < order.len() {
        let array = arrays[order[i] as usize];
        let mut j = i + 1;
        while j < order.len() && arrays[order[j] as usize] == array {
            j += 1;
        }
        node.metrics.batch_run_len.record((j - i) as u64);
        resolved += 1;
        node.memory.with(array, |seg| apply(seg, &order[i..j]));
        i = j;
    }
    resolved
}

/// Sorts the `(offset, delta)` pre-merge staging and applies it through
/// [`Segment::atomic_add_batch`], counting merged RMWs.
///
/// [`Segment::atomic_add_batch`]: crate::memory::Segment::atomic_add_batch
fn apply_merged_adds(
    node: &Arc<NodeShared>,
    seg: &crate::memory::Segment,
    merge: &mut Vec<(u64, i64)>,
    offsets: &mut Vec<u64>,
    deltas: &mut Vec<i64>,
    chan: usize,
) {
    if merge.is_empty() {
        return;
    }
    // Unstable is fine: adds commute, and equal offsets merge anyway.
    merge.sort_unstable_by_key(|&(offset, _)| offset);
    offsets.clear();
    deltas.clear();
    offsets.extend(merge.iter().map(|&(o, _)| o));
    deltas.extend(merge.iter().map(|&(_, d)| d));
    let performed = seg.atomic_add_batch(offsets, deltas);
    node.metrics.batch_rmw_merged.add(chan, (offsets.len() - performed) as u64);
    merge.clear();
}

/// Applies everything staged so far (stages 2 + 3: bucket by segment,
/// vectorized apply per run), clears the stage, and returns the number of
/// segment resolutions performed.
///
/// Classes apply in a fixed order (puts, merged adds, `AddN`, cas, gets)
/// rather than buffer order; GMT never ordered independent in-flight
/// commands (the aggregation layer itself reorders blocks), so only the
/// relative order *within* a class is kept — stable bucketing preserves
/// it for the order-sensitive classes (duplicate-offset puts, cas).
fn apply_staged(
    node: &Arc<NodeShared>,
    src: NodeId,
    buf: &[u8],
    hs: &mut HelperScratch,
    chan: usize,
) -> u64 {
    if hs.stage.is_empty() {
        return 0;
    }
    let HelperScratch { stage, order, merge, merge_offsets, merge_deltas, acks } = hs;
    let mut resolved = 0u64;

    // ---- puts: batch copies, tokens into the ack column ---------------
    if !stage.put_arrays.is_empty() {
        bucket_by_array(order, &stage.put_arrays);
        resolved += for_each_run(node, order, &stage.put_arrays, |seg, run| {
            seg.write_batch(run.iter().map(|&k| {
                let k = k as usize;
                let (start, len) = stage.put_data[k];
                (stage.put_offsets[k] as usize, &buf[start as usize..(start + len) as usize])
            }));
        });
        for &t in &stage.put_tokens {
            acks.extend_from_slice(&t.to_le_bytes());
        }
    }

    // ---- atomic adds: same-offset pre-merge, one RMW per cell --------
    //
    // Fire-and-forget adds (`dest == 0` — the uncombined storm shape)
    // merge exactly like the sink's combining table does at the source
    // and acknowledge through the ack column (observably equivalent to
    // an `AtomicReply { dest: 0 }` each: both acquit and complete the
    // token without writing anything back). Value-returning adds need
    // their individual old values, so they apply one by one inside the
    // resolved run.
    if !stage.add_arrays.is_empty() {
        bucket_by_array(order, &stage.add_arrays);
        resolved += for_each_run(node, order, &stage.add_arrays, |seg, run| {
            debug_assert!(merge.is_empty());
            for &k in run {
                let k = k as usize;
                if stage.add_dests[k] == 0 {
                    merge.push((stage.add_offsets[k], stage.add_deltas[k]));
                    acks.extend_from_slice(&stage.add_tokens[k].to_le_bytes());
                }
            }
            apply_merged_adds(node, seg, merge, merge_offsets, merge_deltas, chan);
            tls::with_sink(|sink| {
                for &k in run {
                    let k = k as usize;
                    if stage.add_dests[k] != 0 {
                        let old =
                            seg.atomic_add(stage.add_offsets[k] as usize, stage.add_deltas[k]);
                        sink.emit(
                            src,
                            &Command::AtomicReply {
                                token: stage.add_tokens[k],
                                dest: stage.add_dests[k],
                                olds: &old.to_le_bytes(),
                            },
                        );
                    }
                }
            });
        });
    }

    // ---- AddN: merged-at-source deltas, re-merged across the buffer --
    if !stage.addn_arrays.is_empty() {
        bucket_by_array(order, &stage.addn_arrays);
        resolved += for_each_run(node, order, &stage.addn_arrays, |seg, run| {
            debug_assert!(merge.is_empty());
            for &k in run {
                let k = k as usize;
                merge.push((stage.addn_offsets[k], stage.addn_deltas[k]));
                // AckN assembles directly from the staged token column:
                // the wire token run is already the ack wire format.
                let (start, len) = stage.addn_tokens[k];
                acks.extend_from_slice(&buf[start as usize..(start + len) as usize]);
            }
            apply_merged_adds(node, seg, merge, merge_offsets, merge_deltas, chan);
        });
    }

    // ---- cas runs: order-sensitive, old values into the reply ---------
    if !stage.cas_arrays.is_empty() {
        bucket_by_array(order, &stage.cas_arrays);
        resolved += for_each_run(node, order, &stage.cas_arrays, |seg, run| {
            // One sink access streams the whole run of replies.
            tls::with_sink(|sink| {
                for &k in run {
                    let k = k as usize;
                    let (start, len) = stage.cas_offsets[k];
                    sink.emit_cas_reply(
                        src,
                        stage.cas_tokens[k],
                        stage.cas_dests[k],
                        seg,
                        &buf[start as usize..(start + len) as usize],
                        stage.cas_expected[k],
                        stage.cas_new[k],
                    );
                }
            });
        });
    }

    // ---- get runs: each reply's payload read into the outgoing block --
    if !stage.get_arrays.is_empty() {
        bucket_by_array(order, &stage.get_arrays);
        resolved += for_each_run(node, order, &stage.get_arrays, |seg, run| {
            // One sink access streams the whole run of replies.
            tls::with_sink(|sink| {
                for &k in run {
                    let k = k as usize;
                    let (start, len) = stage.get_spans[k];
                    sink.emit_get_reply(
                        src,
                        stage.get_tokens[k],
                        stage.get_dests[k],
                        seg,
                        &buf[start as usize..(start + len) as usize],
                    );
                }
            });
        });
    }

    stage.clear();
    resolved
}

/// Sends the batched token-only acknowledgements for one processed buffer:
/// a single token degenerates to a plain `Ack`; larger batches go out as
/// `AckN` commands chunked to the aggregation buffer capacity.
fn flush_acks(node: &Arc<NodeShared>, src: NodeId, acks: &mut Vec<u8>) {
    if acks.is_empty() {
        return;
    }
    if acks.len() == 8 {
        let token = u64::from_le_bytes(acks[..8].try_into().unwrap());
        reply(src, &Command::Ack { token });
    } else {
        // Whole tokens per chunk, within the buffer's command capacity.
        let cap = node.config.buffer_size - node.agg.header_reserve();
        let chunk_bytes = (cap.saturating_sub(5) / 8 * 8).max(8);
        for chunk in acks.chunks(chunk_bytes) {
            reply(src, &Command::AckN { tokens: chunk });
        }
    }
    acks.clear();
}

#[inline]
fn reply(dst: NodeId, cmd: &Command<'_>) {
    tls::with_sink(|s| s.emit(dst, cmd));
}

/// Performs a reply-data write through a task-provided destination
/// pointer, guarded against the task having abandoned the operation after
/// a deadline expiry (its stack frame may be gone by then). `units` is the
/// reply's operation, acquitted and not yet completed, which is what keeps
/// its task in reach.
///
/// While no deadline has ever been armed on this node the guard is one
/// `Acquire` load; once armed, the write brackets itself in the
/// writer-counter handshake of [`TaskControl::begin_reply_write`].
///
/// [`TaskControl::begin_reply_write`]: crate::task::TaskControl::begin_reply_write
#[inline]
fn reply_write(node: &NodeShared, units: &Units<'_>, write: impl FnOnce()) {
    use std::sync::atomic::Ordering;
    if !node.deadlines_armed.load(Ordering::Acquire) {
        write();
        return;
    }
    if units.begin_reply_write() {
        write();
    }
    units.end_reply_write();
}

/// Entry point of a helper thread. `chan` is the index of this helper's
/// channel queue to the communication server.
pub fn helper_main(node: Arc<NodeShared>, chan: usize, tracer: ThreadTracer) {
    tls::install(CommandSink::new(Arc::clone(&node.agg), chan));
    let me = node.sleepers.helpers.get(chan - node.config.num_workers);
    me.register();
    node.agg.channel(chan).wake_on_return(me.waker());
    let mut hs = HelperScratch::new();
    let mut edge = IdleEdge::default();
    let buffer_size = node.config.buffer_size;
    // Commands start after the transport header the sender reserved (the
    // communication server validated its presence before delivering).
    let hdr = node.agg.header_reserve();
    loop {
        let mut progressed = false;
        while let Some((src, buf)) = node.helper_in.pop() {
            let t0 = tracer.now_ns();
            let (executed, replies) = process_buffer(&node, src, &buf[hdr..], &mut hs, chan);
            tracer.span("process_buffer", t0, executed);
            if replies {
                // The whole buffer is applied: wake the workers whose
                // tasks its replies readied.
                node.sleepers.workers.wake_all();
            }
            // Buffer boundary: release pathological high-water marks.
            hs.shrink(buffer_size);
            progressed = true;
        }
        tls::with_sink(|s| s.pump());
        wake_comm_on_backlog(&node, chan);
        if progressed {
            edge.busy();
            continue;
        }
        if node.stopping() {
            break;
        }
        // `helper_in` is empty: no further request will add to the
        // replies generated so far, so ship them now, then sleep until a
        // buffer is delivered.
        if sleep_idle(&node, chan, me, &mut edge, || node.helper_in.backlog() > 0) {
            node.metrics.helper_sleeps.add(chan, 1);
        }
    }
    if let Some(mut sink) = tls::uninstall() {
        sink.flush_all();
    }
}
