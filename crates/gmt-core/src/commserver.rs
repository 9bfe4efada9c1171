//! The communication server: a node's single endpoint on the network
//! (§IV-A, §IV-B).
//!
//! It continuously polls every worker/helper channel queue for filled
//! aggregation buffers, transmits them **zero-copy** (the pooled buffer
//! travels to the receiver as-is and flows back into its pool when the
//! receiving helper drops the payload), and funnels incoming buffers to
//! the helpers. One communication server per node is a deliberate design
//! point of the paper: multi-threaded MPI performed poorly (Table II), so
//! GMT relies on aggregation — not endpoint parallelism — for bandwidth.
//!
//! This thread also drives the [`ReliableLink`] state machine, the
//! stand-in for the lossless delivery the paper gets from MPI: it stamps
//! sequence/ack headers onto outgoing buffers (keeping a shared payload
//! handle queued until the peer's cumulative ack arrives), deduplicates
//! inbound buffers, emits standalone acks when there is no return traffic
//! to piggyback on, retransmits the queue head with exponential backoff,
//! and declares peers dead when the retry budget runs out — failing every
//! affected request token with `GmtError::RemoteDead`. It also drives
//! end-to-end flow control: buffers beyond a peer's in-flight window are
//! held inside the link (the peer enters the **Backpressured** state —
//! slow, not dead), released as acks open the window, and the node's own
//! receive credit is re-advertised each sweep from the helper backlog. The
//! failure detector rides on the same sweep: idle links get heartbeats,
//! silent peers are suspected and eventually confirmed dead, and death
//! notices disseminate every confirmation so survivors converge on one
//! membership view (see [`crate::reliable`]). It additionally runs the
//! stuck-task watchdog sweep, since it is the one thread guaranteed to
//! keep spinning while every worker is parked.
//!
//! Channel polling is a fair round-robin: at most one buffer per channel
//! per sweep, so one chatty worker cannot starve the others' queues.

use crate::config::ACK_DELAY_NS;
use crate::idle::IdleBackoff;
use crate::metrics::ThreadTracer;
use crate::reliable::{DeathReason, DetectorConfig, PollAction, Recv, ReliableLink};
use crate::runtime::NodeShared;
use gmt_net::{LinkState, Payload, Tag, Transport};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Fabric tag used for aggregation buffers (data and standalone acks —
/// the reliability header's kind byte tells them apart).
pub const TAG_AGG: Tag = 1;

/// Transmits one payload, counting and logging failures.
/// The destination and buffer size go into the warning so a flaky link is
/// attributable from the log alone.
fn send(node: &NodeShared, transport: &dyn Transport, dst: crate::NodeId, payload: Payload) {
    let nbytes = payload.len();
    let shard = node.metrics.comm_shard();
    if let Err(e) = transport.send(dst, TAG_AGG, payload) {
        node.metrics.net_errors.add(shard, 1);
        eprintln!(
            "[gmt] warn: node {}: failed to send {nbytes} B aggregation buffer to node \
             {dst}: {e}",
            node.node_id
        );
    } else {
        node.metrics.comm_buffers_sent.add(shard, 1);
        node.metrics.comm_bytes_sent.add(shard, nbytes as u64);
    }
}

/// Ships one filled aggregation buffer through the reliability layer
/// (header stamp + retransmit queue + flow window). Buffers bound for a
/// dead peer are never sent — their request tokens fail immediately and
/// the buffer returns to its pool.
/// Buffers the flow window refuses are *held* inside the link (the peer
/// enters the Backpressured state) and drained by the release pass once
/// acks open the window again.
fn send_buffer(
    node: &NodeShared,
    transport: &dyn Transport,
    link: &mut ReliableLink,
    dst: crate::NodeId,
    payload: Payload,
    now_ns: u64,
) {
    if link.is_dead(dst) {
        // Emitted after (or racing) the death confirmation: the op table
        // still counts these operations — fail them now. Dropping
        // `payload` returns the buffer to its pool.
        fail_outstanding(node, dst);
        return;
    }
    let had_pending_ack = link.has_pending_ack(dst);
    match link.submit_data(dst, payload, now_ns) {
        Some(wire) => {
            if had_pending_ack {
                // This data buffer carries the deferred cumulative ack,
                // sparing a standalone ack packet.
                node.metrics.acks_piggybacked.add(node.metrics.comm_shard(), 1);
            }
            node.metrics.flow_window_occupancy.record(link.unacked(dst) as u64);
            send(node, transport, dst, wire);
        }
        None => {
            // Window full: the link holds the buffer, the peer is now
            // Backpressured (slow, not dead).
            let shard = node.metrics.comm_shard();
            node.metrics.flow_holds.add(shard, 1);
            if !node.agg.flow().is_backpressured(dst) {
                node.metrics.flow_backpressure_events.add(shard, 1);
                node.agg.flow().set_backpressured(dst, true);
            }
        }
    }
}

/// Wakes every task parked on flow-control admission. Spurious wakeups
/// are absorbed by the waiters' re-check loop (they re-enqueue themselves
/// if still backpressured), so draining unconditionally is always safe.
fn wake_flow_waiters(node: &NodeShared) {
    while let Some(token) = node.flow_waiters.pop() {
        // A waiter that retired since it queued itself is nobody's to wake.
        if let Some(ctl) = node.ops.current(token) {
            ctl.unpark_remote();
        }
    }
}

/// Routes one inbound packet: dedup and ack processing, then new data to
/// the helpers.
fn receive(
    node: &NodeShared,
    link: &mut ReliableLink,
    src: crate::NodeId,
    payload: Payload,
    now_ns: u64,
) {
    let shard = node.metrics.comm_shard();
    let nbytes = payload.len() as u64;
    match link.on_packet(src, &payload, now_ns) {
        Recv::Deliver => {
            node.metrics.comm_buffers_recv.add(shard, 1);
            node.metrics.comm_bytes_recv.add(shard, nbytes);
            node.helper_in.push((src, payload));
        }
        // Duplicates were already processed once; acks carry no commands;
        // anything from a dead peer must not touch tokens that already
        // completed with an error. All three just drop (the payload's
        // drop returns any pooled buffer to its sender's pool).
        Recv::Duplicate => {
            node.metrics.dedup_hits.add(shard, 1);
        }
        Recv::AckOnly | Recv::FromDead => {}
        Recv::Heartbeat => {
            node.metrics.heartbeats_recv.add(shard, 1);
        }
        Recv::Notice { dead } => {
            node.metrics.notices_received.add(shard, 1);
            if dead == node.node_id {
                // A survivor believes *we* are dead — there is no
                // protocol to rejoin, so just log it; our own traffic
                // to other survivors is unaffected.
                eprintln!(
                    "[gmt] warn: node {}: node {src} disseminated a death notice \
                     naming this node; ignoring",
                    node.node_id
                );
            } else if let Some(unacked) = link.confirm_death(dead) {
                apply_death(node, dead, unacked, "death notice received");
            }
        }
        Recv::Malformed => {
            node.metrics.net_errors.add(shard, 1);
            eprintln!(
                "[gmt] warn: node {}: dropping malformed {} B packet from node {src}",
                node.node_id,
                payload.len()
            );
        }
    }
}

/// Error-completes every operation still counted toward `dst` with
/// `GmtError::RemoteDead`, returning how many failed. Covers the full
/// in-flight window — unsent buffers, transport-unacked buffers, and
/// requests already delivered whose application reply died with the peer.
fn fail_outstanding(node: &NodeShared, dst: crate::NodeId) -> u32 {
    let mut failed = 0u32;
    // Draining a count transfers sole completion rights here: a reply that
    // arrives later finds nothing to take and is dropped whole.
    node.ops.drain_peer(dst, |units| {
        failed += units.count();
        units.record_remote_failures(dst, units.count());
    });
    node.metrics.ops_failed.add(node.metrics.comm_shard(), failed as u64);
    failed
}

/// Confirms a death in the node's membership view: marks the peer dead
/// (bumping the epoch exactly once), fails every operation still awaiting
/// a completion from it, and logs the cause. The reliability link has
/// already drained its own state and scheduled notice dissemination.
fn apply_death(node: &NodeShared, dst: crate::NodeId, unacked: Vec<Payload>, cause: &str) {
    let shard = node.metrics.comm_shard();
    if node.mark_peer_dead(dst) {
        node.metrics.peers_dead.add(shard, 1);
        node.metrics.epoch_bumps.add(shard, 1);
    }
    let failed = fail_outstanding(node, dst);
    // Death supersedes backpressure: clear the flag and wake any
    // flow-parked emitters so they observe the death instead of waiting
    // out their park deadline.
    node.agg.flow().set_backpressured(dst, false);
    wake_flow_waiters(node);
    eprintln!(
        "[gmt] warn: node {}: peer {dst} confirmed dead ({cause}); {failed} operation(s) \
         failed; {} unacked buffer(s) dropped",
        node.node_id,
        unacked.len()
    );
    // Dropping `unacked` releases the pooled buffers.
}

/// Applies the outcomes of one reliability timer sweep.
fn apply(node: &NodeShared, transport: &dyn Transport, action: PollAction) {
    let shard = node.metrics.comm_shard();
    match action {
        PollAction::Retransmit { dst, payload } => {
            node.metrics.retransmits.add(shard, 1);
            send(node, transport, dst, payload);
        }
        PollAction::SendAck { dst, payload } => {
            node.metrics.acks_standalone.add(shard, 1);
            send(node, transport, dst, payload);
        }
        PollAction::Heartbeat { dst, payload } => {
            node.metrics.heartbeats_sent.add(shard, 1);
            send(node, transport, dst, payload);
        }
        PollAction::SendNotice { dst, payload } => {
            node.metrics.notices_sent.add(shard, 1);
            send(node, transport, dst, payload);
        }
        PollAction::Suspect { dst } => {
            node.metrics.suspicions_raised.add(shard, 1);
            eprintln!(
                "[gmt] warn: node {}: peer {dst} is silent past the suspicion threshold",
                node.node_id
            );
        }
        PollAction::SuspectCleared { dst } => {
            node.metrics.suspicions_cleared.add(shard, 1);
            eprintln!("[gmt] warn: node {}: suspicion against peer {dst} cleared", node.node_id);
        }
        PollAction::Dead { dst, unacked, reason } => {
            let cause = match reason {
                DeathReason::RetryExhausted => "retry budget exhausted",
                DeathReason::HeartbeatTimeout => "silent past the death timeout",
            };
            apply_death(node, dst, unacked, cause);
        }
    }
}

/// Entry point of the communication-server thread. `emitters` are the
/// node's worker and helper threads: at shutdown the server keeps
/// sweeping until every one of them has returned from its final flush,
/// so its own last drain sees every buffer they filled, and then joins
/// them.
pub fn comm_main(
    node: Arc<NodeShared>,
    transport: Arc<dyn Transport>,
    tracer: ThreadTracer,
    emitters: Vec<JoinHandle<()>>,
) {
    let mut link = ReliableLink::new(
        node.node_id,
        node.nodes,
        node.config.rto_base_ns,
        node.config.rto_max_ns,
        node.config.max_retries,
        ACK_DELAY_NS,
        node.config.flow_window,
        DetectorConfig {
            heartbeat_idle_ns: node.config.heartbeat_idle_ns,
            death_timeout_ns: node.config.peer_death_timeout_ns,
        },
    );
    let mut actions: Vec<PollAction> = Vec::new();
    // Watchdog sweeps walk every claimed op-table slot; run them at a
    // quarter of the reporting deadline (floor 1 ms) for ±25% precision.
    // An armed operation deadline tightens the period the same way so
    // enforcement reacts within a quarter of the deadline too.
    let mut watchdog_period_ns = (node.config.stuck_task_deadline_ns / 4).max(1_000_000);
    if node.config.op_deadline_ns > 0 {
        watchdog_period_ns =
            watchdog_period_ns.min((node.config.op_deadline_ns / 4).max(1_000_000));
    }
    let mut next_watchdog_ns = watchdog_period_ns;
    // Link-state observation shares the heartbeat cadence: asking the
    // transport takes a lock, so it stays off the per-sweep path. It runs
    // whenever the detector does.
    let observe_kills = node.config.heartbeat_idle_ns > 0;
    let kill_check_period_ns = node.config.heartbeat_idle_ns.max(1);
    let mut next_kill_check_ns = 0u64;
    let mut backoff = IdleBackoff::default();
    // Coarse-clock stamp of the last sweep that moved traffic, for the
    // sweep-gap histogram.
    let mut last_progress_ns = node.agg.tick();
    // Flow-control bookkeeping: scratch vector for released buffers, plus
    // the last published values of the held gauge and the unacked
    // watermark (gauges move by delta, so the deltas are tracked here).
    let mut released: Vec<Payload> = Vec::new();
    let mut held_published: i64 = 0;
    let mut watermark_published: usize = 0;
    loop {
        // Keep the node's coarse clock fresh even when every worker is
        // stalled inside a long task and nobody pumps.
        let now = node.agg.tick();
        let mut progressed = false;
        let mut sent_this_sweep = 0u64;
        // Outgoing: one buffer per channel per sweep (fairness).
        for c in 0..node.agg.channels() {
            if let Some((dst, payload)) = node.agg.channel(c).pop_filled() {
                // Zero-copy: the pooled payload is handed straight to the
                // fabric; its final drop (receiver's, or the retransmit
                // queue's once acked) returns the buffer to this
                // channel's pool, as in the paper ("returns the
                // aggregation buffer into the pool").
                send_buffer(&node, &*transport, &mut link, dst, payload, now);
                sent_this_sweep += 1;
                progressed = true;
            }
        }
        // Incoming: hand received buffers to the helpers.
        while let Some(pkt) = transport.try_recv() {
            receive(&node, &mut link, pkt.src, pkt.payload, now);
            progressed = true;
        }
        // Re-advertise receive credit from the inbound backlog: a node
        // drowning in unprocessed buffers tells its peers to narrow their
        // windows toward it (piggybacked on every outgoing header). Floor
        // of 1 — the zero-credit probe keeps the link from wedging.
        let backlog = node.helper_in.len();
        let credit = node.config.flow_window.saturating_sub(backlog).max(1) as u16;
        link.set_local_credit(credit);
        if node.agg.flow().any() {
            // Release pass: acks processed above may have opened
            // windows — stamp and ship what each one now admits, and
            // clear the Backpressured state (waking flow-parked
            // emitters) once a held queue drains.
            for dst in 0..node.nodes {
                if !node.agg.flow().is_backpressured(dst) || link.is_dead(dst) {
                    continue;
                }
                let opened = link.release_window(dst, now, &mut released);
                for wire in released.drain(..) {
                    node.metrics.flow_window_occupancy.record(link.unacked(dst) as u64);
                    send(&node, &*transport, dst, wire);
                    progressed = true;
                }
                if opened {
                    node.agg.flow().set_backpressured(dst, false);
                    wake_flow_waiters(&node);
                    progressed = true;
                }
            }
        }
        // Publish the held-buffer gauge and the unacked watermark
        // (both by delta — gauges have no set). The O(nodes) scan is
        // cheap at in-process cluster sizes and also absorbs held
        // buffers drained by a death.
        let mut held_now: i64 = 0;
        let mut watermark = watermark_published;
        for dst in 0..node.nodes {
            held_now += link.held_len(dst) as i64;
            watermark = watermark.max(link.unacked_watermark(dst));
        }
        if held_now != held_published {
            node.metrics.flow_held.add(held_now - held_published);
            held_published = held_now;
        }
        if watermark > watermark_published {
            node.metrics.flow_unacked_watermark.add((watermark - watermark_published) as i64);
            watermark_published = watermark;
        }
        if observe_kills && now >= next_kill_check_ns {
            next_kill_check_ns = now + kill_check_period_ns;
            for peer in 0..node.nodes {
                if peer == node.node_id || link.is_dead(peer) {
                    continue;
                }
                // First-hand connection loss and an injected fabric
                // kill arrive through the same observation; the
                // cause says which evidence fired, and the log line
                // below is the only place it is printed.
                if let LinkState::Down(cause) = transport.link_state(peer) {
                    if let Some(unacked) = link.confirm_death(peer) {
                        apply_death(&node, peer, unacked, &cause.to_string());
                        progressed = true;
                    }
                }
            }
        }
        // Reliability timers: standalone acks, retransmits, heartbeats,
        // suspicion, death, notice dissemination.
        link.poll(now, &mut actions);
        for a in actions.drain(..) {
            apply(&node, &*transport, a);
            progressed = true;
        }
        if now >= next_watchdog_ns {
            next_watchdog_ns = now + watchdog_period_ns;
            node.sweep_stuck_tasks(now);
            // Periodic flow-waiter drain: the lost-wake safety net. A
            // waiter that enqueued itself after the release pass cleared
            // its peer wakes at the latest here, re-checks, and proceeds.
            wake_flow_waiters(&node);
        }
        if progressed {
            node.metrics.sweep_gap_ns.record(now.saturating_sub(last_progress_ns));
            last_progress_ns = now;
            if sent_this_sweep > 0 {
                node.metrics.sweep_buffers.record(sent_this_sweep);
                tracer.instant("sweep_send", sent_this_sweep);
            }
            backoff.reset();
        } else {
            if node.stopping() {
                // Release every flow-parked emitter: it observes
                // `stopping` and returns.
                wake_flow_waiters(&node);
                if emitters.iter().all(JoinHandle::is_finished) {
                    break;
                }
            }
            // The communication server holds nothing of its own to flush.
            backoff.wait(|| true);
        }
    }
    // The final drain, after the emitters' last flushes, so peers unblock
    // during shutdown; sweep round-robin until every channel is empty.
    loop {
        let now = node.agg.tick();
        let mut progressed = false;
        for c in 0..node.agg.channels() {
            if let Some((dst, payload)) = node.agg.channel(c).pop_filled() {
                send_buffer(&node, &*transport, &mut link, dst, payload, now);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    // Every emitter has finished, so nothing refills a channel once
    // `link` drops here and its still-unacked payloads go back to their
    // pools: the pools are whole after shutdown.
    drop(link);
    for t in emitters {
        let _ = t.join();
    }
}
