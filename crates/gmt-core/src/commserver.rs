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
//! Between the channels and the wire sits the [`ReliableLink`], the
//! stand-in for the lossless delivery the paper gets from MPI, and this
//! thread is its driver. Each sweep feeds it four kinds of [`Event`] —
//! every filled buffer, every inbound packet, a peer's link observed down
//! (asked of the transport at heartbeat cadence), and one tick carrying
//! the node's receive credit, recomputed from the helper backlog — and
//! applies each [`Action`] it returns in one `match`: send, hand to the
//! helpers, count, log, mark a peer backpressured (waking flow-parked
//! emitters when its window opens), and on a confirmed death mirror it
//! into the node's membership view and fail every operation still counted
//! toward the peer with `GmtError::RemoteDead`. Sequencing, acks,
//! retransmission, the flow window, the failure detector and death
//! notices are the link's decisions (see [`crate::reliable`]). The thread
//! additionally runs the stuck-task watchdog sweep, since it is the one
//! thread guaranteed to keep spinning while every worker is parked.
//!
//! Channel polling is a fair round-robin: at most one buffer per channel
//! per sweep, so one chatty worker cannot starve the others' queues.

use crate::config::{ACK_DELAY_NS, RTO_MAX_NS, RTO_MIN_NS};
use crate::idle::IdleBackoff;
use crate::metrics::ThreadTracer;
use crate::reliable::{Action, Event, ReliableLink, SendKind};
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

/// Applies one action of the link: the only place its decisions reach the
/// wire, the helpers, the op table, the flow state and the counters.
fn apply(node: &NodeShared, transport: &dyn Transport, action: Action) {
    let m = &node.metrics;
    let shard = m.comm_shard();
    match action {
        Action::Send { dst, payload, kind } => {
            match kind {
                SendKind::Data { piggybacked_ack, was_held, occupancy } => {
                    if piggybacked_ack {
                        m.acks_piggybacked.add(shard, 1);
                    }
                    if was_held {
                        m.flow_held.dec();
                    }
                    m.flow_window_occupancy.record(occupancy as u64);
                    // This thread is the gauge's only writer: a max by delta.
                    let rise = occupancy as i64 - m.flow_unacked_watermark.get();
                    if rise > 0 {
                        m.flow_unacked_watermark.add(rise);
                    }
                }
                SendKind::Retransmit => m.retransmits.add(shard, 1),
                SendKind::Ack => m.acks_standalone.add(shard, 1),
                SendKind::Heartbeat => m.heartbeats_sent.add(shard, 1),
                SendKind::Notice => m.notices_sent.add(shard, 1),
            }
            send(node, transport, dst, payload);
        }
        Action::Deliver { src, payload } => {
            m.comm_buffers_recv.add(shard, 1);
            m.comm_bytes_recv.add(shard, payload.len() as u64);
            node.helper_in.push((src, payload));
        }
        Action::Refused { dst, payload } => {
            // The op table still counts these operations: fail them now.
            // Dropping `payload` returns the buffer to its pool.
            fail_outstanding(node, dst);
            drop(payload);
        }
        Action::Held { dst, entered } => {
            m.flow_holds.add(shard, 1);
            m.flow_held.inc();
            if entered {
                m.flow_backpressure_events.add(shard, 1);
                node.agg.flow().set_backpressured(dst, true);
            }
        }
        Action::WindowOpen { dst } => {
            node.agg.flow().set_backpressured(dst, false);
            wake_flow_waiters(node);
        }
        Action::Suspect { dst, raised: true } => {
            m.suspicions_raised.add(shard, 1);
            eprintln!(
                "[gmt] warn: node {}: peer {dst} is silent past the suspicion threshold",
                node.node_id
            );
        }
        Action::Suspect { dst, raised: false } => {
            m.suspicions_cleared.add(shard, 1);
            eprintln!("[gmt] warn: node {}: suspicion against peer {dst} cleared", node.node_id);
        }
        Action::Dead { dst, unacked, held, cause } => {
            // Mirror the death into the membership view, bumping the
            // epoch exactly once.
            if node.mark_peer_dead(dst) {
                m.peers_dead.add(shard, 1);
                m.epoch_bumps.add(shard, 1);
            }
            m.flow_held.add(-(held.len() as i64));
            let failed = fail_outstanding(node, dst);
            // Death supersedes backpressure: clear the flag and wake any
            // flow-parked emitters so they observe the death instead of
            // waiting out their park deadline.
            node.agg.flow().set_backpressured(dst, false);
            wake_flow_waiters(node);
            eprintln!(
                "[gmt] warn: node {}: peer {dst} confirmed dead ({cause}); {failed} \
                 operation(s) failed; {} unacked buffer(s) dropped",
                node.node_id,
                unacked.len() + held.len()
            );
            // Dropping `unacked` and `held` releases the pooled buffers.
        }
        Action::Duplicate => m.dedup_hits.add(shard, 1),
        Action::HeartbeatIn => m.heartbeats_recv.add(shard, 1),
        Action::NoticeIn { src, dead } => {
            m.notices_received.add(shard, 1);
            if dead == node.node_id {
                // A survivor believes *we* are dead — there is no
                // protocol to rejoin, so just log it; our own traffic
                // to other survivors is unaffected.
                eprintln!(
                    "[gmt] warn: node {}: node {src} disseminated a death notice \
                     naming this node; ignoring",
                    node.node_id
                );
            }
        }
        Action::Malformed { src, len } => {
            m.net_errors.add(shard, 1);
            eprintln!(
                "[gmt] warn: node {}: dropping malformed {len} B packet from node {src}",
                node.node_id
            );
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
        RTO_MIN_NS,
        RTO_MAX_NS,
        ACK_DELAY_NS,
        node.config.flow_window,
        node.config.peer_death_timeout_ns,
    );
    // Link-state observation runs on the link's heartbeat cadence:
    // asking the transport takes a lock, so it stays off the per-sweep
    // path.
    let kill_check_period_ns = link.heartbeat_ns();
    let mut actions: Vec<Action> = Vec::new();
    // Feeds one event to the link and applies what it asks for; `true`
    // if it asked for anything.
    let mut feed = |now: u64, event: Event| {
        link.step(now, event, &mut actions);
        let any = !actions.is_empty();
        for a in actions.drain(..) {
            apply(&node, &*transport, a);
        }
        any
    };
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
    let mut next_kill_check_ns = 0u64;
    let mut backoff = IdleBackoff::default();
    // Coarse-clock stamp of the last sweep that moved traffic, for the
    // sweep-gap histogram.
    let mut last_progress_ns = node.agg.tick();
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
                feed(now, Event::Send { dst, payload });
                sent_this_sweep += 1;
                progressed = true;
            }
        }
        // Incoming: acks, dedup, and new data to the helpers.
        while let Some(pkt) = transport.try_recv() {
            feed(now, Event::Packet { src: pkt.src, payload: pkt.payload });
            progressed = true;
        }
        if now >= next_kill_check_ns {
            next_kill_check_ns = now + kill_check_period_ns;
            for peer in 0..node.nodes {
                if peer == node.node_id || node.peer_is_dead(peer) {
                    continue;
                }
                // First-hand connection loss and an injected fabric
                // kill arrive through the same observation; the cause
                // says which evidence fired, and the death's log line
                // is the only place it is printed.
                if let LinkState::Down(cause) = transport.link_state(peer) {
                    progressed |= feed(now, Event::Down { peer, cause });
                }
            }
        }
        // Receive credit from the inbound backlog: a node drowning in
        // unprocessed buffers tells its peers to narrow their windows
        // toward it (piggybacked on every outgoing header). Floor of 1 —
        // the zero-credit probe keeps the link from wedging.
        let backlog = node.helper_in.len();
        let credit = node.config.flow_window.saturating_sub(backlog).max(1) as u16;
        // Timers: standalone acks, retransmits, heartbeats, suspicion,
        // death, notice dissemination.
        progressed |= feed(now, Event::Tick { credit });
        if now >= next_watchdog_ns {
            next_watchdog_ns = now + watchdog_period_ns;
            node.sweep_stuck_tasks(now);
            // Periodic flow-waiter drain: the lost-wake safety net. A
            // waiter that enqueued itself after its peer's window opened
            // wakes at the latest here, re-checks, and proceeds.
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
            backoff.wait(|| {});
        }
    }
    // The final drain, after the emitters' last flushes, so peers unblock
    // during shutdown; sweep round-robin until every channel is empty.
    loop {
        let now = node.agg.tick();
        let mut progressed = false;
        for c in 0..node.agg.channels() {
            if let Some((dst, payload)) = node.agg.channel(c).pop_filled() {
                feed(now, Event::Send { dst, payload });
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
