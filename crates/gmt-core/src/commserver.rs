//! The communication server: a node's single endpoint on the network
//! (§IV-A, §IV-B).
//!
//! It sweeps every worker/helper channel queue for filled aggregation
//! buffers, transmits them **zero-copy** (the pooled buffer travels to
//! the receiver as-is and flows back into its pool when the receiving
//! helper drops the payload), and funnels incoming buffers to the
//! helpers. One communication server per node is a deliberate design
//! point of the paper: multi-threaded MPI performed poorly (Table II), so
//! GMT relies on aggregation — not endpoint parallelism — for bandwidth.
//!
//! Between the channels and the wire sits the [`ReliableLink`], the
//! stand-in for the lossless delivery the paper gets from MPI, and this
//! thread is its driver. Each sweep feeds it four kinds of [`Event`] —
//! every filled buffer, every inbound packet, a peer's link observed down
//! (asked of the transport at heartbeat cadence), and one tick carrying
//! the node's receive credit, the helpers' backlog read from one counter
//! ([`HelperInbox::backlog`]) — and
//! applies each [`Action`] it returns in one `match`: send, hand to the
//! helpers, count, log, mark a peer backpressured while the link holds
//! buffers for it (the watchdog excuses tasks waiting on such a peer),
//! and on a confirmed death mirror it
//! into the node's membership view and fail every operation still counted
//! toward the peer with `GmtError::RemoteDead`. Sequencing, acks,
//! retransmission, the flow window, the failure detector and death
//! notices are the link's decisions (see [`crate::reliable`]). The thread
//! also runs the stuck-task watchdog sweep and is the only thread that
//! ticks the node's coarse clock, once per sweep.
//!
//! Channel polling is a fair round-robin: at most one buffer per channel
//! per sweep, so one chatty worker cannot starve the others' queues.
//!
//! # Sleeping, and who wakes whom
//!
//! A sweep that moved nothing ends in a sleep (see [`crate::idle`]) until
//! the earliest deadline the thread already knows — the link's next timer
//! ([`ReliableLink::next_due_ns`]: ack delay, retransmit, heartbeat,
//! suspicion, death, notice), the next kill check or watchdog sweep — or
//! until a producer wakes it. The clock therefore moves on each wake, and
//! only then; a fixed short timer instead would age every open command
//! block on every wake and cut buffers short. The wakes, each at a batch
//! boundary:
//!
//! * every inbox arrival wakes this thread: the transport's arrival hook
//!   ([`Transport::wake_on_arrival`]), which the sim and TCP honour;
//! * a worker or helper wakes it on its idle edge when the flush filled
//!   its channel, and whenever its channel holds two filled buffers;
//! * this thread wakes the helpers once per sweep that delivered a buffer;
//! * a helper wakes the workers once per processed buffer, after all of
//!   it is applied; root and iteration-block pushes wake the workers, and
//!   a worker that re-queues a block it peeled passes the wake on;
//! * every other readying of a task wakes the workers where it happens:
//!   a death's [`fail_outstanding`], the watchdog's deadline fire
//!   ([`NodeShared::sweep_stuck_tasks`]), a worker finishing a local
//!   iteration block whose parent another worker owns;
//! * a buffer coming back to a pool wakes its thread while that thread
//!   has blocks stranded by the dry pool;
//! * shutdown wakes everyone.
//!
//! Over shm nothing watches the rings, so a peer's frame wakes nobody:
//! there, and only there, this thread still polls — it yields for a few
//! idle sweeps, then sleeps [`SHM_POLL`] at a time (still woken early by
//! the node's own threads). Every backend polls once more during
//! shutdown, until the emitters' final flushes are done ([`STOP_POLL`]).
//!
//! [`HelperInbox::backlog`]: crate::helper::HelperInbox::backlog
//! [`NodeShared::sweep_stuck_tasks`]: crate::runtime::NodeShared::sweep_stuck_tasks

use crate::config::{ACK_DELAY_NS, RTO_MAX_NS, RTO_MIN_NS};
use crate::metrics::ThreadTracer;
use crate::reliable::{Action, Event, ReliableLink, SendKind};
use crate::runtime::NodeShared;
use gmt_net::{LinkState, Packet, Payload, Tag, Transport};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Fabric tag used for aggregation buffers (data and standalone acks —
/// the reliability header's kind byte tells them apart).
pub const TAG_AGG: Tag = 1;

/// Idle sweeps over shm that only yield before the server sleeps.
const SHM_YIELD_SWEEPS: u32 = 64;

/// The longest sleep over shm, where a peer's frame wakes nobody.
const SHM_POLL: Duration = Duration::from_micros(50);

/// The longest sleep during shutdown: an emitter's final `flush_all`
/// spins on pool buffers that only this thread's sends give back, and
/// fills channels without waking anybody; its exit wakes nobody either.
const STOP_POLL: Duration = Duration::from_micros(50);

/// The receive credit a node advertises with `backlog` delivered buffers
/// not yet taken by its helpers: a node drowning in unprocessed buffers
/// tells its peers to narrow their windows toward it (piggybacked on
/// every outgoing header). Floor of 1 — the zero-credit probe keeps the
/// link from wedging.
fn receive_credit(flow_window: usize, backlog: usize) -> u16 {
    flow_window.saturating_sub(backlog).max(1) as u16
}

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

/// Error-completes every operation still counted toward `dst` with
/// `GmtError::RemoteDead`, returning how many failed. Covers the full
/// in-flight window — unsent buffers, transport-unacked buffers, and
/// requests already delivered whose application reply died with the peer.
fn fail_outstanding(node: &NodeShared, dst: crate::NodeId) -> u32 {
    let mut failed = 0u32;
    // Draining a count transfers sole completion rights here: a reply that
    // arrives later finds nothing to take and is dropped whole.
    // Each batch is counted before its `Units` drop completes it: the
    // woken task may read `reliable.ops_failed` at once.
    node.ops.drain_peer(dst, |units| {
        failed += units.count();
        node.metrics.ops_failed.add(node.metrics.comm_shard(), units.count() as u64);
        units.record_remote_failures(dst, units.count());
    });
    // The failed tasks' workers may sleep.
    node.sleepers.workers.wake_all();
    failed
}

/// Applies one action of the link: the only place its decisions reach the
/// wire, the helpers, the op table, the flow state and the counters.
/// Returns whether it handed a buffer to the helpers.
fn apply(node: &NodeShared, transport: &dyn Transport, action: Action) -> bool {
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
            node.helper_in.push(src, payload);
            return true;
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
                node.flow.set_backpressured(dst, true);
            }
        }
        Action::WindowOpen { dst } => node.flow.set_backpressured(dst, false),
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
            // Death supersedes backpressure.
            node.flow.set_backpressured(dst, false);
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
    false
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
    let me = &node.sleepers.comm;
    me.register();
    let polled_rings = !transport.wake_on_arrival(me.waker());
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
    // Feeds one event to the link and applies what it asks for: whether
    // it asked for anything, and whether that handed the helpers a buffer.
    let mut feed = |link: &mut ReliableLink, now: u64, event: Event| {
        link.step(now, event, &mut actions);
        let any = !actions.is_empty();
        let mut delivered = false;
        for a in actions.drain(..) {
            delivered |= apply(&node, &*transport, a);
        }
        (any, delivered)
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
    let mut idle_sweeps = 0u32;
    // A packet the sleep's recheck took off the transport.
    let mut stashed: Option<Packet> = None;
    // Coarse-clock stamp of the last sweep that moved traffic, for the
    // sweep-gap histogram.
    let mut last_progress_ns = node.agg.tick();
    loop {
        // The node's coarse clock moves here, once per sweep.
        let now = node.agg.tick();
        let mut progressed = false;
        let mut delivered = false;
        let mut sent_this_sweep = 0u64;
        // Outgoing: one buffer per channel per sweep (fairness).
        for c in 0..node.agg.channels() {
            if let Some((dst, payload)) = node.agg.channel(c).pop_filled() {
                // Zero-copy: the pooled payload is handed straight to the
                // fabric; its final drop (receiver's, or the retransmit
                // queue's once acked) returns the buffer to this
                // channel's pool, as in the paper ("returns the
                // aggregation buffer into the pool").
                feed(&mut link, now, Event::Send { dst, payload });
                sent_this_sweep += 1;
                progressed = true;
            }
        }
        // Incoming: acks, dedup, and new data to the helpers.
        while let Some(pkt) = stashed.take().or_else(|| transport.try_recv()) {
            delivered |=
                feed(&mut link, now, Event::Packet { src: pkt.src, payload: pkt.payload }).1;
            progressed = true;
        }
        if delivered {
            node.sleepers.helpers.wake_all();
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
                    progressed |= feed(&mut link, now, Event::Down { peer, cause }).0;
                }
            }
        }
        let credit = receive_credit(node.config.flow_window, node.helper_in.backlog());
        // Timers: standalone acks, retransmits, heartbeats, suspicion,
        // death, notice dissemination.
        progressed |= feed(&mut link, now, Event::Tick { credit }).0;
        if now >= next_watchdog_ns {
            next_watchdog_ns = now + watchdog_period_ns;
            node.sweep_stuck_tasks(now);
        }
        if progressed {
            node.metrics.sweep_gap_ns.record(now.saturating_sub(last_progress_ns));
            last_progress_ns = now;
            if sent_this_sweep > 0 {
                node.metrics.sweep_buffers.record(sent_this_sweep);
                tracer.instant("sweep_send", sent_this_sweep);
            }
            idle_sweeps = 0;
            continue;
        }
        let stopping = node.stopping();
        if stopping && emitters.iter().all(JoinHandle::is_finished) {
            break;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if polled_rings && idle_sweeps < SHM_YIELD_SWEEPS {
            std::thread::yield_now();
            continue;
        }
        // Nothing to do before the earliest deadline this thread knows,
        // unless a producer wakes it.
        let due = link.next_due_ns().min(next_watchdog_ns).min(next_kill_check_ns);
        let mut timeout = Duration::from_nanos(due.saturating_sub(now));
        if polled_rings {
            timeout = timeout.min(SHM_POLL);
        }
        if stopping {
            timeout = timeout.min(STOP_POLL);
        }
        let parked = me.sleep(Some(timeout), || {
            stashed = transport.try_recv();
            stashed.is_some() || (0..node.agg.channels()).any(|c| node.agg.channel(c).backlog() > 0)
        });
        if parked {
            node.metrics.comm_sleeps.add(node.metrics.comm_shard(), 1);
        }
    }
    // The final drain, after the emitters' last flushes, so peers unblock
    // during shutdown; sweep round-robin until every channel is empty.
    loop {
        let now = node.agg.tick();
        let mut progressed = false;
        for c in 0..node.agg.channels() {
            if let Some((dst, payload)) = node.agg.channel(c).pop_filled() {
                feed(&mut link, now, Event::Send { dst, payload });
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

#[cfg(test)]
mod tests {
    use super::receive_credit;
    use crate::helper::HelperInbox;
    use gmt_net::Payload;

    #[test]
    fn the_credit_follows_the_helper_backlog() {
        let inbox = HelperInbox::default();
        let credit = |inbox: &HelperInbox| receive_credit(8, inbox.backlog());
        assert_eq!(credit(&inbox), 8);
        for n in 1..=3 {
            inbox.push(1, Payload::from(vec![n]));
            assert_eq!(inbox.backlog(), n as usize);
        }
        assert_eq!(credit(&inbox), 5);
        assert_eq!(inbox.pop().map(|(src, p)| (src, p.to_vec())), Some((1, vec![1])));
        assert_eq!(credit(&inbox), 6);
        for n in 4..=12 {
            inbox.push(0, Payload::from(vec![n]));
        }
        assert_eq!(inbox.backlog(), 11);
        assert_eq!(credit(&inbox), 1, "a drowning node still advertises the probe's one");
        while inbox.pop().is_some() {}
        assert_eq!((inbox.backlog(), credit(&inbox)), (0, 8));
    }
}
