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
//! thread is its driver (over TCP it lends it to the readers; see below).
//! Each sweep feeds it four kinds of [`Event`] —
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
//! # TCP arrivals are stepped by the reader that read them
//!
//! In the paper the communication server does the (MPI) receives itself.
//! Over TCP a reader thread per inbound link does the `read`, and handing
//! every arrival on to this thread cost a futex wake, a switch and a
//! sweep per frame — on one CPU, most of a dependent hop's CPU. So the
//! link sits behind a lock (`SharedLink`), and the transport offers each
//! read's frames to an [`ArrivalHook`] first. The hook `try_lock`s the
//! link; if it is free, it steps what the inbox holds — packets readers
//! queued while the lock was busy, so each link stays FIFO — and then its
//! own frames, applies the actions, and wakes the helpers once. If the
//! lock is busy, the frames go to the inbox and this thread is woken,
//! as before. A reader never blocks: not on the lock, and not in a write
//! — the sends its step asks for (held buffers a reopened window admits)
//! wait for this thread's next sweep, which it wakes for them. It steps
//! with a fresh reading of the node's clock that it does not publish:
//! this thread stays the coarse clock's only writer. This thread steps
//! the link only under the lock too, and its sleep's recheck steps what
//! it finds there: a packet taken off the inbox and stepped later could
//! follow a newer one of its link. When this thread leaves, the link
//! leaves with it and readers fall back to the inbox. The sim and shm
//! have no reader threads and decline the hook.
//!
//! A reader's step leaves deadlines behind, almost always an ack owed in
//! `ACK_DELAY_NS`. Before this thread sleeps it publishes when it will
//! next look at the link by itself (`comm_wake_ns`, 0 while it sweeps);
//! a reader whose deadline falls earlier lowers the node's ticker
//! deadline ([`Ticker`]) instead of waking this thread. The ticker thread
//! (`gmt-n<node>-tick`) parks until that deadline, at most
//! `ACK_DELAY_NS` at a time, and wakes this thread once it has passed;
//! every sweep clears it, since the sweep serves every timer and the next
//! sleep counts what readers stepped. With nothing owed the ticker parks
//! untimed, and it stays there while the node keeps sending: a read that
//! handed the helpers a buffer leaves the ticker's wake to them and the
//! workers they wake, who usually send next (a reply, the next request),
//! and this thread's sweep for that serves the deadline. Only the last of
//! them to go to sleep without having woken this thread wakes the ticker
//! (`idle::sleep_idle`). This thread's own sleep stays timed to its own
//! deadlines only.
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
//! * an arrival the sim puts in the inbox wakes this thread
//!   ([`Transport::wake_on_arrival`]); a TCP read wakes it only when the
//!   reader found the link busy and queued its frames — once per read —
//!   or when its step left sends for this thread;
//! * a TCP reader that stepped its frames wakes the helpers once per
//!   read that delivered a buffer; it wakes the ticker when it leaves the
//!   first deadline owed and delivered nothing, or finds one owed past
//!   its time; the last worker or helper to sleep without having woken
//!   this thread wakes the ticker for a deadline still owed; the ticker
//!   wakes this thread once that deadline has passed;
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
//! [`Ticker`]: crate::idle::Ticker
//! [`Transport::wake_on_arrival`]: gmt_net::Transport::wake_on_arrival
//! [`NodeShared::sweep_stuck_tasks`]: crate::runtime::NodeShared::sweep_stuck_tasks

use crate::config::{ACK_DELAY_NS, RTO_MAX_NS, RTO_MIN_NS};
use crate::metrics::ThreadTracer;
use crate::reliable::{Action, Event, ReliableLink, SendKind};
use crate::runtime::NodeShared;
use gmt_net::{ArrivalHook, LinkState, Packet, Payload, Tag};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
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
fn send(node: &NodeShared, dst: crate::NodeId, payload: Payload) {
    let nbytes = payload.len();
    let shard = node.metrics.comm_shard();
    if let Err(e) = node.transport.send(dst, TAG_AGG, payload) {
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
fn apply(node: &NodeShared, action: Action) -> bool {
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
                    // Written under the link's lock only: a max by delta.
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
            send(node, dst, payload);
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

/// The node's [`ReliableLink`] and what applying its actions takes. The
/// comm server holds it for each sweep; a TCP reader borrows it whenever
/// it finds the lock free.
struct Driver {
    node: Arc<NodeShared>,
    link: ReliableLink,
    actions: Vec<Action>,
    /// Sends a reader's step asked for, in order: a reader never writes
    /// to a socket, so it cannot block the reads that would drain its
    /// peer. The comm server's next sweep sends them before anything else.
    sends: Vec<Action>,
}

impl Driver {
    /// Feeds one event to the link and applies what it asks for — but
    /// only the comm server `writes`; a reader leaves the sends in
    /// `sends`. Whether the link asked for anything, and whether that
    /// handed the helpers a buffer.
    fn feed(&mut self, now: u64, event: Event, writes: bool) -> (bool, bool) {
        self.link.step(now, event, &mut self.actions);
        let any = !self.actions.is_empty();
        let mut delivered = false;
        for a in self.actions.drain(..) {
            match a {
                Action::Send { .. } if !writes => self.sends.push(a),
                a => delivered |= apply(&self.node, a),
            }
        }
        (any, delivered)
    }

    /// Sends what readers' steps asked for, in their order: whether there
    /// was anything.
    fn send_parked(&mut self) -> bool {
        let any = !self.sends.is_empty();
        for a in self.sends.drain(..) {
            apply(&self.node, a);
        }
        any
    }

    /// Steps every packet queued in the transport's inbox, oldest first:
    /// whether there was one, and whether one went to the helpers.
    fn take_inbox(&mut self, now: u64, writes: bool) -> (bool, bool) {
        let (mut any, mut delivered) = (false, false);
        while let Some(pkt) = self.node.transport.try_recv() {
            any = true;
            let event = Event::Packet { src: pkt.src, payload: pkt.payload };
            delivered |= self.feed(now, event, writes).1;
        }
        (any, delivered)
    }
}

/// The link is in its lock from the comm server's start to its exit.
const HELD: &str = "the link leaves with the comm server";

/// The node's link behind its lock, shared by the comm server and the TCP
/// readers' arrival hook (see "TCP arrivals are stepped by the reader that
/// read them" in the module docs).
struct SharedLink {
    /// `None` once the comm server has left: readers then queue in the
    /// inbox.
    driver: Mutex<Option<Driver>>,
    /// When the comm server looks at the link's timers next by itself: 0
    /// while it sweeps, its sleep's deadline from the moment it decides to
    /// sleep. Written and read under the lock. A reader's deadline before
    /// it is owed to the node's ticker (`NodeSleepers::ticker`).
    comm_wake_ns: AtomicU64,
}

impl SharedLink {
    /// The comm server's hold on the link for one sweep. It is awake from
    /// here on: its sweeps serve every timer, and the sleep it next decides
    /// on counts whatever a reader stepped before.
    fn sweep(&self) -> MutexGuard<'_, Option<Driver>> {
        let guard = self.driver.lock();
        self.comm_wake_ns.store(0, Ordering::Relaxed);
        guard.as_ref().expect(HELD).node.sleepers.ticker.clear();
        guard
    }
}

impl ArrivalHook for SharedLink {
    /// A TCP reader's frames: stepped here when the lock is free, after
    /// what readers queued while it was not, so each link stays FIFO.
    fn arrived(&self, pkts: &mut Vec<Packet>) {
        let Some(mut guard) = self.driver.try_lock() else { return };
        let Some(d) = guard.as_mut() else { return };
        // The comm server alone publishes the clock; this reading only
        // times the steps.
        let now = d.node.agg.elapsed_ns();
        let mut delivered = d.take_inbox(now, false).1;
        for pkt in pkts.drain(..) {
            let event = Event::Packet { src: pkt.src, payload: pkt.payload };
            delivered |= d.feed(now, event, false).1;
        }
        // Almost always an ack owed in `ACK_DELAY_NS`, owed to the ticker
        // if the comm server sleeps past it. A read that woke the helpers
        // leaves the ticker to them and the workers they wake (see
        // `idle::Ticker`); one that finds a deadline owed past its time
        // wakes it whatever it read.
        let due = d.link.next_due_ns();
        let ticker = &d.node.sleepers.ticker;
        let mut wake_ticker = ticker.owed() <= now;
        if due < self.comm_wake_ns.load(Ordering::Relaxed) {
            wake_ticker |= ticker.lower(due) && !delivered;
        }
        let node = Arc::clone(&d.node);
        let send = !d.sends.is_empty();
        drop(guard);
        if delivered {
            node.sleepers.helpers.wake_all();
        }
        if wake_ticker {
            node.sleepers.ticker.wake();
        }
        if send {
            node.sleepers.comm.wake();
        }
    }
}

/// Entry point of the communication-server thread. `emitters` are the
/// node's worker and helper threads: at shutdown the server keeps
/// sweeping until every one of them has returned from its final flush,
/// so its own last drain sees every buffer they filled, and then joins
/// them.
pub fn comm_main(node: Arc<NodeShared>, tracer: ThreadTracer, emitters: Vec<JoinHandle<()>>) {
    let transport = &*node.transport;
    let me = &node.sleepers.comm;
    me.register();
    let polled_rings = !transport.wake_on_arrival(me.waker());
    let link = ReliableLink::new(
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
    let driver = Driver { node: Arc::clone(&node), link, actions: Vec::new(), sends: Vec::new() };
    let shared =
        Arc::new(SharedLink { driver: Mutex::new(Some(driver)), comm_wake_ns: AtomicU64::new(0) });
    let readers_step = transport.set_arrival_hook(Arc::clone(&shared) as Arc<dyn ArrivalHook>);
    std::thread::scope(|scope| {
        if readers_step {
            let spawned = std::thread::Builder::new()
                .name(format!("gmt-n{}-tick", node.node_id))
                .spawn_scoped(scope, || {
                    let period = Duration::from_nanos(ACK_DELAY_NS);
                    let ticker = &node.sleepers.ticker;
                    ticker.run(period, || node.agg.elapsed_ns(), me, || node.stopping());
                });
            if let Err(e) = spawned {
                eprintln!(
                    "[gmt] warn: node {}: no ticker thread ({e}); acks the TCP readers owe wait \
                     for the comm server's own wakes",
                    node.node_id
                );
            }
        }
        serve(&node, &shared, kill_check_period_ns, polled_rings, &tracer, &emitters);
        // The ticker sees the stop.
        node.sleepers.ticker.wake();
    });
    // The final drain, after the emitters' last flushes, so peers unblock
    // during shutdown; sweep round-robin until every channel is empty.
    let driver = {
        let mut guard = shared.sweep();
        let d = guard.as_mut().expect(HELD);
        d.send_parked();
        loop {
            let now = node.agg.tick();
            let mut progressed = false;
            for c in 0..node.agg.channels() {
                if let Some((dst, payload)) = node.agg.channel(c).pop_filled() {
                    d.feed(now, Event::Send { dst, payload }, true);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        guard.take()
    };
    // Every emitter has finished, so nothing refills a channel once the
    // link drops here and its still-unacked payloads go back to their
    // pools: the pools are whole after shutdown. Readers find no link from
    // now on and queue in the inbox.
    drop(driver);
    for t in emitters {
        let _ = t.join();
    }
}

/// The comm server's sweeps, until the node stops and every emitter has
/// finished.
fn serve(
    node: &NodeShared,
    shared: &SharedLink,
    kill_check_period_ns: u64,
    polled_rings: bool,
    tracer: &ThreadTracer,
    emitters: &[JoinHandle<()>],
) {
    let me = &node.sleepers.comm;
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
    // Coarse-clock stamp of the last sweep that moved traffic, for the
    // sweep-gap histogram.
    let mut last_progress_ns = node.agg.tick();
    loop {
        let mut guard = shared.sweep();
        let d = guard.as_mut().expect(HELD);
        // The node's coarse clock moves here, once per sweep, under the
        // lock: a reader's step never carries a later time than the next.
        let now = node.agg.tick();
        // What readers' steps asked to send goes first.
        let mut progressed = d.send_parked();
        let mut sent_this_sweep = 0u64;
        // Outgoing: one buffer per channel per sweep (fairness).
        for c in 0..node.agg.channels() {
            if let Some((dst, payload)) = node.agg.channel(c).pop_filled() {
                // Zero-copy: the pooled payload is handed straight to the
                // fabric; its final drop (receiver's, or the retransmit
                // queue's once acked) returns the buffer to this
                // channel's pool, as in the paper ("returns the
                // aggregation buffer into the pool").
                d.feed(now, Event::Send { dst, payload }, true);
                sent_this_sweep += 1;
                progressed = true;
            }
        }
        // Incoming: acks, dedup, and new data to the helpers.
        let (received, delivered) = d.take_inbox(now, true);
        progressed |= received;
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
                if let LinkState::Down(cause) = node.transport.link_state(peer) {
                    progressed |= d.feed(now, Event::Down { peer, cause }, true).0;
                }
            }
        }
        let credit = receive_credit(node.config.flow_window, node.helper_in.backlog());
        // Timers: standalone acks, retransmits, heartbeats, suspicion,
        // death, notice dissemination.
        progressed |= d.feed(now, Event::Tick { credit }, true).0;
        // Nothing to do before the earliest deadline this thread knows,
        // unless a producer wakes it. A reader that steps from here on
        // compares its own deadlines with it.
        let due = d.link.next_due_ns().min(next_watchdog_ns).min(next_kill_check_ns);
        if !progressed {
            shared.comm_wake_ns.store(due, Ordering::Relaxed);
        }
        drop(guard);
        if delivered {
            node.sleepers.helpers.wake_all();
        }
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
            return;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if polled_rings && idle_sweeps < SHM_YIELD_SWEEPS {
            std::thread::yield_now();
            continue;
        }
        let mut timeout = Duration::from_nanos(due.saturating_sub(now));
        if polled_rings {
            timeout = timeout.min(SHM_POLL);
        }
        if stopping {
            timeout = timeout.min(STOP_POLL);
        }
        let parked = me.sleep(Some(timeout), || {
            // A packet that arrived since must be stepped under the lock,
            // or a reader could step a later one of its link first. A
            // reader holding the lock drains the inbox itself.
            let Some(mut guard) = shared.driver.try_lock() else { return true };
            let d = guard.as_mut().expect(HELD);
            let (received, delivered) = d.take_inbox(node.agg.elapsed_ns(), true);
            drop(guard);
            if delivered {
                node.sleepers.helpers.wake_all();
            }
            received || (0..node.agg.channels()).any(|c| node.agg.channel(c).backlog() > 0)
        });
        if parked {
            node.metrics.comm_sleeps.add(node.metrics.comm_shard(), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::receive_credit;
    use crate::helper::HelperInbox;
    use gmt_net::Payload;

    /// The shared link's lock, in every interleaving of two TCP readers
    /// and the comm server.
    ///
    /// Each reader reads two packets of its own link, one per read. A read
    /// `try_lock`s the link: on success it steps what the inbox holds and
    /// then its own packet (`SharedLink::arrived`), on failure it queues
    /// the packet and wakes the server (`Core::deliver`'s fallback). The
    /// server locks, steps the inbox, unlocks, and sleeps the way
    /// `idle::Sleeper::sleep` does: raise the flag, recheck — `try_lock`,
    /// step what the inbox holds under it — and park until a token. Every
    /// packet must be stepped once, each link's in read order, and the
    /// server must never sleep for good with a packet queued. The accesses
    /// are sequentially consistent here; `idle::tests` checks the fences.
    mod link_lock_model {
        use std::collections::HashSet;

        /// Who holds the lock.
        const FREE: u8 = u8::MAX;
        const SERVER: u8 = 2;

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Reader {
            /// About to `try_lock` for its `i`-th packet.
            Read(u8),
            /// Holding the lock: stepping the inbox, then its own packet.
            Drain(u8),
            Own(u8),
            Unlock(u8),
            /// Queued its `i`-th packet: look at the server's flag.
            Wake(u8),
            Done,
        }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Server {
            Lock,
            Drain,
            Unlock,
            Raise,
            Recheck,
            /// Holding the lock in the recheck; whether it stepped any.
            RecheckDrain(bool),
            Parked,
        }

        /// The protocol and the mutations the tests check it against.
        #[derive(Clone, Copy)]
        struct Rules {
            /// A reader steps the inbox before its own packet.
            drain_first: bool,
            /// The server's recheck takes a packet off the inbox without
            /// the lock, to step it on its next sweep (the stash the comm
            /// server kept while it alone stepped the link).
            stash: bool,
        }

        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct World {
            lock: u8,
            inbox: Vec<u8>,
            stashed: Option<u8>,
            readers: [Reader; 2],
            server: Server,
            asleep: bool,
            token: bool,
            stepped: Vec<u8>,
        }

        /// Reader `r`'s `i`-th packet.
        fn packet(r: usize, i: u8) -> u8 {
            r as u8 * 2 + i
        }

        fn after(i: u8) -> Reader {
            if i == 0 {
                Reader::Read(1)
            } else {
                Reader::Done
            }
        }

        impl World {
            fn step(&self, actor: usize, rules: Rules) -> Option<World> {
                let mut w = self.clone();
                if actor < 2 {
                    w.readers[actor] = match self.readers[actor] {
                        Reader::Read(i) if self.lock == FREE => {
                            w.lock = actor as u8;
                            if rules.drain_first {
                                Reader::Drain(i)
                            } else {
                                Reader::Own(i)
                            }
                        }
                        Reader::Read(i) => {
                            w.inbox.push(packet(actor, i));
                            Reader::Wake(i)
                        }
                        Reader::Drain(i) if !self.inbox.is_empty() => {
                            w.stepped.push(w.inbox.remove(0));
                            Reader::Drain(i)
                        }
                        Reader::Drain(i) if rules.drain_first => Reader::Own(i),
                        Reader::Drain(i) => Reader::Unlock(i),
                        Reader::Own(i) => {
                            w.stepped.push(packet(actor, i));
                            if rules.drain_first {
                                Reader::Unlock(i)
                            } else {
                                Reader::Drain(i)
                            }
                        }
                        Reader::Unlock(i) => {
                            w.lock = FREE;
                            after(i)
                        }
                        Reader::Wake(i) => {
                            if self.asleep {
                                (w.asleep, w.token) = (false, true);
                            }
                            after(i)
                        }
                        Reader::Done => return None,
                    };
                    return Some(w);
                }
                w.server = match self.server {
                    Server::Lock if self.lock == FREE => {
                        w.lock = SERVER;
                        Server::Drain
                    }
                    Server::Lock => return None,
                    Server::Drain => {
                        if let Some(p) = w.stashed.take() {
                            w.stepped.push(p);
                        } else if !self.inbox.is_empty() {
                            w.stepped.push(w.inbox.remove(0));
                        } else {
                            w.server = Server::Unlock;
                        }
                        w.server
                    }
                    Server::Unlock => {
                        w.lock = FREE;
                        Server::Raise
                    }
                    Server::Raise => {
                        w.asleep = true;
                        Server::Recheck
                    }
                    Server::Recheck if rules.stash => {
                        if self.inbox.is_empty() {
                            Server::Parked
                        } else {
                            w.stashed = Some(w.inbox.remove(0));
                            w.asleep = false;
                            Server::Lock
                        }
                    }
                    Server::Recheck if self.lock == FREE => {
                        w.lock = SERVER;
                        Server::RecheckDrain(false)
                    }
                    // A reader holds the lock: sweep again, no park.
                    Server::Recheck => {
                        w.asleep = false;
                        Server::Lock
                    }
                    Server::RecheckDrain(_) if !self.inbox.is_empty() => {
                        w.stepped.push(w.inbox.remove(0));
                        Server::RecheckDrain(true)
                    }
                    Server::RecheckDrain(found) => {
                        w.lock = FREE;
                        if found {
                            w.asleep = false;
                            Server::Lock
                        } else {
                            Server::Parked
                        }
                    }
                    Server::Parked if !self.token => return None,
                    Server::Parked => {
                        (w.token, w.asleep) = (false, false);
                        Server::Lock
                    }
                };
                Some(w)
            }
        }

        /// Every interleaving under `rules`: the first broken rule, if
        /// any, and whether a read stepped its own packet and whether one
        /// queued it while the server slept.
        fn explore(rules: Rules) -> Result<(bool, bool), String> {
            let start = World {
                lock: FREE,
                inbox: Vec::new(),
                stashed: None,
                readers: [Reader::Read(0); 2],
                server: Server::Lock,
                asleep: false,
                token: false,
                stepped: Vec::new(),
            };
            let (mut stepped_own, mut woke_sleeper) = (false, false);
            let mut seen = HashSet::new();
            let mut stack = vec![start];
            while let Some(w) = stack.pop() {
                if !seen.insert(w.clone()) {
                    continue;
                }
                let distinct: HashSet<_> = w.stepped.iter().collect();
                if distinct.len() != w.stepped.len() {
                    return Err(format!("a packet was stepped twice: {w:?}"));
                }
                for r in 0..2 {
                    let at = |i| w.stepped.iter().position(|&p| p == packet(r, i));
                    if let (Some(a), Some(b)) = (at(0), at(1)) {
                        if a > b {
                            return Err(format!("link {r} stepped out of read order: {w:?}"));
                        }
                    }
                    stepped_own |= matches!(w.readers[r], Reader::Own(_));
                    woke_sleeper |= matches!(w.readers[r], Reader::Wake(_)) && w.asleep;
                }
                let next: Vec<World> = (0..3).filter_map(|a| w.step(a, rules)).collect();
                if next.is_empty() {
                    // Nobody can move: the server parked for good.
                    if w.readers.iter().any(|&r| r != Reader::Done) || w.stepped.len() != 4 {
                        return Err(format!("the server sleeps with a packet unstepped: {w:?}"));
                    }
                }
                stack.extend(next);
            }
            Ok((stepped_own, woke_sleeper))
        }

        #[test]
        fn every_packet_is_stepped_once_in_link_order() {
            let rules = Rules { drain_first: true, stash: false };
            let (stepped_own, woke_sleeper) = explore(rules).unwrap_or_else(|e| panic!("{e}"));
            assert!(stepped_own, "no reader ever stepped its own packet, so nothing was tested");
            assert!(woke_sleeper, "no queued packet met the server asleep");
        }

        #[test]
        fn a_reader_that_steps_before_it_drains_breaks_link_order() {
            let rules = Rules { drain_first: false, stash: false };
            let err = explore(rules).expect_err("stepping first must reorder a link");
            assert!(err.contains("out of read order"), "{err}");
        }

        #[test]
        fn a_recheck_that_stashes_without_the_lock_breaks_link_order() {
            let rules = Rules { drain_first: true, stash: true };
            let err = explore(rules).expect_err("a stash must reorder a link");
            assert!(err.contains("out of read order"), "{err}");
        }
    }

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
