//! Reliable delivery of aggregation buffers: sequence numbers, cumulative
//! acks, head-of-line retransmission, flow control and peer-death
//! detection.
//!
//! The paper's GMT rides on MPI and simply assumes the fabric is lossless.
//! This reproduction's fabric can be adversarial ([`gmt_net::FaultPlan`]):
//! packets drop, duplicate and arrive late, links flap, nodes die. This
//! module restores exactly-once *processing* of aggregation buffers on top
//! of that. One thread at a time drives it: the communication server, or
//! a TCP reader that found the node's lock on it free (the `commserver`
//! module's docs); the link itself is plain single-threaded state.
//!
//! **One door.** [`ReliableLink::step`] is the only way in. The
//! communication server feeds it an [`Event`] — a filled buffer to send,
//! an inbound packet, a peer's link observed down, or the sweep's tick —
//! with the coarse time it happened at, and applies the [`Action`]s it
//! appends: put a packet on the wire, hand one to the helpers, fail the
//! operations toward a dead peer, mark a peer backpressured or not, count
//! and log. The link itself does no I/O, takes no lock, touches no atomic
//! and reads no clock.
//!
//! Protocol, per ordered peer pair:
//!
//! * Every data buffer carries a [`HEADER_LEN`]-byte header patched into
//!   the space the aggregation layer reserved at its front:
//!   `[kind u8][seq u64 LE][ack u64 LE][credit u16 LE]`. Sequence numbers
//!   are 1-based and per-(src,dst); `ack` piggybacks the sender's
//!   cumulative receive state for the reverse direction on every outgoing
//!   buffer, and `credit` advertises how many more data buffers the
//!   sender of the packet is currently willing to absorb as a receiver
//!   ([`CREDIT_UNLIMITED`] when it does not care).
//! * The receiver deduplicates (cumulative counter + out-of-order set) and
//!   delivers new buffers immediately — GMT commands are independent, so
//!   ordering is not reconstructed, only duplicate suppression.
//! * Acks are cumulative. They ride on return traffic when there is any,
//!   otherwise a standalone [`KIND_ACK`] packet goes out once the ack has
//!   been pending longer than `ack_delay_ns`.
//! * The sender keeps every unacked buffer in a retransmit queue **as a
//!   shared payload handle**, so the pooled buffer cannot return to its
//!   pool until the peer acknowledged it.
//! * **Flow control**: the sender stops stamping new data buffers once
//!   `min(flow_window, peer credit)` buffers are unacked. Further
//!   submissions are *held back* unstamped ([`Action::Held`]) and the peer
//!   enters the **Backpressured** state — distinct from death: nothing is
//!   error-completed, the accrual detector is not tripped. Held buffers
//!   go out in order inside the inbound packet that opens the window —
//!   only a packet can: the unacked count falls only on an ack (or a
//!   death) and the peer's credit changes only in a header — and the peer
//!   leaves Backpressured ([`Action::WindowOpen`]) once none is left and
//!   the window has room. The window bounds per-peer sender memory and
//!   gives the runtime a state it can report and excuse waiting tasks by.
//! * Only the queue head is retransmitted (cumulative acks make the rest
//!   redundant), after a retransmit timeout the link **measures** per
//!   peer instead of being told: every cumulative ack that advances the
//!   queue is one round-trip sample — now minus the original send time of
//!   the newest buffer it covers — folded into a smoothed round trip and
//!   its mean deviation (RFC 6298), and RTO = `srtt + 4·rttvar`, floored
//!   at the `rto_floor_ns` the link is built with. Karn's rule: an ack that
//!   covers a retransmitted buffer cannot say which copy it answers and
//!   gives no sample. Every expiry doubles the RTO, up to `rto_cap_ns`,
//!   and the backed-off value stays in force until a fresh sample
//!   arrives: a wire slower than the floor otherwise retransmits every
//!   buffer and never yields a sample. Retransmission goes on at the
//!   capped RTO until an ack arrives or the peer is confirmed dead; no
//!   count of retransmissions is proof of death, so a slow peer that
//!   still talks is never killed by an RTO miscalibration.
//!
//! On top of delivery sits the **failure detector + membership** layer
//! (SWIM-flavoured, sized for a fully-connected in-process cluster):
//!
//! * Liveness piggybacks on existing traffic: every valid packet from a
//!   peer refreshes its `last_heard` stamp, and every outbound data/ack
//!   packet refreshes `last_sent`. A healthy busy link costs **zero**
//!   extra packets. Only when a link has been outbound-idle past a
//!   [`HEARTBEAT_FRACTION`]th of `death_timeout_ns` does a standalone
//!   [`KIND_HEARTBEAT`] go out (doubling as a cumulative ack carrier).
//! * Inbound silence past a [`SUSPECT_FRACTION`]th of `death_timeout_ns`
//!   raises a *suspicion* (diagnostic: counted and logged, cleared by the
//!   next packet).
//! * **One rule judges death by time**: silence past `death_timeout_ns`
//!   *confirms* the peer dead. Every queued buffer's request tokens
//!   complete with [`GmtError::RemoteDead`] and all further traffic to or
//!   from that peer is dropped (a late reply from a "dead" peer must
//!   never touch a token that already completed with an error). The only
//!   other evidence is first-hand — the transport observed the link down
//!   ([`Event::Down`]) — or a survivor's notice.
//! * Every confirmed death — by silence, by an observed link loss, or
//!   learned from another survivor — is
//!   **disseminated** as a [`KIND_NOTICE`] packet (the dead node's id in
//!   the seq field) to every remaining peer, re-sent for a fixed number
//!   of rounds since notices are not themselves acked. A notice about a
//!   not-yet-dead peer confirms it locally and triggers one round of
//!   gossip forwarding, so all survivors converge on an identical dead
//!   set — and therefore an identical membership epoch — within a
//!   bounded number of sweeps.
//!
//! Every timer compares against the time that arrives with the event:
//! the runtime's coarse clock ([`AggShared::now_ns`]), which the
//! communication server ticks every sweep, or the same clock read fresh
//! and unpublished by a TCP reader ([`AggShared::elapsed_ns`]). Both read
//! it while they hold the link, so the times it sees never go back.
//!
//! [`GmtError::RemoteDead`]: crate::error::GmtError::RemoteDead
//! [`AggShared::now_ns`]: crate::aggregation::AggShared::now_ns
//! [`AggShared::elapsed_ns`]: crate::aggregation::AggShared::elapsed_ns

use crate::config::{HEARTBEAT_FRACTION, SUSPECT_FRACTION};
use crate::NodeId;
use gmt_net::{DownCause, Payload};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Bytes of transport header at the front of every aggregation buffer:
/// `[kind u8][seq u64 LE][ack u64 LE][credit u16 LE]`.
pub const HEADER_LEN: usize = 19;

/// Credit value meaning "no receiver-imposed bound": the sender's own
/// `flow_window` is the only limit. What a peer is taken to grant until
/// its first packet says otherwise, and what a death notice carries (its
/// credit field means nothing).
pub const CREDIT_UNLIMITED: u16 = u16::MAX;

/// Header kind: a data buffer (commands follow the header).
pub const KIND_DATA: u8 = 1;
/// Header kind: a standalone cumulative ack (no commands).
pub const KIND_ACK: u8 = 2;
/// Header kind: a liveness heartbeat for an idle link. Carries the
/// cumulative ack like [`KIND_ACK`]; `seq` is unused (0).
pub const KIND_HEARTBEAT: u8 = 3;
/// Header kind: a membership death notice. `seq` carries the dead node's
/// id; `ack` carries the sender's dead-peer count (informational — the
/// receiver's own count converges to the same value).
pub const KIND_NOTICE: u8 = 4;

/// How many times a death notice is re-sent to each survivor (notices are
/// not acked; repetition rides out the same loss the data path survives).
const NOTICE_ROUNDS: u32 = 3;

/// A parsed transport header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub kind: u8,
    pub seq: u64,
    pub ack: u64,
    /// Receive credit advertised by the packet's sender: how many more
    /// data buffers it is willing to absorb ([`CREDIT_UNLIMITED`] = no
    /// bound). Meaningless on [`KIND_NOTICE`] packets.
    pub credit: u16,
}

/// Encodes a header into its wire form.
pub fn encode_header(kind: u8, seq: u64, ack: u64, credit: u16) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0] = kind;
    h[1..9].copy_from_slice(&seq.to_le_bytes());
    h[9..17].copy_from_slice(&ack.to_le_bytes());
    h[17..19].copy_from_slice(&credit.to_le_bytes());
    h
}

/// Parses the transport header at the front of `buf`, or `None` if the
/// buffer is too short or the kind byte is unknown.
pub fn parse_header(buf: &[u8]) -> Option<Header> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    let kind = buf[0];
    if !(KIND_DATA..=KIND_NOTICE).contains(&kind) {
        return None;
    }
    Some(Header {
        kind,
        seq: u64::from_le_bytes(buf[1..9].try_into().unwrap()),
        ack: u64::from_le_bytes(buf[9..17].try_into().unwrap()),
        credit: u16::from_le_bytes(buf[17..19].try_into().unwrap()),
    })
}

/// What the communication server feeds [`ReliableLink::step`].
#[derive(Debug)]
pub enum Event {
    /// A filled aggregation buffer for `dst`, its first [`HEADER_LEN`]
    /// bytes reserved for the header.
    Send { dst: NodeId, payload: Payload },
    /// A packet that arrived from `src`.
    Packet { src: NodeId, payload: Payload },
    /// The transport observed the link to `peer` down for good.
    Down { peer: NodeId, cause: DownCause },
    /// The sweep's timer pass. `credit` is the receive credit this node
    /// advertises in every header from now on.
    Tick { credit: u16 },
}

/// What a packet put on the wire is, and so which counter books it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// A data buffer stamped now. `piggybacked_ack`: it carries an ack
    /// that was pending, sparing a standalone one. `was_held`: flow
    /// control had held it back. `occupancy`: the buffers unacked toward
    /// its destination, itself included.
    Data { piggybacked_ack: bool, was_held: bool, occupancy: usize },
    /// The head of the retransmit queue, again.
    Retransmit,
    /// A standalone cumulative ack.
    Ack,
    /// A liveness heartbeat for an idle link.
    Heartbeat,
    /// A death notice.
    Notice,
}

/// Why a peer was confirmed dead. Its `Display` is the cause the
/// communication server logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeathCause {
    /// The peer was silent past `death_timeout_ns`.
    HeartbeatTimeout,
    /// Another survivor's death notice named it.
    Notice,
    /// The transport observed its link down.
    Down(DownCause),
}

impl fmt::Display for DeathCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeathCause::HeartbeatTimeout => f.write_str("silent past the death timeout"),
            DeathCause::Notice => f.write_str("death notice received"),
            DeathCause::Down(cause) => cause.fmt(f),
        }
    }
}

/// What [`ReliableLink::step`] asks of the communication server.
#[derive(Debug)]
pub enum Action {
    /// Put `payload` on the wire to `dst`.
    Send { dst: NodeId, payload: Payload, kind: SendKind },
    /// New data from `src`: hand it to the helpers (the commands follow
    /// the header).
    Deliver { src: NodeId, payload: Payload },
    /// A buffer for a peer already confirmed dead (emitted after, or
    /// racing, the confirmation): fail what is still counted toward
    /// `dst`; dropping `payload` returns the buffer to its pool.
    Refused { dst: NodeId, payload: Payload },
    /// Flow control held a buffer for `dst` back. `entered`: this hold
    /// moved the peer into Backpressured.
    Held { dst: NodeId, entered: bool },
    /// `dst` left Backpressured: nothing is held for it and its window
    /// has room.
    WindowOpen { dst: NodeId },
    /// A suspicion against `dst` was raised (silence) or cleared (a packet
    /// arrived).
    Suspect { dst: NodeId, raised: bool },
    /// `dst` was confirmed dead. The request tokens inside the `unacked`
    /// and `held` payloads (after [`HEADER_LEN`]) must fail; dropping the
    /// payloads returns their buffers.
    Dead { dst: NodeId, unacked: Vec<Payload>, held: Vec<Payload>, cause: DeathCause },
    /// An inbound data buffer seen before, dropped (the ack is repeated).
    Duplicate,
    /// An inbound heartbeat.
    HeartbeatIn,
    /// An inbound death notice from `src` naming `dead` (possibly this
    /// node, which the link ignores).
    NoticeIn { src: NodeId, dead: NodeId },
    /// An inbound packet of `len` bytes from `src` with no valid header.
    Malformed { src: NodeId, len: usize },
}

/// One unacked data buffer awaiting acknowledgement.
struct Rtx {
    seq: u64,
    /// Shared handle keeping the pooled buffer alive (out of its pool)
    /// until the ack arrives.
    payload: Payload,
    /// Coarse-clock time of the original transmission, where the round
    /// trip an ack of this seq samples began.
    first_sent_ns: u64,
    /// Coarse-clock time the retransmit timer runs from: the last
    /// (re)transmission, or the ack that made this buffer the queue head.
    sent_ns: u64,
    /// Sent more than once, so an ack of it gives no round-trip sample
    /// (Karn's rule). Only the queue head is ever retransmitted.
    retransmitted: bool,
}

/// Per-peer protocol state.
struct Peer {
    /// Next sequence number to assign (1-based).
    next_seq: u64,
    /// Unacked data buffers, in sequence order.
    rtx: VecDeque<Rtx>,
    /// Data buffers held back (unstamped) by flow control, in submission
    /// order. Non-empty only while `backpressured`.
    held: VecDeque<Payload>,
    /// Highest sequence received contiguously from this peer.
    cum_recv: u64,
    /// Received-out-of-order sequences above `cum_recv`.
    ooo: BTreeSet<u64>,
    /// When a pending ack must go out standalone (coarse ns; 0 = none).
    ack_due_ns: u64,
    /// Declared dead (silence, link loss, or notice).
    dead: bool,
    /// In the Backpressured state: a buffer toward this peer was held
    /// back, and the held queue has not yet drained into an open window.
    backpressured: bool,
    /// Latest receive credit this peer advertised.
    credit: u16,
    /// Coarse time of the last valid packet from this peer (0 = not yet
    /// initialised; the first detector tick stamps it, so a quiet startup
    /// is not mistaken for silence).
    last_heard_ns: u64,
    /// Coarse time of the last packet *to* this peer (0 = uninitialised).
    last_sent_ns: u64,
    /// A suspicion is currently raised against this peer.
    suspected: bool,
    /// Smoothed round trip to this peer (coarse ns; `None` until the
    /// first sample) and its mean deviation.
    srtt_ns: Option<u64>,
    rttvar_ns: u64,
    /// Current retransmit timeout: set from the estimate by every sample,
    /// doubled (up to the cap) by every expiry in between.
    rto_ns: u64,
}

impl Peer {
    fn new(rto_ns: u64) -> Self {
        Peer {
            next_seq: 1,
            rtx: VecDeque::new(),
            held: VecDeque::new(),
            cum_recv: 0,
            ooo: BTreeSet::new(),
            ack_due_ns: 0,
            dead: false,
            backpressured: false,
            credit: CREDIT_UNLIMITED,
            last_heard_ns: 0,
            last_sent_ns: 0,
            suspected: false,
            srtt_ns: None,
            rttvar_ns: 0,
            rto_ns,
        }
    }

    /// Refreshes liveness on a valid inbound packet, reporting whether a
    /// standing suspicion was cleared by it.
    fn heard(&mut self, now_ns: u64) -> bool {
        self.last_heard_ns = now_ns.max(1);
        std::mem::take(&mut self.suspected)
    }

    /// Folds one round-trip sample into the estimate (RFC 6298 §2) and
    /// sets the RTO from it, which ends any backoff.
    fn sample(&mut self, rtt_ns: u64, rto_floor_ns: u64, rto_cap_ns: u64) {
        let srtt = match self.srtt_ns {
            None => {
                self.rttvar_ns = rtt_ns / 2;
                rtt_ns
            }
            Some(srtt) => {
                self.rttvar_ns = (3 * self.rttvar_ns + srtt.abs_diff(rtt_ns)) / 4;
                (7 * srtt + rtt_ns) / 8
            }
        };
        self.srtt_ns = Some(srtt);
        self.rto_ns = srtt.saturating_add(4 * self.rttvar_ns).clamp(rto_floor_ns, rto_cap_ns);
    }
}

/// A pending round of death-notice dissemination for one dead peer.
struct NoticeRounds {
    dead: NodeId,
    remaining: u32,
    next_ns: u64,
}

/// The reliability state machine for one node, covering all its peers.
/// Stepped by one thread at a time, under the communication server's lock.
pub struct ReliableLink {
    me: NodeId,
    peers: Vec<Peer>,
    /// Floor of the measured RTO, and the RTO of a peer not yet sampled.
    rto_floor_ns: u64,
    /// Cap of the measured and backed-off RTO.
    rto_cap_ns: u64,
    ack_delay_ns: u64,
    /// Silence (coarse ns) that confirms a peer dead; the heartbeat and
    /// suspicion timers are fractions of it.
    death_timeout_ns: u64,
    /// Max unacked data buffers per peer before new submissions are held
    /// back (at least 1; `Config::validate` rejects 0).
    flow_window: usize,
    /// The receive credit this node currently advertises in every
    /// outgoing header (data, ack, heartbeat).
    local_credit: u16,
    /// Dead peers whose notices still have dissemination rounds left.
    notices: Vec<NoticeRounds>,
}

impl ReliableLink {
    pub fn new(
        me: NodeId,
        nodes: usize,
        rto_floor_ns: u64,
        rto_cap_ns: u64,
        ack_delay_ns: u64,
        flow_window: usize,
        death_timeout_ns: u64,
    ) -> Self {
        assert!(0 < rto_floor_ns && rto_floor_ns <= rto_cap_ns, "RTO floor must be in 1..=cap");
        ReliableLink {
            me,
            peers: (0..nodes).map(|_| Peer::new(rto_floor_ns)).collect(),
            rto_floor_ns,
            rto_cap_ns,
            ack_delay_ns,
            death_timeout_ns,
            flow_window,
            local_credit: CREDIT_UNLIMITED,
            notices: Vec::new(),
        }
    }

    /// How long a peer may go without hearing from us before a
    /// standalone heartbeat goes out: a [`HEARTBEAT_FRACTION`]th of the
    /// death timeout. The communication server observes link state on
    /// the same cadence.
    pub fn heartbeat_ns(&self) -> u64 {
        self.death_timeout_ns / HEARTBEAT_FRACTION
    }

    /// The earliest coarse time one of the link's timers falls due: a
    /// standalone ack, a retransmit, a heartbeat, a suspicion, a death or
    /// a notice round (`u64::MAX` with none). Until then a tick changes
    /// nothing, so the communication server may sleep until this time
    /// unless traffic wakes it. Right after a tick it lies ahead of that
    /// tick; a packet stepped since may have brought it closer (an ack
    /// owed, a retransmit timer restarted).
    pub fn next_due_ns(&self) -> u64 {
        let heartbeat_ns = self.heartbeat_ns();
        let suspect_ns = self.death_timeout_ns / SUSPECT_FRACTION;
        let mut due = self.notices.iter().map(|n| n.next_ns).min().unwrap_or(u64::MAX);
        for (dst, p) in self.peers.iter().enumerate() {
            if dst == self.me || p.dead {
                continue;
            }
            due = due.min(p.last_heard_ns.saturating_add(self.death_timeout_ns));
            due = due.min(p.last_sent_ns.saturating_add(heartbeat_ns));
            if !p.suspected {
                due = due.min(p.last_heard_ns.saturating_add(suspect_ns));
            }
            if let Some(f) = p.rtx.front() {
                due = due.min(f.sent_ns.saturating_add(p.rto_ns));
            }
            if p.ack_due_ns != 0 {
                due = due.min(p.ack_due_ns);
            }
        }
        due
    }

    /// Takes one event that happened at coarse time `now_ns` and appends
    /// to `out` everything the communication server must do about it, in
    /// order.
    pub fn step(&mut self, now_ns: u64, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::Send { dst, payload } => self.submit(dst, payload, now_ns, out),
            Event::Packet { src, payload } => self.receive(src, payload, now_ns, out),
            Event::Down { peer, cause } => self.mark_dead(peer, DeathCause::Down(cause), out),
            Event::Tick { credit } => {
                self.local_credit = credit;
                self.tick(now_ns, out);
            }
        }
    }

    /// How many data buffers may currently be unacked toward `dst`:
    /// `min(flow_window, advertised credit)`, with a floor of one so a
    /// zero-credit peer can never wedge the link — the window reopens
    /// from the ack of that one probe buffer.
    fn effective_window(&self, dst: NodeId) -> usize {
        let credit = (self.peers[dst].credit as usize).max(1);
        self.flow_window.min(credit)
    }

    fn dead_count(&self) -> u64 {
        self.peers.iter().filter(|p| p.dead).count() as u64
    }

    /// Stamps and sends a buffer if the window toward `dst` is open *and*
    /// nothing is already held (held buffers keep submission order);
    /// otherwise holds it back unstamped and moves the peer into the
    /// Backpressured state.
    fn submit(&mut self, dst: NodeId, payload: Payload, now_ns: u64, out: &mut Vec<Action>) {
        let window = self.effective_window(dst);
        let p = &mut self.peers[dst];
        if p.dead {
            out.push(Action::Refused { dst, payload });
        } else if p.held.is_empty() && p.rtx.len() < window {
            self.stamp(dst, payload, false, now_ns, out);
        } else {
            p.held.push_back(payload);
            let entered = !std::mem::replace(&mut p.backpressured, true);
            out.push(Action::Held { dst, entered });
        }
    }

    /// Stamps the transport header onto an outgoing data buffer, enqueues
    /// a shared handle for retransmission and sends the other. The
    /// piggybacked ack clears any pending standalone ack.
    fn stamp(
        &mut self,
        dst: NodeId,
        mut payload: Payload,
        was_held: bool,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        let p = &mut self.peers[dst];
        let seq = p.next_seq;
        p.next_seq += 1;
        payload.patch(0, &encode_header(KIND_DATA, seq, p.cum_recv, self.local_credit));
        let piggybacked_ack = std::mem::take(&mut p.ack_due_ns) != 0;
        p.last_sent_ns = now_ns.max(1);
        let wire = payload.share();
        let rtx =
            Rtx { seq, payload, first_sent_ns: now_ns, sent_ns: now_ns, retransmitted: false };
        p.rtx.push_back(rtx);
        let kind = SendKind::Data { piggybacked_ack, was_held, occupancy: p.rtx.len() };
        out.push(Action::Send { dst, payload: wire, kind });
    }

    /// Stamps and sends every held buffer the window toward `dst` now
    /// admits, in submission order; once none is left and the window
    /// still has room, the peer leaves Backpressured.
    fn release(&mut self, dst: NodeId, now_ns: u64, out: &mut Vec<Action>) {
        loop {
            let window = self.effective_window(dst);
            let p = &mut self.peers[dst];
            if p.rtx.len() >= window {
                return;
            }
            let Some(payload) = p.held.pop_front() else {
                p.backpressured = false;
                out.push(Action::WindowOpen { dst });
                return;
            };
            self.stamp(dst, payload, true, now_ns, out);
        }
    }

    /// Processes an inbound packet from `src`: liveness, notices, acks and
    /// credit, deduplication, and the held buffers a reopened window admits.
    fn receive(&mut self, src: NodeId, payload: Payload, now_ns: u64, out: &mut Vec<Action>) {
        let Some(h) = parse_header(&payload) else {
            out.push(Action::Malformed { src, len: payload.len() });
            return;
        };
        if self.peers[src].dead {
            // Dropped unseen: a late reply could complete a token that
            // already failed.
            return;
        }
        if self.peers[src].heard(now_ns) {
            out.push(Action::Suspect { dst: src, raised: false });
        }
        if h.kind == KIND_NOTICE {
            // `ack` is the sender's dead count, not a cumulative ack —
            // it must not touch the retransmit queue (and `credit` is
            // meaningless on notices).
            let dead = h.seq as NodeId;
            if dead >= self.peers.len() {
                out.push(Action::Malformed { src, len: payload.len() });
            } else {
                out.push(Action::NoticeIn { src, dead });
                self.mark_dead(dead, DeathCause::Notice, out);
            }
            return;
        }
        self.peers[src].credit = h.credit;
        self.process_ack(src, h.ack, now_ns);
        let p = &mut self.peers[src];
        match h.kind {
            KIND_HEARTBEAT => out.push(Action::HeartbeatIn),
            KIND_DATA if h.seq <= p.cum_recv || p.ooo.contains(&h.seq) => {
                // Our ack got lost (or the fabric duplicated the packet):
                // re-ack promptly so the sender stops.
                p.ack_due_ns = now_ns.max(1);
                out.push(Action::Duplicate);
            }
            KIND_DATA => {
                if h.seq == p.cum_recv + 1 {
                    p.cum_recv += 1;
                    while p.ooo.remove(&(p.cum_recv + 1)) {
                        p.cum_recv += 1;
                    }
                } else {
                    p.ooo.insert(h.seq);
                }
                if p.ack_due_ns == 0 {
                    p.ack_due_ns = now_ns.saturating_add(self.ack_delay_ns).max(1);
                }
                out.push(Action::Deliver { src, payload });
            }
            // A standalone ack: processed above.
            _ => {}
        }
        if self.peers[src].backpressured {
            self.release(src, now_ns, out);
        }
    }

    /// Applies a cumulative ack from `src` to our retransmit queue toward
    /// it. Progress is one round-trip sample, from the newest buffer it
    /// covers — unless it covers a retransmitted one (Karn's rule) — and
    /// restarts the timer of the new queue head: the peer is demonstrably
    /// alive.
    fn process_ack(&mut self, src: NodeId, ack: u64, now_ns: u64) {
        let p = &mut self.peers[src];
        let mut newest = None;
        let mut retransmitted = false;
        while p.rtx.front().is_some_and(|r| r.seq <= ack) {
            let r = p.rtx.pop_front().expect("front checked");
            retransmitted |= r.retransmitted;
            newest = Some(r.first_sent_ns);
        }
        let Some(first_sent_ns) = newest else { return };
        if !retransmitted {
            p.sample(now_ns.saturating_sub(first_sent_ns), self.rto_floor_ns, self.rto_cap_ns);
        }
        if let Some(front) = p.rtx.front_mut() {
            front.sent_ns = now_ns;
        }
    }

    /// Marks `dst` dead, drains its state, and schedules one dissemination
    /// cycle of death notices — unless `dst` is this node or already dead
    /// (nothing to do, nothing to forward). The once-per-peer guard is the
    /// `dead` flag itself: a peer is only ever marked dead once.
    fn mark_dead(&mut self, dst: NodeId, cause: DeathCause, out: &mut Vec<Action>) {
        if dst == self.me || self.peers[dst].dead {
            return;
        }
        let p = &mut self.peers[dst];
        p.dead = true;
        p.ooo.clear();
        p.ack_due_ns = 0;
        p.suspected = false;
        p.backpressured = false;
        p.credit = CREDIT_UNLIMITED;
        // Held (never-stamped) buffers carry request tokens just like
        // unacked ones: both must be error-completed.
        let unacked = p.rtx.drain(..).map(|r| r.payload).collect();
        let held = p.held.drain(..).collect();
        self.notices.push(NoticeRounds { dead: dst, remaining: NOTICE_ROUNDS, next_ns: 0 });
        out.push(Action::Dead { dst, unacked, held, cause });
    }

    /// Timer sweep: death declarations, retransmissions, suspicions,
    /// heartbeats, standalone acks and notice dissemination.
    fn tick(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        let heartbeat_ns = self.heartbeat_ns();
        let suspect_ns = self.death_timeout_ns / SUSPECT_FRACTION;
        let local_credit = self.local_credit;
        for dst in 0..self.peers.len() {
            if dst == self.me || self.peers[dst].dead {
                continue;
            }
            let p = &mut self.peers[dst];
            // Lazy liveness init: the first sweep defines "now" as the
            // baseline, so clusters idle at startup (or with a clock that
            // starts far from zero) see no silence.
            if p.last_heard_ns == 0 {
                p.last_heard_ns = now_ns.max(1);
            }
            if p.last_sent_ns == 0 {
                p.last_sent_ns = now_ns.max(1);
            }
            let silence = now_ns.saturating_sub(p.last_heard_ns);
            if silence >= self.death_timeout_ns {
                self.mark_dead(dst, DeathCause::HeartbeatTimeout, out);
                continue;
            }
            if p.rtx.front().is_some_and(|f| now_ns.saturating_sub(f.sent_ns) >= p.rto_ns) {
                p.last_sent_ns = now_ns.max(1);
                p.rto_ns = p.rto_ns.saturating_mul(2).min(self.rto_cap_ns);
                let front = p.rtx.front_mut().unwrap();
                front.retransmitted = true;
                front.sent_ns = now_ns;
                let payload = front.payload.clone();
                out.push(Action::Send { dst, payload, kind: SendKind::Retransmit });
            }
            if silence >= suspect_ns && !p.suspected {
                p.suspected = true;
                out.push(Action::Suspect { dst, raised: true });
            }
            if now_ns.saturating_sub(p.last_sent_ns) >= heartbeat_ns {
                p.last_sent_ns = now_ns.max(1);
                p.ack_due_ns = 0;
                let hb = encode_header(KIND_HEARTBEAT, 0, p.cum_recv, local_credit);
                let payload = Payload::from(hb.to_vec());
                out.push(Action::Send { dst, payload, kind: SendKind::Heartbeat });
            } else if p.ack_due_ns != 0 && now_ns >= p.ack_due_ns {
                p.ack_due_ns = 0;
                p.last_sent_ns = now_ns.max(1);
                let ack = encode_header(KIND_ACK, 0, p.cum_recv, local_credit);
                let payload = Payload::from(ack.to_vec());
                out.push(Action::Send { dst, payload, kind: SendKind::Ack });
            }
        }
        // Notice dissemination: each dead peer's notice goes to every
        // still-alive peer, NOTICE_ROUNDS times spaced the largest current
        // RTO among them apart (notices are unacked; repetition covers
        // the loss budget).
        if !self.notices.is_empty() {
            let dead_count = self.dead_count();
            let alive: Vec<NodeId> =
                (0..self.peers.len()).filter(|&n| n != self.me && !self.peers[n].dead).collect();
            let spacing =
                alive.iter().map(|&n| self.peers[n].rto_ns).max().unwrap_or(self.rto_floor_ns);
            for i in 0..self.notices.len() {
                if now_ns < self.notices[i].next_ns {
                    continue;
                }
                let dead = self.notices[i].dead;
                self.notices[i].remaining -= 1;
                self.notices[i].next_ns = now_ns.saturating_add(spacing).max(1);
                let notice = encode_header(KIND_NOTICE, dead as u64, dead_count, CREDIT_UNLIMITED);
                for &dst in &alive {
                    self.peers[dst].last_sent_ns = now_ns.max(1);
                    let payload = Payload::from(notice.to_vec());
                    out.push(Action::Send { dst, payload, kind: SendKind::Notice });
                }
            }
            self.notices.retain(|n| n.remaining > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn data_payload(extra: &[u8]) -> Payload {
        let mut v = vec![0u8; HEADER_LEN];
        v.extend_from_slice(extra);
        Payload::from(v)
    }

    /// Test shorthand: encode with unlimited credit (most tests are
    /// indifferent to flow control).
    fn hdr(kind: u8, seq: u64, ack: u64) -> [u8; HEADER_LEN] {
        encode_header(kind, seq, ack, CREDIT_UNLIMITED)
    }

    /// A flow window no test below fills.
    const WIDE: usize = 1 << 12;

    /// A death timeout no test reaches: its heartbeat, suspicion and
    /// death timers never fire.
    const NEVER: u64 = 1 << 60;

    fn link(nodes: usize) -> ReliableLink {
        link_flow(nodes, WIDE)
    }

    fn link_flow(nodes: usize, flow_window: usize) -> ReliableLink {
        // RTO floor 100, cap 400, ack delay 50, no death in sight.
        ReliableLink::new(0, nodes, 100, 400, 50, flow_window, NEVER)
    }

    fn link_det(nodes: usize) -> ReliableLink {
        // Same delivery params; death at 4000 of silence, so a heartbeat
        // after 100 idle and a suspicion at 800.
        ReliableLink::new(0, nodes, 100, 400, 50, WIDE, 4000)
    }

    fn step(l: &mut ReliableLink, now: u64, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        l.step(now, event, &mut out);
        out
    }

    fn send(l: &mut ReliableLink, dst: NodeId, extra: &[u8], now: u64) -> Vec<Action> {
        step(l, now, Event::Send { dst, payload: data_payload(extra) })
    }

    fn packet(l: &mut ReliableLink, src: NodeId, bytes: &[u8], now: u64) -> Vec<Action> {
        step(l, now, Event::Packet { src, payload: Payload::from(bytes.to_vec()) })
    }

    fn tick(l: &mut ReliableLink, now: u64) -> Vec<Action> {
        step(l, now, Event::Tick { credit: CREDIT_UNLIMITED })
    }

    fn down(l: &mut ReliableLink, peer: NodeId) -> Vec<Action> {
        step(l, 0, Event::Down { peer, cause: DownCause::Killed })
    }

    /// The packets `out` puts on the wire, with their parsed headers.
    fn wire(out: &[Action]) -> Vec<(NodeId, SendKind, Header)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Send { dst, payload, kind } => {
                    Some((*dst, *kind, parse_header(payload).unwrap()))
                }
                _ => None,
            })
            .collect()
    }

    /// One short name per action, to compare whole outcomes.
    fn tags(out: &[Action]) -> Vec<&'static str> {
        out.iter()
            .map(|a| match a {
                Action::Send { kind: SendKind::Data { .. }, .. } => "data",
                Action::Send { kind: SendKind::Retransmit, .. } => "retransmit",
                Action::Send { kind: SendKind::Ack, .. } => "ack",
                Action::Send { kind: SendKind::Heartbeat, .. } => "heartbeat",
                Action::Send { kind: SendKind::Notice, .. } => "notice",
                Action::Deliver { .. } => "deliver",
                Action::Refused { .. } => "refused",
                Action::Held { .. } => "held",
                Action::WindowOpen { .. } => "open",
                Action::Suspect { raised: true, .. } => "suspect",
                Action::Suspect { raised: false, .. } => "cleared",
                Action::Dead { .. } => "dead",
                Action::Duplicate => "duplicate",
                Action::HeartbeatIn => "heartbeat-in",
                Action::NoticeIn { .. } => "notice-in",
                Action::Malformed { .. } => "malformed",
            })
            .collect()
    }

    fn unacked(l: &ReliableLink, node: NodeId) -> usize {
        l.peers[node].rtx.len()
    }

    fn dead_peers(l: &ReliableLink) -> Vec<NodeId> {
        (0..l.peers.len()).filter(|&n| l.peers[n].dead).collect()
    }

    #[test]
    fn header_roundtrip() {
        let h = encode_header(KIND_DATA, 7, 12, 33);
        let parsed = parse_header(&h).unwrap();
        assert_eq!(parsed, Header { kind: KIND_DATA, seq: 7, ack: 12, credit: 33 });
        assert_eq!(parse_header(&h[..HEADER_LEN - 1]), None);
        assert_eq!(parse_header(&hdr(9, 0, 0)), None);
    }

    #[test]
    fn sequences_are_per_destination_and_one_based() {
        let mut l = link(3);
        let w1 = wire(&send(&mut l, 1, b"a", 10));
        let w2 = wire(&send(&mut l, 2, b"b", 10));
        let w3 = wire(&send(&mut l, 1, b"c", 10));
        assert_eq!((w1[0].0, w1[0].2.seq), (1, 1));
        assert_eq!((w2[0].0, w2[0].2.seq), (2, 1));
        assert_eq!((w3[0].0, w3[0].2.seq), (1, 2));
        assert_eq!(unacked(&l, 1), 2);
        assert_eq!(unacked(&l, 2), 1);
    }

    #[test]
    fn duplicates_are_suppressed_and_reacked() {
        let mut l = link(2);
        let pkt = hdr(KIND_DATA, 1, 0);
        assert_eq!(tags(&packet(&mut l, 1, &pkt, 10)), ["deliver"]);
        assert_eq!(tags(&packet(&mut l, 1, &pkt, 20)), ["duplicate"]);
        // Duplicate forces a prompt standalone re-ack.
        assert!(wire(&tick(&mut l, 20))
            .iter()
            .any(|(dst, kind, h)| *dst == 1 && *kind == SendKind::Ack && h.ack == 1));
    }

    #[test]
    fn out_of_order_data_is_delivered_once_and_acked_cumulatively() {
        let mut l = link(2);
        // 2 and 3 arrive before 1.
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_DATA, 2, 0), 10)), ["deliver"]);
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_DATA, 3, 0), 11)), ["deliver"]);
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_DATA, 2, 0), 12)), ["duplicate"]);
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_DATA, 1, 0), 13)), ["deliver"]);
        // Ack (after the delay) covers all three.
        let Some((_, SendKind::Ack, h)) = wire(&tick(&mut l, 13 + 50)).first().copied() else {
            panic!("expected a standalone ack");
        };
        assert_eq!(h.ack, 3);
    }

    #[test]
    fn cumulative_ack_drains_retransmit_queue() {
        let mut l = link(2);
        for i in 0..3 {
            send(&mut l, 1, &[i], 10);
        }
        assert_eq!(unacked(&l, 1), 3);
        // A standalone ack for seq 2 pops the first two; it asks for
        // nothing else.
        assert!(packet(&mut l, 1, &hdr(KIND_ACK, 0, 2), 20).is_empty());
        assert_eq!(unacked(&l, 1), 1);
        assert!(packet(&mut l, 1, &hdr(KIND_ACK, 0, 3), 30).is_empty());
        assert_eq!(unacked(&l, 1), 0);
    }

    #[test]
    fn piggybacked_ack_on_data_also_acks() {
        let mut l = link(2);
        send(&mut l, 1, b"x", 10);
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_DATA, 1, 1), 20)), ["deliver"]);
        assert_eq!(unacked(&l, 1), 0);
    }

    #[test]
    fn a_silent_peer_is_retransmitted_at_the_capped_rto_until_the_death_timeout() {
        let mut l = link_det(2);
        assert!(tick(&mut l, 10).is_empty(), "baseline: the peer was last heard at 10");
        send(&mut l, 1, b"x", 10);
        send(&mut l, 1, b"y", 10);
        // No sample yet, so the RTO is the floor: the first retransmit is
        // at 110, and only the queue head goes.
        assert!(tick(&mut l, 109).is_empty());
        let out = tick(&mut l, 110);
        assert!(
            matches!(wire(&out).as_slice(), [(1, SendKind::Retransmit, h)] if h.seq == 1)
                && out.len() == 1,
            "only the queue head retransmits"
        );
        // Then the backoff doubles up to the cap (400) and stays there,
        // whatever the count: no retransmission budget kills the peer.
        let mut at = vec![110];
        let mut t = 110;
        while t + 10 < 4010 {
            t += 10;
            let out = tick(&mut l, t);
            assert!(!tags(&out).contains(&"dead"), "declared dead at {t}, before 4000 of silence");
            if tags(&out).contains(&"retransmit") {
                at.push(t);
            }
        }
        let gaps: Vec<u64> = at.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(gaps, [200, 400, 400, 400, 400, 400, 400, 400, 400, 400]);
        assert!(l.peers[1].suspected, "silent past a fifth of the timeout");
        // Exactly the death timeout of silence confirms the death.
        let out = tick(&mut l, 4010);
        let [Action::Dead { dst: 1, unacked, held, cause: DeathCause::HeartbeatTimeout }] =
            out.as_slice()
        else {
            panic!("expected the death at 4000 of silence, got {:?}", tags(&out));
        };
        assert_eq!((unacked.len(), held.len()), (2, 0));
        assert_eq!(dead_peers(&l), [1]);
        // Dead peers are inert afterwards: their packets drop unseen, and
        // a buffer emitted toward them is refused.
        assert!(tick(&mut l, 10_000).is_empty());
        assert!(packet(&mut l, 1, &hdr(KIND_DATA, 5, 0), 10_000).is_empty());
        assert_eq!(tags(&send(&mut l, 1, b"z", 10_000)), ["refused"]);
    }

    #[test]
    fn a_peer_heard_within_the_timeout_but_never_acking_is_never_declared_dead() {
        // The half-partition: the peer talks (acks with no progress, the
        // slow-receiver shape) but never acks our data. It is
        // retransmitted to at the capped backoff for as long as it talks.
        let mut l = link_det(2);
        tick(&mut l, 0); // baseline init
        send(&mut l, 1, b"x", 0);
        let mut retransmits = 0;
        for t in (10..=40_000).step_by(10) {
            // Heard every 1000: past the suspicion threshold (800) each
            // time, well within the death timeout (4000).
            if t % 1000 == 0 {
                packet(&mut l, 1, &hdr(KIND_ACK, 0, 0), t);
            }
            let out = tick(&mut l, t);
            retransmits += tags(&out).iter().filter(|&&a| a == "retransmit").count();
            assert!(!l.peers[1].dead, "declared dead at {t}");
        }
        assert!(retransmits >= 99, "retransmits stopped: {retransmits}");
        assert_eq!(unacked(&l, 1), 1);
    }

    #[test]
    fn a_backed_off_rto_holds_until_a_fresh_sample() {
        let mut l = link(2);
        send(&mut l, 1, b"x", 0);
        send(&mut l, 1, b"y", 0);
        // Head seq 1 retransmitted at the floor: the RTO doubles to 200.
        assert_eq!(tags(&tick(&mut l, 100)), ["retransmit"]);
        // The ack of seq 1 at t=150 gives no sample (Karn). The new head
        // (seq 2) restarts its timer there, at the backed-off RTO.
        packet(&mut l, 1, &hdr(KIND_ACK, 0, 1), 150);
        assert!(tick(&mut l, 349).is_empty(), "timer restarted at ack time, backoff kept");
        assert!(matches!(wire(&tick(&mut l, 350)).as_slice(),
            [(1, SendKind::Retransmit, h)] if h.seq == 2));
        packet(&mut l, 1, &hdr(KIND_ACK, 0, 2), 360);
        assert_eq!(l.peers[1].rto_ns, 400, "still backed off: no sample yet");
        // Seq 3 goes out once and is acked 30 later: the fresh sample sets
        // the RTO from the estimate again — 30 + 4·15, at the floor.
        send(&mut l, 1, b"z", 400);
        packet(&mut l, 1, &hdr(KIND_ACK, 0, 3), 430);
        assert_eq!((l.peers[1].srtt_ns, l.peers[1].rto_ns), (Some(30), 100));
        send(&mut l, 1, b"w", 500);
        assert!(tick(&mut l, 599).is_empty());
        assert_eq!(tags(&tick(&mut l, 600)), ["retransmit"]);
    }

    #[test]
    fn an_ack_covering_a_retransmitted_seq_gives_no_sample() {
        let mut l = link(2);
        // Two clean buffers, sent at 0 and 10. The ack of the first, at
        // 40, is a sample of 40 and restarts the second's timer; the ack
        // of the second, at 50, samples from its original send: 40 again.
        send(&mut l, 1, b"x", 0);
        send(&mut l, 1, b"y", 10);
        packet(&mut l, 1, &hdr(KIND_ACK, 0, 1), 40);
        packet(&mut l, 1, &hdr(KIND_ACK, 0, 2), 50);
        let p = &l.peers[1];
        assert_eq!((p.srtt_ns, p.rttvar_ns, p.rto_ns), (Some(40), 15, 100));
        // Seq 3 times out and is retransmitted; seq 4 goes out clean
        // behind it. One ack covers both: it may answer either copy of
        // seq 3, so neither it nor seq 4 behind it is sampled.
        send(&mut l, 1, b"z", 100);
        assert_eq!(tags(&tick(&mut l, 200)), ["retransmit"]);
        send(&mut l, 1, b"w", 205);
        packet(&mut l, 1, &hdr(KIND_ACK, 0, 4), 210);
        assert_eq!(unacked(&l, 1), 0);
        let p = &l.peers[1];
        assert_eq!((p.srtt_ns, p.rttvar_ns, p.rto_ns), (Some(40), 15, 200));
    }

    #[test]
    fn standalone_ack_waits_for_the_delay_and_piggyback_cancels_it() {
        let mut l = link(2);
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_DATA, 1, 0), 10)), ["deliver"]);
        assert!(tick(&mut l, 59).is_empty(), "ack delay (50) not yet elapsed");
        // Outgoing data to the same peer piggybacks the ack instead.
        let w = wire(&send(&mut l, 1, b"z", 40));
        assert!(matches!(w[0].1, SendKind::Data { piggybacked_ack: true, .. }));
        assert_eq!(w[0].2.ack, 1);
        assert!(
            !tags(&tick(&mut l, 1_000)).contains(&"ack"),
            "piggyback cancelled the standalone ack"
        );
    }

    #[test]
    fn malformed_and_short_buffers_are_flagged() {
        let mut l = link(2);
        assert!(matches!(
            packet(&mut l, 1, &[1, 2, 3], 10).as_slice(),
            [Action::Malformed { src: 1, len: 3 }]
        ));
        assert_eq!(tags(&packet(&mut l, 1, &hdr(7, 1, 0), 10)), ["malformed"]);
        // A notice naming an out-of-range node is malformed, not a panic.
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_NOTICE, 99, 0), 10)), ["malformed"]);
    }

    #[test]
    fn busy_links_never_emit_heartbeats() {
        let mut l = link_det(2);
        let mut out = Vec::new();
        // Outbound data every 50 ticks keeps the link under the 100-tick
        // idle threshold; inbound acks keep the peer alive.
        let mut t = 0;
        for i in 0..40u64 {
            t = i * 50;
            out.extend(send(&mut l, 1, b"x", t));
            out.extend(packet(&mut l, 1, &hdr(KIND_ACK, 0, i + 1), t + 10));
            out.extend(tick(&mut l, t + 10));
        }
        assert!(!tags(&out).contains(&"heartbeat"), "busy link must not heartbeat");
        assert!(!l.peers[1].suspected && !l.peers[1].dead);
        // Once the link idles past the threshold, exactly one heartbeat
        // goes out per idle period.
        assert_eq!(tags(&tick(&mut l, t + 10 + 100)), ["heartbeat"]);
        assert!(tick(&mut l, t + 10 + 150).is_empty(), "heartbeat interval not yet elapsed again");
    }

    /// `next_due_ns` is when the next tick can do anything: a tick
    /// before it sends nothing, a tick at it does what fell due.
    #[test]
    fn the_next_due_time_is_the_earliest_timer() {
        let mut l = link_det(2);
        // Heartbeat 100, suspicion 800, death 4000 after the baseline.
        tick(&mut l, 10);
        assert_eq!(l.next_due_ns(), 110, "the heartbeat is first");
        assert!(tick(&mut l, 109).is_empty());
        assert_eq!(tags(&tick(&mut l, 110)), ["heartbeat"]);
        // Data in: a standalone ack falls due 50 later, before the next
        // heartbeat (210).
        packet(&mut l, 1, &hdr(KIND_DATA, 1, 0), 120);
        tick(&mut l, 120);
        assert_eq!(l.next_due_ns(), 170);
        assert!(tick(&mut l, 169).is_empty());
        assert_eq!(tags(&tick(&mut l, 170)), ["ack"]);
        // Data out: its retransmit (RTO 100) is due with the heartbeat.
        send(&mut l, 1, b"x", 180);
        tick(&mut l, 180);
        assert_eq!(l.next_due_ns(), 280);
        assert!(tick(&mut l, 279).is_empty());
        assert!(tags(&tick(&mut l, 280)).contains(&"retransmit"));
    }

    #[test]
    fn heartbeats_carry_the_cumulative_ack() {
        let mut l = link_det(2);
        packet(&mut l, 1, &hdr(KIND_DATA, 1, 0), 10);
        tick(&mut l, 10); // baseline init

        // The heartbeat subsumes the pending standalone ack.
        let out = wire(&tick(&mut l, 200));
        let (_, _, hb) =
            out.iter().find(|(_, kind, _)| *kind == SendKind::Heartbeat).expect("heartbeat sent");
        assert_eq!(hb.kind, KIND_HEARTBEAT);
        assert_eq!(hb.ack, 1);
        assert!(
            !out.iter().any(|(_, kind, _)| *kind == SendKind::Ack),
            "heartbeat replaces the standalone ack"
        );
        // Receiving a heartbeat acks our in-flight data and counts as
        // liveness.
        let mut l2 = link_det(2);
        send(&mut l2, 1, b"x", 0);
        assert_eq!(tags(&packet(&mut l2, 1, &hdr(KIND_HEARTBEAT, 0, 1), 50)), ["heartbeat-in"]);
        assert_eq!(unacked(&l2, 1), 0);
    }

    #[test]
    fn silence_raises_suspicion_then_clears_on_traffic() {
        let mut l = link_det(2);
        let out = tick(&mut l, 0); // baseline init
        assert!(out.is_empty() || tags(&out) == ["heartbeat"]);
        assert!(matches!(
            tick(&mut l, 801).as_slice(),
            [Action::Suspect { dst: 1, raised: true }, ..]
        ));
        assert!(l.peers[1].suspected);
        // Suspicion is raised once, not every sweep.
        assert!(!tags(&tick(&mut l, 900)).contains(&"suspect"));
        // Any packet clears it, in that packet's own step.
        assert!(matches!(
            packet(&mut l, 1, &hdr(KIND_ACK, 0, 0), 950).as_slice(),
            [Action::Suspect { dst: 1, raised: false }]
        ));
        assert!(!l.peers[1].suspected);
    }

    #[test]
    fn prolonged_silence_confirms_death_and_disseminates() {
        let mut l = link_det(4);
        tick(&mut l, 0); // baseline for all peers

        // Keep peers 2 and 3 alive; peer 1 goes silent.
        for t in (0..=4000).step_by(100) {
            packet(&mut l, 2, &hdr(KIND_ACK, 0, 0), t);
            packet(&mut l, 3, &hdr(KIND_ACK, 0, 0), t);
        }
        let out = tick(&mut l, 4001);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Dead { dst: 1, cause: DeathCause::HeartbeatTimeout, .. }
        )));
        assert_eq!(dead_peers(&l), [1]);
        // The same sweep disseminates notices to both survivors.
        let notices: Vec<_> =
            wire(&out).into_iter().filter(|(_, kind, _)| *kind == SendKind::Notice).collect();
        assert_eq!(notices.len(), 2);
        for (dst, _, h) in &notices {
            assert!(*dst == 2 || *dst == 3);
            assert_eq!(h.kind, KIND_NOTICE);
            assert_eq!(h.seq, 1, "notice names the dead node");
        }
        // Two more rounds follow, spaced the RTO apart (the floor: no
        // peer has been sampled), then it stops.
        let count = |out: Vec<Action>| tags(&out).iter().filter(|&&t| t == "notice").count();
        assert_eq!(count(tick(&mut l, 4101)), 2);
        assert_eq!(count(tick(&mut l, 4201)), 2);
        assert_eq!(count(tick(&mut l, 4301)), 0);
    }

    #[test]
    fn received_notice_confirms_death_exactly_once() {
        let mut l = link_det(4);
        send(&mut l, 2, b"x", 0);
        // Peer 1 tells us node 2 is dead.
        let notice = hdr(KIND_NOTICE, 2, 1);
        let out = packet(&mut l, 1, &notice, 10);
        let [Action::NoticeIn { src: 1, dead: 2 }, Action::Dead { dst: 2, unacked, cause: DeathCause::Notice, .. }] =
            out.as_slice()
        else {
            panic!("expected the notice and its confirmation, got {:?}", tags(&out));
        };
        assert_eq!(unacked.len(), 1, "in-flight data toward the dead peer is drained");
        assert_eq!(dead_peers(&l), [2]);
        // Re-confirmation (another survivor's notice) is a no-op.
        assert_eq!(tags(&packet(&mut l, 3, &notice, 20)), ["notice-in"]);
        // A notice naming ourselves confirms nothing.
        assert_eq!(tags(&packet(&mut l, 1, &hdr(KIND_NOTICE, 0, 1), 25)), ["notice-in"]);
        assert_eq!(dead_peers(&l), [2]);
        // Gossip: our own dissemination cycle for node 2 runs (to peers 1
        // and 3), forwarding the death we learned second-hand.
        let fwd: Vec<_> = wire(&tick(&mut l, 30))
            .into_iter()
            .filter(|(_, kind, _)| *kind == SendKind::Notice)
            .map(|(dst, _, h)| (dst, h.seq))
            .collect();
        assert_eq!(fwd.len(), 2);
        assert!(fwd.iter().all(|(dst, dead)| (*dst == 1 || *dst == 3) && *dead == 2));
    }

    #[test]
    fn notices_are_not_sent_to_the_dead() {
        let mut l = link_det(4);
        tick(&mut l, 0);
        assert_eq!(tags(&down(&mut l, 1)), ["dead"]);
        assert_eq!(tags(&down(&mut l, 2)), ["dead"]);
        // A link observed down again, or this node's own, changes nothing.
        assert!(down(&mut l, 1).is_empty() && down(&mut l, 0).is_empty());
        for (dst, kind, _) in wire(&tick(&mut l, 10)) {
            if kind == SendKind::Notice {
                assert_eq!(dst, 3, "only the survivor receives notices");
            }
        }
    }

    #[test]
    fn flow_window_holds_submissions_and_releases_in_order() {
        let mut l = link_flow(2, 2);
        let mut all = Vec::new();
        let run = |out: Vec<Action>, all: &mut Vec<SendKind>| {
            all.extend(wire(&out).into_iter().map(|(_, kind, _)| kind));
            out
        };
        assert_eq!(tags(&run(send(&mut l, 1, b"a", 10), &mut all)), ["data"]);
        assert_eq!(tags(&run(send(&mut l, 1, b"b", 10), &mut all)), ["data"]);
        // Window full: further submissions are held unstamped.
        assert!(matches!(
            send(&mut l, 1, b"c", 10).as_slice(),
            [Action::Held { dst: 1, entered: true }]
        ));
        assert!(matches!(
            send(&mut l, 1, b"d", 10).as_slice(),
            [Action::Held { dst: 1, entered: false }]
        ));
        assert!(l.peers[1].backpressured);
        assert_eq!((unacked(&l, 1), l.peers[1].held.len()), (2, 2));
        // Ack seq 1: one slot opens inside the ack's own step; exactly one
        // held buffer is stamped, in submission order (it gets seq 3).
        let out = run(packet(&mut l, 1, &hdr(KIND_ACK, 0, 1), 20), &mut all);
        let [Action::Send { dst: 1, payload, kind: SendKind::Data { was_held: true, .. } }] =
            out.as_slice()
        else {
            panic!("expected one released buffer, got {:?}", tags(&out));
        };
        let h = parse_header(payload).unwrap();
        assert_eq!((h.seq, &payload[HEADER_LEN..]), (3, &b"c"[..]));
        assert!(l.peers[1].backpressured, "still one held");
        // Ack everything in flight: the last held buffer drains and the
        // Backpressured state clears.
        let out = run(packet(&mut l, 1, &hdr(KIND_ACK, 0, 3), 30), &mut all);
        assert_eq!(tags(&out), ["data", "open"]);
        assert_eq!(wire(&out)[0].2.seq, 4);
        assert!(!l.peers[1].backpressured);
        assert!(l.peers[1].held.is_empty());
        // Window never overshot its bound.
        let occupancy = all.iter().map(|k| match k {
            SendKind::Data { occupancy, .. } => *occupancy,
            _ => 0,
        });
        assert_eq!(occupancy.max(), Some(2));
        // And the window is usable again.
        assert_eq!(tags(&send(&mut l, 1, b"e", 40)), ["data"]);
    }

    #[test]
    fn receiver_credit_shrinks_the_window_and_zero_credit_keeps_one_probe() {
        let mut l = link_flow(2, 8);
        // Peer advertises credit 1: effective window min(8, 1).
        packet(&mut l, 1, &encode_header(KIND_ACK, 0, 0, 1), 10);
        assert_eq!(tags(&send(&mut l, 1, b"a", 10)), ["data"]);
        assert_eq!(tags(&send(&mut l, 1, b"b", 10)), ["held"]);
        assert!(l.peers[1].backpressured);
        // Credit 0 floors at one in-flight probe buffer, so the window
        // can reopen from that probe's ack (never wedges).
        let mut l2 = link_flow(2, 8);
        packet(&mut l2, 1, &encode_header(KIND_ACK, 0, 0, 0), 10);
        assert_eq!(tags(&send(&mut l2, 1, b"a", 10)), ["data"]);
        assert_eq!(tags(&send(&mut l2, 1, b"b", 10)), ["held"]);
        // The probe's ack (with restored credit) releases the rest.
        assert_eq!(
            tags(&packet(&mut l2, 1, &encode_header(KIND_ACK, 0, 1, 4), 20)),
            ["data", "open"]
        );
    }

    #[test]
    fn death_drains_held_buffers_alongside_unacked() {
        let mut l = link_flow(2, 1);
        assert_eq!(tags(&send(&mut l, 1, b"a", 10)), ["data"]);
        assert_eq!(tags(&send(&mut l, 1, b"b", 10)), ["held"]);
        assert_eq!(tags(&send(&mut l, 1, b"c", 10)), ["held"]);
        let out = down(&mut l, 1);
        let [Action::Dead { dst: 1, unacked, held, cause: DeathCause::Down(DownCause::Killed) }] =
            out.as_slice()
        else {
            panic!("expected the death, got {:?}", tags(&out));
        };
        // 1 in-flight + 2 held: all three carry tokens that must fail.
        assert_eq!((unacked.len(), held.len()), (1, 2));
        assert!(!l.peers[1].backpressured);
        assert!(l.peers[1].held.is_empty());
    }

    /// Carries the send actions of two links between them, `delay` ticks
    /// one way, dropping, duplicating and delaying packets further from a
    /// seeded generator until it turns lossless.
    struct LossyWire {
        rng: SmallRng,
        drop: f64,
        dup: f64,
        lossless: bool,
        delay: u64,
        /// Packets on the wire: the tick they arrive at, where, what.
        in_flight: Vec<(u64, NodeId, Payload)>,
        /// Deliveries at the receiver, per buffer index.
        delivered: Vec<u32>,
        retransmits: u32,
    }

    impl LossyWire {
        fn new(rng: SmallRng, drop: f64, dup: f64, delay: u64, buffers: u64) -> Self {
            LossyWire {
                rng,
                drop,
                dup,
                lossless: false,
                delay,
                in_flight: Vec::new(),
                delivered: vec![0; buffers as usize],
                retransmits: 0,
            }
        }

        /// Hands `links` the packets due at tick `t`.
        fn deliver(&mut self, links: &mut [ReliableLink; 2], t: u64, now: u64, window: usize) {
            let mut out = Vec::new();
            let (due, later) = std::mem::take(&mut self.in_flight)
                .into_iter()
                .partition::<Vec<_>, _>(|(at, ..)| *at <= t);
            self.in_flight = later;
            for (_, to, payload) in due {
                links[to].step(now, Event::Packet { src: 1 - to, payload }, &mut out);
                self.carry(to, t, window, &mut out);
            }
        }

        /// Takes the actions node `from` asked for at tick `t`.
        fn carry(&mut self, from: NodeId, t: u64, window: usize, out: &mut Vec<Action>) {
            for a in out.drain(..) {
                match a {
                    Action::Send { dst, payload, kind } => {
                        match kind {
                            SendKind::Data { occupancy, .. } => {
                                assert!(occupancy <= window, "{occupancy} unacked, window {window}")
                            }
                            SendKind::Retransmit => self.retransmits += 1,
                            _ => {}
                        }
                        if self.lossless {
                            self.in_flight.push((t + self.delay, dst, payload));
                            continue;
                        }
                        if self.rng.gen_bool(self.drop) {
                            continue;
                        }
                        let copies = if self.rng.gen_bool(self.dup) { 2 } else { 1 };
                        for _ in 0..copies {
                            let late = self.rng.gen_range(0..=3u64);
                            self.in_flight.push((t + self.delay + late, dst, payload.clone()));
                        }
                    }
                    Action::Deliver { payload, .. } => {
                        let index = u64::from_le_bytes(payload[HEADER_LEN..].try_into().unwrap());
                        self.delivered[index as usize] += 1;
                    }
                    Action::Dead { dst, cause, .. } => {
                        panic!("node {from} declared node {dst} dead: {cause}")
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn a_seeded_lossy_wire_delivers_every_buffer_exactly_once() {
        const BUFFERS: u64 = 500;
        const WINDOW: usize = 4;
        const TICK: u64 = 10;
        /// Ticks the links get, once the wire is lossless, to go quiet.
        const SETTLE: u64 = 200;
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (drop, dup) = (rng.gen_range(0.0..0.2), rng.gen_range(0.0..0.1));
            // Heartbeats every 20 ticks; 800 ticks of silence, which no
            // seed's losses come near, would be a death.
            let death = 20 * TICK * HEARTBEAT_FRACTION;
            let mut links = [0, 1]
                .map(|me| ReliableLink::new(me, 2, 4 * TICK, 32 * TICK, 2 * TICK, WINDOW, death));
            let mut wire = LossyWire::new(rng, drop, dup, 1, BUFFERS);
            let quiet = |links: &[ReliableLink; 2]| {
                links.iter().all(|l| {
                    l.peers
                        .iter()
                        .all(|p| p.rtx.is_empty() && p.held.is_empty() && p.ack_due_ns == 0)
                })
            };
            let mut out = Vec::new();
            let mut next = 0u64;
            let mut lossless_at = None;
            for t in 0u64.. {
                let now = t * TICK;
                // Node 0 submits two buffers a tick, each tagged with its index.
                for _ in 0..2 {
                    if next < BUFFERS {
                        let payload = data_payload(&next.to_le_bytes());
                        links[0].step(now, Event::Send { dst: 1, payload }, &mut out);
                        wire.carry(0, t, WINDOW, &mut out);
                        next += 1;
                    }
                }
                wire.deliver(&mut links, t, now, WINDOW);
                for (me, l) in links.iter_mut().enumerate() {
                    l.step(now, Event::Tick { credit: WINDOW as u16 }, &mut out);
                    wire.carry(me, t, WINDOW, &mut out);
                }
                assert!(unacked(&links[0], 1) <= links[0].effective_window(1));
                match lossless_at {
                    None if wire.delivered.iter().all(|&n| n > 0) => {
                        wire.lossless = true;
                        lossless_at = Some(t);
                    }
                    None => assert!(t < 100_000, "seed {seed}: delivery never completed"),
                    Some(at) if quiet(&links) && wire.in_flight.is_empty() => {
                        assert!(t - at <= SETTLE);
                        break;
                    }
                    Some(at) => assert!(
                        t - at <= SETTLE,
                        "seed {seed}: not quiet {SETTLE} ticks after the wire turned lossless"
                    ),
                }
            }
            assert!(
                wire.delivered.iter().all(|&n| n == 1),
                "seed {seed} (drop {drop:.3}, dup {dup:.3}): a buffer was not delivered exactly once"
            );
        }
    }

    #[test]
    fn a_wire_slower_than_the_floor_stops_retransmitting_after_one_sample() {
        const BUFFERS: u64 = 20;
        const TICK: u64 = 10;
        // 15 ticks one way: a round trip of 300, three times the floor.
        // One buffer at a time, as a chain of dependent operations sends
        // them: a fixed RTO at the floor retransmits every one.
        let mut links = [0, 1].map(|me| ReliableLink::new(me, 2, 100, 3200, 50, WIDE, NEVER));
        let mut wire = LossyWire::new(SmallRng::seed_from_u64(0), 0.0, 0.0, 15, BUFFERS);
        wire.lossless = true;
        let mut out = Vec::new();
        let mut before_sample = None;
        for t in 0..2_000u64 {
            let now = t * TICK;
            // Node 0 submits a buffer every 50 ticks.
            if t % 50 == 0 && t / 50 < BUFFERS {
                let payload = data_payload(&(t / 50).to_le_bytes());
                links[0].step(now, Event::Send { dst: 1, payload }, &mut out);
                wire.carry(0, t, WIDE, &mut out);
            }
            wire.deliver(&mut links, t, now, WIDE);
            for (me, l) in links.iter_mut().enumerate() {
                l.step(now, Event::Tick { credit: CREDIT_UNLIMITED }, &mut out);
                wire.carry(me, t, WIDE, &mut out);
            }
            if before_sample.is_none() && links[0].peers[1].srtt_ns.is_some() {
                before_sample = Some(wire.retransmits);
            }
        }
        let before = before_sample.expect("no round trip was sampled");
        assert!(before > 0, "the floor is under the round trip: the first buffers time out");
        assert_eq!(wire.retransmits, before, "a retransmission after the first sample");
        assert!(wire.delivered.iter().all(|&n| n == 1));
        assert_eq!(unacked(&links[0], 1), 0);
    }
}
