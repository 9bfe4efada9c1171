//! Runtime configuration (the paper's Table IV).

use gmt_net::NetworkModel;

/// Stack size of user-level tasks, bytes. Task stacks have no guard page,
/// and a task that panics on a stack under 32 KiB corrupts the heap (the
/// first unwind of a process needs more than 16 KiB), so this is not a
/// knob: 64 KiB leaves headroom over that.
pub const TASK_STACK_SIZE: usize = 64 * 1024;
const _: () = assert!(TASK_STACK_SIZE >= gmt_context::MIN_STACK_SIZE);

/// How long a receiver may sit on an unsent cumulative ack hoping to
/// piggyback it on return traffic before a standalone ack goes out (ns).
pub const ACK_DELAY_NS: u64 = 100_000;

/// Floor of the retransmit timeout the reliable link measures per peer
/// (ns, coarse-clock granularity), and the timeout toward a peer it has
/// no round-trip sample of yet.
pub const RTO_MIN_NS: u64 = 1_000_000;

/// Cap of the measured retransmit timeout and of its backoff (ns).
pub const RTO_MAX_NS: u64 = 20_000_000;

/// Events retained per thread lane by the ring-buffer tracer (a sliding
/// window over the run's tail). Only allocated when `GMT_TRACE` is set.
pub const TRACE_CAPACITY: usize = 8 * 1024;

/// Failure detector: silence from a peer past this fraction of
/// [`Config::peer_death_timeout_ns`] raises a *suspicion* (counted,
/// logged, cleared by any packet from the peer; no token fails).
pub const SUSPECT_FRACTION: u64 = 5;

/// Failure detector: a link with no outbound traffic for this fraction of
/// [`Config::peer_death_timeout_ns`] gets a standalone heartbeat, and the
/// communication server asks the transport for link state on the same
/// cadence. Busy links never emit heartbeats — liveness rides on data and
/// ack traffic for free.
pub const HEARTBEAT_FRACTION: u64 = 40;

/// Configuration of one GMT node instance: the 14 values that some
/// caller, preset, test or benchmark sets to a second value. Everything
/// else is a constant above or simply always on (batched helper apply,
/// the flow window and its hold queue toward a slow peer, the failure
/// detector and link-state observation, `[gmt] warn:` lines on stderr).
///
/// The defaults of [`Config::olympus`] mirror Table IV of the paper; the
/// reproduction host has a single core, so [`Config::small`] scales the
/// thread counts down while keeping every mechanism (aggregation levels,
/// task multiplexing, timeouts) in play.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Worker threads per node (Table IV: 15).
    pub num_workers: usize,
    /// Helper threads per node (Table IV: 15).
    pub num_helpers: usize,
    /// Aggregation buffers pre-allocated per channel queue (Table IV: 4).
    pub num_buf_per_channel: usize,
    /// Maximum concurrently live tasks per worker (Table IV: 1024).
    pub max_tasks_per_worker: usize,
    /// Aggregation buffer size in bytes (Table IV: 65536).
    pub buffer_size: usize,
    /// Maximum commands collected in one command block before it is pushed
    /// to the aggregation queue. Kept: the end-to-end benchmark runs on 64
    /// where the presets carry 16 and 64.
    pub cmd_block_entries: usize,
    /// Age (ns) after which a non-empty command block is pushed to the
    /// aggregation queue even if not full (the paper flushes blocks that
    /// "have been waiting longer than a predetermined time interval").
    /// Kept, with [`Config::aggregation_timeout_ns`]: the presets differ,
    /// one test raises both to 1 s to show that a lone task does not wait
    /// for them, and whether the idle flush has made them one value is a
    /// performance question of its own.
    ///
    /// Timeouts are checked against the runtime's coarse monotonic clock,
    /// which the communication server advances once per sweep rather than
    /// per command, so the effective granularity is one sweep interval.
    pub cmd_block_timeout_ns: u64,
    /// Age (ns) after which an aggregation queue is drained into a buffer
    /// and sent even if a full buffer's worth has not accumulated.
    /// Same coarse-clock granularity as [`Config::cmd_block_timeout_ns`].
    pub aggregation_timeout_ns: u64,
    /// Maximum distinct `(array, offset)` cells tracked per destination in
    /// the command sink's combining table, which merges fire-and-forget
    /// atomic adds to the same cell into one wire command. 0 disables
    /// combining — kept because `tests/combining.rs` uses 0 as the
    /// reference its merged results are compared against. Tables flush on
    /// overflow, on block flush, and on the same coarse-clock timeout as
    /// command blocks.
    pub combine_window: usize,
    /// Network cost model enforced by the fabric, or `None` for instant
    /// delivery (functional testing). Kept: the latency-tolerance
    /// experiments need the Olympus model, every functional test `None`.
    pub network: Option<NetworkModel>,
    /// Per-peer flow-control window: the maximum unacked data buffers in
    /// flight toward one peer before further buffers are held back at the
    /// sender and the peer enters the **Backpressured** state (distinct
    /// from death — nothing fails, the window just stops growing).
    /// Receivers additionally advertise credit from their inbound backlog
    /// and the effective window is the smaller of the two. At least 1,
    /// capped at `u16::MAX - 1` by the credit wire encoding. Kept: the
    /// flow-control tests narrow it so a throttled link fills it.
    pub flow_window: usize,
    /// Age (ns) past which a task parked on remote completions is reported
    /// by the stuck-task watchdog. Kept: the watchdog tests shorten it.
    pub stuck_task_deadline_ns: u64,
    /// Failure detector: silence past this age *confirms* the peer dead —
    /// the only timer that does; a retransmission that goes unacked never
    /// does by itself. The peer's tokens fail with
    /// [`GmtError::RemoteDead`](crate::error::GmtError::RemoteDead) and a
    /// death notice is disseminated to all survivors so the cluster
    /// converges on one membership view. Silence past a
    /// [`SUSPECT_FRACTION`]th of it raises a suspicion first, and an idle
    /// link heartbeats every [`HEARTBEAT_FRACTION`]th of it. Kept:
    /// `gmt-launch` and the TCP tests raise it on hosts where a loaded
    /// process can stay silent for a second, the membership tests lower
    /// it.
    pub peer_death_timeout_ns: u64,
    /// Enforcement deadline (ns) for blocking remote operations: a task
    /// parked longer than this is force-woken and its wait returns
    /// [`GmtError::DeadlineExceeded`](crate::error::GmtError::DeadlineExceeded).
    /// `0` (the default) disables enforcement; per-task deadlines set via
    /// the `*_deadline` API variants override this value. Kept: it is the
    /// only bound on a wait behind a loss nothing detects (a
    /// half-partition: a peer that is heard but never acks) and the only
    /// one shorter than the death timeout behind a silent partition, which
    /// the wave and membership tests arm.
    pub op_deadline_ns: u64,
}

impl Config {
    /// The paper's Olympus configuration (Table IV).
    pub fn olympus() -> Self {
        Config {
            num_workers: 15,
            num_helpers: 15,
            num_buf_per_channel: 4,
            max_tasks_per_worker: 1024,
            buffer_size: 65_536,
            cmd_block_entries: 64,
            cmd_block_timeout_ns: 10_000,
            aggregation_timeout_ns: 30_000,
            combine_window: 16,
            network: Some(NetworkModel::olympus()),
            flow_window: 32,
            stuck_task_deadline_ns: 1_000_000_000,
            peer_death_timeout_ns: 3_000_000_000,
            op_deadline_ns: 0,
        }
    }

    /// A configuration sized for a single-core test host: every mechanism
    /// enabled, thread counts minimal, instant network delivery.
    pub fn small() -> Self {
        Config {
            num_workers: 2,
            num_helpers: 1,
            num_buf_per_channel: 4,
            max_tasks_per_worker: 64,
            buffer_size: 8 * 1024,
            cmd_block_entries: 16,
            cmd_block_timeout_ns: 5_000,
            aggregation_timeout_ns: 10_000,
            combine_window: 16,
            network: None,
            flow_window: 32,
            stuck_task_deadline_ns: 1_000_000_000,
            peer_death_timeout_ns: 1_000_000_000,
            op_deadline_ns: 0,
        }
    }

    /// Like [`Config::small`] but with the Olympus network model enforced
    /// in wall time, for latency-tolerance experiments.
    pub fn small_throttled() -> Self {
        Config { network: Some(NetworkModel::olympus()), ..Config::small() }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_workers == 0 {
            return Err("num_workers must be at least 1".into());
        }
        if self.num_helpers == 0 {
            return Err("num_helpers must be at least 1".into());
        }
        if self.max_tasks_per_worker == 0 {
            return Err("max_tasks_per_worker must be at least 1".into());
        }
        if self.num_buf_per_channel == 0 {
            return Err("num_buf_per_channel must be at least 1".into());
        }
        if self.buffer_size < 256 {
            return Err(format!("buffer_size {} too small (min 256)", self.buffer_size));
        }
        if self.cmd_block_entries == 0 {
            return Err("cmd_block_entries must be at least 1".into());
        }
        if self.flow_window == 0 || self.flow_window >= u16::MAX as usize {
            return Err(format!(
                "flow_window {} is outside 1..={} (the u16 credit encoding)",
                self.flow_window,
                u16::MAX - 1
            ));
        }
        if self.peer_death_timeout_ns < HEARTBEAT_FRACTION {
            return Err(format!(
                "peer_death_timeout_ns {} leaves no heartbeat interval (min {HEARTBEAT_FRACTION})",
                self.peer_death_timeout_ns
            ));
        }
        Ok(())
    }

    /// Largest payload a single put/get command may carry so the command
    /// still fits in one aggregation buffer; larger transfers are split.
    pub fn max_inline_payload(&self) -> usize {
        // Leave generous room for the largest command header plus the
        // reliability header reserved at the front of every buffer.
        self.buffer_size - 64
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn olympus_matches_table_iv() {
        let c = Config::olympus();
        assert_eq!(c.num_workers, 15);
        assert_eq!(c.num_helpers, 15);
        assert_eq!(c.num_buf_per_channel, 4);
        assert_eq!(c.max_tasks_per_worker, 1024);
        assert_eq!(c.buffer_size, 65_536);
        c.validate().unwrap();
    }

    #[test]
    fn presets_validate() {
        Config::small().validate().unwrap();
        Config::small_throttled().validate().unwrap();
        Config::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for f in [
            |c: &mut Config| c.num_workers = 0,
            |c: &mut Config| c.num_helpers = 0,
            |c: &mut Config| c.max_tasks_per_worker = 0,
            |c: &mut Config| c.num_buf_per_channel = 0,
            |c: &mut Config| c.buffer_size = 16,
            |c: &mut Config| c.cmd_block_entries = 0,
            |c: &mut Config| c.flow_window = 0,
            |c: &mut Config| c.flow_window = u16::MAX as usize,
            |c: &mut Config| c.peer_death_timeout_ns = HEARTBEAT_FRACTION - 1,
        ] {
            let mut c = Config::small();
            f(&mut c);
            assert!(c.validate().is_err(), "accepted bad config {c:?}");
        }
    }

    #[test]
    fn max_inline_payload_fits_buffer() {
        let c = Config::small();
        assert!(c.max_inline_payload() < c.buffer_size);
        assert!(c.max_inline_payload() > c.buffer_size / 2);
    }
}
