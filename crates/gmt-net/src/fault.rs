//! Seeded, deterministic fault injection for the fabric.
//!
//! The paper's GMT assumes a lossless MPI fabric; a production runtime
//! cannot. A [`FaultPlan`] turns the fabric adversarial in a *replayable*
//! way: per-link drop probability, duplication, delay jitter, link-flap
//! schedules and hard node kills, all driven by a caller-provided seed.
//!
//! Determinism: every per-packet decision is a pure function of
//! `(seed, link, per-link send counter)` — no shared RNG stream — so the
//! decision sequence on each link is identical across runs regardless of
//! how sends on *different* links interleave. Tests print their seed on
//! failure and replay the exact same fault pattern.
//!
//! Semantics at the send site (the fault shim of [`crate::framed`], which
//! every backend's [`Transport::send`](crate::Transport::send) runs):
//!
//! * **drop / flap-down / killed node** — the send *succeeds* from the
//!   sender's point of view (a real NIC does not know the switch ate the
//!   frame) and the packet silently vanishes; `TrafficStats` counts it as
//!   dropped. In throttled mode the packet still consumes its
//!   serialization time first, so loss composes with the cost model.
//! * **duplication** — the packet is delivered twice (the copy shares the
//!   bytes zero-copy for shared payloads, and is a plain byte copy
//!   otherwise, so pooled buffers are never released twice).
//! * **delay jitter** — throttled mode only: a uniform extra wire delay in
//!   `[0, jitter_ns)` is added to the delivery deadline, reordering
//!   packets across links. Instant mode ignores jitter.
//! * **bandwidth throttle** — throttled mode only: a per-link multiplier
//!   on the cost model's serialization time, so one link can be made 10x
//!   slower than the rest without touching loss. Slowness becomes
//!   injectable exactly like drops are. Instant mode (no cost model, no
//!   serialization) ignores it, like jitter.
//! * **stall** — throttled mode only: with probability `stall_prob` a
//!   packet is parked for an extra `stall_ns` before delivery (a GC
//!   pause / deep queue on the path — the head-of-line blocking shape,
//!   rather than the uniformly-slow throttle shape). Rides the same
//!   extra-delay mechanism as jitter and composes with it.
//!
//! Silent loss and duplication are only safe for traffic protected by a
//! delivery layer (gmt-core's `reliable` module) or for raw-fabric tests
//! that tolerate them. A sender observes an outage as a *failed send*
//! only on a real wire, after a kill severed the link
//! ([`crate::framed`]).

use crate::NodeId;
use std::collections::HashMap;

/// One down-window of a link-flap schedule, in nanoseconds since the plan
/// was installed on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapWindow {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Fault configuration of one directed link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a packet is delivered twice.
    pub dup_prob: f64,
    /// Maximum extra delivery delay (uniform in `[0, jitter_ns)`),
    /// throttled mode only.
    pub jitter_ns: u64,
    /// Explicit down-windows (ns since plan install).
    pub flaps: Vec<FlapWindow>,
    /// Periodic flapping: `(period_ns, down_ns)` — the link is down during
    /// the first `down_ns` of every `period_ns` cycle. Composes with
    /// `flaps`.
    pub flap_period: Option<(u64, u64)>,
    /// Serialization-time multiplier (throttled mode only). Values `<= 1`
    /// (including the default `0.0`) mean "no throttle"; `10.0` makes the
    /// link push bytes ten times slower.
    pub throttle_factor: f64,
    /// Probability in `[0, 1]` that a packet stalls for `stall_ns` extra
    /// before delivery (throttled mode only).
    pub stall_prob: f64,
    /// Stall duration applied when `stall_prob` fires.
    pub stall_ns: u64,
}

impl LinkFaults {
    fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.jitter_ns == 0
            && self.flaps.is_empty()
            && self.flap_period.is_none()
            && self.throttle_factor <= 1.0
            && (self.stall_prob <= 0.0 || self.stall_ns == 0)
    }

    /// `true` if the link is flapped down at `t_ns` since plan install.
    fn down_at(&self, t_ns: u64) -> bool {
        if self.flaps.iter().any(|w| t_ns >= w.start_ns && t_ns < w.end_ns) {
            return true;
        }
        match self.flap_period {
            Some((period, down)) if period > 0 => t_ns % period < down,
            _ => false,
        }
    }
}

/// What the plan decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDecision {
    pub drop: bool,
    pub duplicate: bool,
    pub extra_delay_ns: u64,
    /// Serialization-time multiplier (`1.0` = untouched; only meaningful
    /// to throttled delivery, which owns a cost model).
    pub throttle_factor: f64,
    /// A stall fault fired (its duration is already folded into
    /// `extra_delay_ns`); lets the fabric count stalls apart from jitter.
    pub stalled: bool,
}

impl FaultDecision {
    pub(crate) const CLEAN: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        extra_delay_ns: 0,
        throttle_factor: 1.0,
        stalled: false,
    };

    pub(crate) const DROP: FaultDecision = FaultDecision { drop: true, ..FaultDecision::CLEAN };
}

/// A seeded, deterministic description of how the fabric misbehaves.
///
/// Built with the fluent setters, then installed on a node's send path
/// with [`Transport::install_faults`](crate::Transport::install_faults).
///
/// ```
/// use gmt_net::{FaultPlan, FlapWindow};
/// let plan = FaultPlan::new(42)
///     .drop(0, 1, 0.05)           // 5% loss on link 0 -> 1
///     .dup(1, 0, 0.01)            // 1% duplication on the way back
///     .flap_period(2, 3, 1_000_000, 250_000) // 2->3 down 25% of the time
///     .kill(7);                   // node 7 unreachable, sends blackholed
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-link overrides; links without an entry use `all`.
    links: HashMap<(NodeId, NodeId), LinkFaults>,
    /// Faults applied to every link without an explicit entry.
    all: LinkFaults,
    /// Killed nodes: everything to or from them is silently dropped.
    killed: Vec<NodeId>,
}

impl FaultPlan {
    /// An empty plan with the given seed. The seed only matters once
    /// probabilistic faults are configured; structural faults (flaps,
    /// kills) are deterministic regardless.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// The seed this plan replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn link_mut(&mut self, src: NodeId, dst: NodeId) -> &mut LinkFaults {
        let all = self.all.clone();
        self.links.entry((src, dst)).or_insert(all)
    }

    /// Sets the drop probability of the directed link `src -> dst`.
    pub fn drop(mut self, src: NodeId, dst: NodeId, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop probability out of range");
        self.link_mut(src, dst).drop_prob = prob;
        self
    }

    /// Sets the drop probability of *every* link (per-link settings made
    /// afterwards still override).
    pub fn drop_all(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop probability out of range");
        self.all.drop_prob = prob;
        for l in self.links.values_mut() {
            l.drop_prob = prob;
        }
        self
    }

    /// Sets the duplication probability of the directed link `src -> dst`.
    pub fn dup(mut self, src: NodeId, dst: NodeId, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "dup probability out of range");
        self.link_mut(src, dst).dup_prob = prob;
        self
    }

    /// Sets the duplication probability of every link.
    pub fn dup_all(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "dup probability out of range");
        self.all.dup_prob = prob;
        for l in self.links.values_mut() {
            l.dup_prob = prob;
        }
        self
    }

    /// Adds uniform delivery jitter in `[0, jitter_ns)` to `src -> dst`
    /// (throttled delivery only).
    pub fn jitter(mut self, src: NodeId, dst: NodeId, jitter_ns: u64) -> Self {
        self.link_mut(src, dst).jitter_ns = jitter_ns;
        self
    }

    /// Schedules a down-window on `src -> dst`: packets sent between
    /// `start_ns` and `end_ns` (since plan install) are silently dropped.
    pub fn flap(mut self, src: NodeId, dst: NodeId, start_ns: u64, end_ns: u64) -> Self {
        assert!(start_ns < end_ns, "empty flap window");
        self.link_mut(src, dst).flaps.push(FlapWindow { start_ns, end_ns });
        self
    }

    /// Makes `src -> dst` flap periodically: down during the first
    /// `down_ns` of every `period_ns` cycle, forever.
    pub fn flap_period(mut self, src: NodeId, dst: NodeId, period_ns: u64, down_ns: u64) -> Self {
        assert!(period_ns > 0 && down_ns < period_ns, "flap must leave up-time in each period");
        self.link_mut(src, dst).flap_period = Some((period_ns, down_ns));
        self
    }

    /// Throttles the bandwidth of `src -> dst`: serialization time is
    /// multiplied by `factor` (throttled delivery only). `factor <= 1`
    /// removes the throttle.
    pub fn throttle(mut self, src: NodeId, dst: NodeId, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "throttle factor out of range");
        self.link_mut(src, dst).throttle_factor = factor;
        self
    }

    /// Throttles every link's bandwidth by `factor`.
    pub fn throttle_all(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0, "throttle factor out of range");
        self.all.throttle_factor = factor;
        for l in self.links.values_mut() {
            l.throttle_factor = factor;
        }
        self
    }

    /// Makes packets on `src -> dst` stall for `stall_ns` extra with
    /// probability `prob` (throttled delivery only).
    pub fn stall(mut self, src: NodeId, dst: NodeId, prob: f64, stall_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "stall probability out of range");
        let l = self.link_mut(src, dst);
        l.stall_prob = prob;
        l.stall_ns = stall_ns;
        self
    }

    /// Makes packets on every link stall for `stall_ns` with probability
    /// `prob`.
    pub fn stall_all(mut self, prob: f64, stall_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "stall probability out of range");
        self.all.stall_prob = prob;
        self.all.stall_ns = stall_ns;
        for l in self.links.values_mut() {
            l.stall_prob = prob;
            l.stall_ns = stall_ns;
        }
        self
    }

    /// Hard-kills `node`: every packet to or from it is silently dropped.
    pub fn kill(mut self, node: NodeId) -> Self {
        if !self.killed.contains(&node) {
            self.killed.push(node);
        }
        self
    }

    /// `true` if `node` is hard-killed by this plan.
    pub fn is_killed(&self, node: NodeId) -> bool {
        self.killed.contains(&node)
    }

    /// `true` if the plan injects nothing at all (fast-path check).
    pub fn is_noop(&self) -> bool {
        self.killed.is_empty() && self.all.is_noop() && self.links.values().all(LinkFaults::is_noop)
    }

    fn link(&self, src: NodeId, dst: NodeId) -> &LinkFaults {
        self.links.get(&(src, dst)).unwrap_or(&self.all)
    }

    /// Decides the fate of the `n`-th packet on `src -> dst`, sent
    /// `t_ns` after the plan was installed. Pure: same inputs, same
    /// decision.
    pub(crate) fn decide(&self, src: NodeId, dst: NodeId, n: u64, t_ns: u64) -> FaultDecision {
        if self.is_killed(src) || self.is_killed(dst) {
            return FaultDecision::DROP;
        }
        let l = self.link(src, dst);
        if l.is_noop() {
            return FaultDecision::CLEAN;
        }
        // Dropped packets on a throttled link still consume their
        // (inflated) serialization time, so the factor rides every
        // decision once the link config is known.
        let throttle_factor = if l.throttle_factor > 1.0 { l.throttle_factor } else { 1.0 };
        if l.down_at(t_ns) {
            return FaultDecision { throttle_factor, ..FaultDecision::DROP };
        }
        // Four independent uniform draws from one hash keyed by
        // (seed, link, counter): stateless, per-link deterministic.
        let link_key = (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (dst as u64);
        let h0 = splitmix64(self.seed ^ link_key ^ n.wrapping_mul(0xD134_2543_DE82_EF95));
        let h1 = splitmix64(h0);
        let h2 = splitmix64(h1);
        let h3 = splitmix64(h2);
        let drop = l.drop_prob > 0.0 && unit(h0) < l.drop_prob;
        if drop {
            return FaultDecision { throttle_factor, ..FaultDecision::DROP };
        }
        let duplicate = l.dup_prob > 0.0 && unit(h1) < l.dup_prob;
        let mut extra_delay_ns = if l.jitter_ns > 0 { h2 % l.jitter_ns } else { 0 };
        let stalled = l.stall_prob > 0.0 && l.stall_ns > 0 && unit(h3) < l.stall_prob;
        if stalled {
            extra_delay_ns = extra_delay_ns.saturating_add(l.stall_ns);
        }
        FaultDecision { drop, duplicate, extra_delay_ns, throttle_factor, stalled }
    }
}

/// SplitMix64 — the standard 64-bit finalizing mixer; good enough to turn
/// a counter into independent-looking uniform draws, with no dependencies.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Reads a fault seed from the `GMT_FAULT_SEED` environment variable,
/// falling back to `default`. Adversarial tests use this so CI can run
/// them with a randomized seed; always print the seed you got, so a
/// failure can be replayed.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("GMT_FAULT_SEED") {
        Ok(s) => s.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_is_clean() {
        let plan = FaultPlan::new(1);
        assert!(plan.is_noop());
        assert_eq!(plan.decide(0, 1, 0, 0), FaultDecision::CLEAN);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlan::new(99).drop(0, 1, 0.3).dup(0, 1, 0.1);
        let b = FaultPlan::new(99).drop(0, 1, 0.3).dup(0, 1, 0.1);
        for n in 0..1000 {
            assert_eq!(a.decide(0, 1, n, 0), b.decide(0, 1, n, 0));
        }
        // A different seed gives a different decision sequence.
        let c = FaultPlan::new(100).drop(0, 1, 0.3).dup(0, 1, 0.1);
        let differs = (0..1000).any(|n| a.decide(0, 1, n, 0) != c.decide(0, 1, n, 0));
        assert!(differs, "seed does not influence decisions");
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let plan = FaultPlan::new(7).drop(2, 3, 0.25);
        let drops = (0..100_000).filter(|&n| plan.decide(2, 3, n, 0).drop).count();
        assert!((20_000..30_000).contains(&drops), "25% of 100k ended up as {drops}");
        // Other links are untouched.
        assert_eq!(plan.decide(3, 2, 0, 0), FaultDecision::CLEAN);
    }

    #[test]
    fn drop_all_covers_every_link_and_overrides_compose() {
        let plan = FaultPlan::new(5).drop_all(1.0).drop(0, 1, 0.0);
        assert!(plan.decide(4, 2, 0, 0).drop);
        assert!(!plan.decide(0, 1, 0, 0).drop);
    }

    #[test]
    fn flap_windows_down_the_link_on_schedule() {
        let plan = FaultPlan::new(0).flap(0, 1, 1_000, 2_000);
        assert!(!plan.decide(0, 1, 0, 999).drop);
        assert!(plan.decide(0, 1, 1, 1_000).drop);
        assert!(plan.decide(0, 1, 2, 1_999).drop);
        assert!(!plan.decide(0, 1, 3, 2_000).drop);
    }

    #[test]
    fn periodic_flap_cycles() {
        let plan = FaultPlan::new(0).flap_period(1, 2, 1_000, 300);
        for cycle in 0..5u64 {
            assert!(plan.decide(1, 2, 0, cycle * 1_000 + 299).drop);
            assert!(!plan.decide(1, 2, 0, cycle * 1_000 + 300).drop);
        }
    }

    #[test]
    fn killed_node_blackholes_both_directions() {
        let plan = FaultPlan::new(0).kill(3);
        assert!(plan.is_killed(3));
        assert!(plan.decide(0, 3, 0, 0).drop);
        assert!(plan.decide(3, 0, 0, 0).drop);
        assert!(!plan.decide(0, 1, 0, 0).drop);
    }

    #[test]
    fn jitter_is_bounded_and_varies() {
        let plan = FaultPlan::new(11).jitter(0, 1, 5_000);
        let delays: Vec<u64> = (0..100).map(|n| plan.decide(0, 1, n, 0).extra_delay_ns).collect();
        assert!(delays.iter().all(|&d| d < 5_000));
        assert!(delays.iter().any(|&d| d > 0), "jitter never fired");
    }

    #[test]
    fn throttle_rides_every_decision_on_the_link() {
        let plan = FaultPlan::new(3).throttle(0, 1, 10.0).drop(0, 1, 0.5);
        let mut saw_drop = false;
        for n in 0..200 {
            let d = plan.decide(0, 1, n, 0);
            assert_eq!(d.throttle_factor, 10.0, "throttle applies whether or not the packet drops");
            saw_drop |= d.drop;
        }
        assert!(saw_drop);
        // Other links and factors <= 1 are untouched.
        assert_eq!(plan.decide(1, 0, 0, 0).throttle_factor, 1.0);
        let noop = FaultPlan::new(3).throttle(0, 1, 0.5);
        assert!(noop.is_noop(), "factor <= 1 is not a fault");
    }

    #[test]
    fn stall_fires_at_roughly_its_probability_and_composes_with_jitter() {
        let plan = FaultPlan::new(17).stall(0, 1, 0.25, 100_000);
        let stalled =
            (0..100_000).filter(|&n| plan.decide(0, 1, n, 0).extra_delay_ns >= 100_000).count();
        assert!((20_000..30_000).contains(&stalled), "25% of 100k ended up as {stalled}");
        // With jitter on top, a stalled packet's delay is stall + [0, jitter).
        let both = FaultPlan::new(17).stall(0, 1, 1.0, 100_000).jitter(0, 1, 5_000);
        for n in 0..100 {
            let d = both.decide(0, 1, n, 0).extra_delay_ns;
            assert!((100_000..105_000).contains(&d));
        }
    }

    #[test]
    fn throttle_and_stall_are_deterministic_per_seed() {
        let a = FaultPlan::new(42).throttle_all(4.0).stall_all(0.1, 50_000).drop_all(0.05);
        let b = FaultPlan::new(42).throttle_all(4.0).stall_all(0.1, 50_000).drop_all(0.05);
        for n in 0..1000 {
            assert_eq!(a.decide(2, 3, n, 7), b.decide(2, 3, n, 7));
        }
    }

    #[test]
    fn seed_from_env_falls_back() {
        // Can't mutate the environment safely in a threaded test binary;
        // just exercise the fallback path (CI sets the variable for real).
        if std::env::var("GMT_FAULT_SEED").is_err() {
            assert_eq!(seed_from_env(1234), 1234);
        }
    }
}
