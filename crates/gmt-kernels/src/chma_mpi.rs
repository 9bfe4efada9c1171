//! MPI-style Concurrent Hash Map Access baseline (§V-D).
//!
//! "In the MPI implementation, each MPI rank is responsible for a portion
//! of the hash map. [...] if the current process does not own the hashed
//! string, it sends the string to its owner. Small MPI messages are very
//! frequent, because a process cannot proceed with a new string until it
//! has finished manipulating the previous one."
//!
//! Each rank therefore alternates between advancing its own L-step stream
//! (blocking on a request/reply per remote probe or insert) and servicing
//! other ranks' requests. Termination: a rank that finishes its steps
//! broadcasts END and keeps serving until every peer's END arrived.

use crate::chma::{fnv1a, pool_string, ChmaConfig, ChmaResult, MAX_STR};
use crate::mpi_util::{owner, run_ranks_on};
use gmt_net::{DeliveryMode, Endpoint, Fabric, Tag, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const TAG_PROBE: Tag = 1;
const TAG_PROBE_REPLY: Tag = 2;
const TAG_INSERT: Tag = 3;
const TAG_INSERT_REPLY: Tag = 4;
const TAG_END: Tag = 5;

/// A rank's slice of the hash map: fixed-size entries like the GMT
/// version (state is implicit — a local HashMap models the slots).
struct LocalMap {
    /// slot -> stored string (at most one per slot).
    slots: std::collections::HashMap<u64, Vec<u8>>,
}

impl LocalMap {
    fn probe(&self, slot: u64, s: &[u8]) -> bool {
        self.slots.get(&slot).is_some_and(|stored| stored == s)
    }

    fn insert(&mut self, slot: u64, s: &[u8]) -> bool {
        if self.slots.contains_key(&slot) {
            return false;
        }
        self.slots.insert(slot, s.to_vec());
        true
    }
}

/// Runs the baseline: `ranks` ranks, each executing `cfg.steps` stream
/// steps (so W = `ranks`; `cfg.tasks` is ignored — MPI has one process
/// per rank, which is exactly the paper's point).
pub fn mpi_chma(cfg: &ChmaConfig, ranks: usize) -> (ChmaResult, gmt_net::stats::NodeTraffic) {
    let fabric = Fabric::new(ranks, DeliveryMode::Instant);
    let result = mpi_chma_on(&fabric, cfg);
    (result, fabric.stats().total())
}

/// Baseline over a caller-owned fabric.
pub fn mpi_chma_on(fabric: &Fabric, cfg: &ChmaConfig) -> ChmaResult {
    let cfg = *cfg;
    let results = run_ranks_on(fabric, move |r, ep, _b| rank_main(r, ep, &cfg));
    let mut total = ChmaResult::default();
    for r in results {
        total.hits += r.hits;
        total.misses += r.misses;
        total.inserts += r.inserts;
        total.accesses += r.accesses;
    }
    total
}

struct Rank {
    r: usize,
    ranks: usize,
    entries: u64,
    map: LocalMap,
    ep: Endpoint,
    ends_seen: usize,
    /// Replies to our own requests, in order.
    replies: VecDeque<bool>,
}

impl Rank {
    fn slot_of(&self, s: &[u8]) -> (usize, u64) {
        let slot = fnv1a(s) % self.entries;
        (owner(self.entries, self.ranks, slot), slot)
    }

    /// Services one incoming packet; records replies to our requests.
    fn dispatch(&mut self, pkt: gmt_net::Packet) {
        match pkt.tag {
            TAG_PROBE => {
                let slot = u64::from_le_bytes(pkt.payload[..8].try_into().unwrap());
                let hit = self.map.probe(slot, &pkt.payload[8..]);
                self.ep.send(pkt.src, TAG_PROBE_REPLY, vec![hit as u8]).unwrap();
            }
            TAG_INSERT => {
                let slot = u64::from_le_bytes(pkt.payload[..8].try_into().unwrap());
                let ok = self.map.insert(slot, &pkt.payload[8..]);
                self.ep.send(pkt.src, TAG_INSERT_REPLY, vec![ok as u8]).unwrap();
            }
            TAG_PROBE_REPLY | TAG_INSERT_REPLY => {
                self.replies.push_back(pkt.payload[0] != 0);
            }
            TAG_END => self.ends_seen += 1,
            other => unreachable!("unexpected tag {other}"),
        }
    }

    /// Sends a request and blocks for its reply, serving others meanwhile
    /// (the "cannot proceed with a new string" pattern).
    fn remote_op(&mut self, dst: usize, tag: Tag, slot: u64, s: &[u8]) -> bool {
        let mut payload = Vec::with_capacity(8 + s.len());
        payload.extend_from_slice(&slot.to_le_bytes());
        payload.extend_from_slice(s);
        self.ep.send(dst, tag, payload).unwrap();
        loop {
            if let Some(r) = self.replies.pop_front() {
                return r;
            }
            let pkt = self.ep.recv().expect("fabric alive");
            self.dispatch(pkt);
        }
    }

    fn probe(&mut self, s: &[u8]) -> bool {
        let (o, slot) = self.slot_of(s);
        if o == self.r {
            self.map.probe(slot, s)
        } else {
            self.remote_op(o, TAG_PROBE, slot, s)
        }
    }

    fn insert(&mut self, s: &[u8]) -> bool {
        let (o, slot) = self.slot_of(s);
        if o == self.r {
            self.map.insert(slot, s)
        } else {
            self.remote_op(o, TAG_INSERT, slot, s)
        }
    }
}

fn rank_main(r: usize, ep: Endpoint, cfg: &ChmaConfig) -> ChmaResult {
    let ranks = ep.nodes();
    assert!(cfg.pool > 0 && cfg.entries > 0);
    let mut rank = Rank {
        r,
        ranks,
        entries: cfg.entries,
        map: LocalMap { slots: std::collections::HashMap::new() },
        ep,
        ends_seen: 0,
        replies: VecDeque::new(),
    };
    // Populate: every rank inserts its block of the pool.
    let pool_share = crate::mpi_util::block_range(cfg.pool, ranks, r);
    for i in pool_share {
        let s = pool_string(cfg.seed, i);
        rank.insert(&s);
    }
    // Drain stragglers so the timed phase starts clean-ish (best effort;
    // replies are matched by order regardless).
    while let Some(pkt) = rank.ep.try_recv() {
        rank.dispatch(pkt);
    }

    // Access phase: L steps of probe / reverse / insert.
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed ^ (r as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    let (mut hits, mut misses, mut inserts) = (0u64, 0u64, 0u64);
    let mut s = pool_string(cfg.seed, rng.gen_range(0..cfg.pool));
    for _ in 0..cfg.steps {
        if rank.probe(&s) {
            hits += 1;
            s.reverse();
            debug_assert!(s.len() <= MAX_STR);
            if rank.insert(&s) {
                inserts += 1;
            }
        } else {
            misses += 1;
        }
        s = pool_string(cfg.seed, rng.gen_range(0..cfg.pool));
    }
    // Termination protocol.
    for o in 0..ranks {
        if o != r {
            rank.ep.send(o, TAG_END, Vec::new()).unwrap();
        }
    }
    while rank.ends_seen + 1 < ranks {
        let pkt = rank.ep.recv().expect("fabric alive");
        rank.dispatch(pkt);
    }
    ChmaResult { hits, misses, inserts, accesses: cfg.steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_to_completion_and_counts_are_consistent() {
        let cfg = ChmaConfig { entries: 128, pool: 64, tasks: 0, steps: 32, seed: 5 };
        for ranks in [1usize, 2, 4] {
            let (r, _) = mpi_chma(&cfg, ranks);
            assert_eq!(r.accesses, 32 * ranks as u64);
            assert_eq!(r.hits + r.misses, r.accesses);
            assert!(r.inserts <= r.hits);
        }
    }

    #[test]
    fn probes_hit_after_populate() {
        // Pool smaller than entries: most strings present → hits dominate.
        let cfg = ChmaConfig { entries: 1024, pool: 32, tasks: 0, steps: 64, seed: 6 };
        let (r, _) = mpi_chma(&cfg, 2);
        assert!(r.hits > r.misses, "hits {} misses {}", r.hits, r.misses);
    }

    #[test]
    fn remote_traffic_is_fine_grained() {
        let cfg = ChmaConfig { entries: 512, pool: 256, tasks: 0, steps: 100, seed: 7 };
        let (r, traffic) = mpi_chma(&cfg, 4);
        // Most probes/inserts cross ranks: message count is of the same
        // order as total operations (requests + replies), i.e. NOT
        // aggregated. Populate (256) + access (400) ops, ~3/4 remote,
        // × 2 messages each.
        let ops = 256 + r.accesses;
        assert!(
            traffic.sent_msgs as f64 > ops as f64 * 0.8,
            "expected fine-grained traffic: {} msgs for {} ops",
            traffic.sent_msgs,
            ops
        );
        // And the messages are tiny.
        assert!(traffic.sent_bytes / traffic.sent_msgs.max(1) < 64);
    }

    #[test]
    fn single_rank_runs_without_messages() {
        let cfg = ChmaConfig { entries: 64, pool: 32, tasks: 0, steps: 16, seed: 8 };
        let (r, traffic) = mpi_chma(&cfg, 1);
        assert_eq!(traffic.sent_msgs, 0);
        assert_eq!(r.hits + r.misses, 16);
    }
}
