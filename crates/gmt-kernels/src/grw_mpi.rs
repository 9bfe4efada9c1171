//! MPI-style Graph Random Walk baseline (§V-C).
//!
//! The paper's MPI comparison code: vertices are block-partitioned; a
//! rank advances every walk whose current vertex it owns, and *delegates*
//! a walk when it steps onto a remote vertex. Per the paper, the baseline
//! already aggregates: "it buffers all the requests for each process and
//! sends them out at once only after completing the local walks", i.e.
//! bulk-synchronous delegation rounds. A fine-grained variant (one
//! message per delegation) is also provided for the ablation. The paper
//! measured this MPI code at 15× more source lines than the GMT version —
//! and still an order of magnitude slower.

use crate::grw::{decision, GrwResult};
use crate::mpi_util::{owner, run_ranks_on};
use gmt_graph::Csr;
use gmt_net::{DeliveryMode, Endpoint, Fabric, Packet, Tag};
use std::collections::VecDeque;
use std::sync::Arc;

/// Communication style of the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrwMode {
    /// One message per delegated walk (16 bytes).
    FineGrained,
    /// The paper's baseline: per-destination buffers, one exchange per
    /// round.
    Aggregated,
}

const TAG_WALK: Tag = 1;
const TAG_ROUND_END: Tag = 2;
const TAG_COUNT: Tag = 3;
const TAG_CONT: Tag = 4;

/// A delegated walk on the wire: (walker id, current vertex, remaining).
const WALK_BYTES: usize = 24;

/// Runs the baseline over `ranks` ranks; the result matches
/// [`seq_grw`](crate::grw::seq_grw) and the GMT kernel for the same seed —
/// a delegated walk carries no RNG state, its next step is
/// [`decision`]'s.
pub fn mpi_grw(
    csr: &Csr,
    ranks: usize,
    walkers: u64,
    length: u64,
    seed: u64,
    mode: GrwMode,
) -> (GrwResult, gmt_net::stats::NodeTraffic) {
    let fabric = Fabric::new(ranks, DeliveryMode::Instant);
    let result = mpi_grw_on(&fabric, csr, walkers, length, seed, mode);
    (result, fabric.stats().total())
}

/// Baseline over a caller-owned fabric.
pub fn mpi_grw_on(
    fabric: &Fabric,
    csr: &Csr,
    walkers: u64,
    length: u64,
    seed: u64,
    mode: GrwMode,
) -> GrwResult {
    let csr = Arc::new(csr.clone());
    let results =
        run_ranks_on(fabric, move |r, ep, _b| rank_main(r, ep, &csr, walkers, length, seed, mode));
    let mut checksum = 0u64;
    let mut traversed = 0u64;
    for (c, t) in results {
        checksum = checksum.wrapping_add(c);
        traversed += t;
    }
    GrwResult { walkers, steps_per_walker: length, traversed_edges: traversed, checksum }
}

#[allow(clippy::too_many_arguments)]
fn rank_main(
    r: usize,
    ep: Endpoint,
    csr: &Csr,
    walkers: u64,
    length: u64,
    seed: u64,
    mode: GrwMode,
) -> (u64, u64) {
    let ranks = ep.nodes();
    let n = csr.vertices();
    // (walker id, vertex, remaining steps)
    let mut active: Vec<(u64, u64, u64)> =
        (0..walkers).filter(|w| owner(n, ranks, w % n) == r).map(|w| (w, w % n, length)).collect();
    let mut checksum = 0u64;
    let mut traversed = 0u64;
    let mut agg: Vec<Vec<u8>> = vec![Vec::new(); ranks];
    // Next-round traffic that arrived while this rank still waited for
    // CONT (a peer whose CONT arrived first can race ahead), and walk
    // counts that reached rank 0 while it was still absorbing the round.
    let mut stash: VecDeque<Packet> = VecDeque::new();
    let mut early_counts: Vec<u64> = Vec::new();
    loop {
        // Advance every local walk until it finishes or leaves.
        while let Some((w, mut v, mut remaining)) = active.pop() {
            loop {
                if remaining == 0 {
                    checksum = checksum.wrapping_add(v);
                    break;
                }
                let d = csr.degree(v);
                if d == 0 {
                    checksum = checksum.wrapping_add(v);
                    break;
                }
                let step = length - remaining;
                v = csr.neighbors(v)[decision(seed, w, step, d) as usize];
                traversed += 1;
                remaining -= 1;
                let o = owner(n, ranks, v);
                if o != r {
                    // Delegate.
                    let mut msg = [0u8; WALK_BYTES];
                    msg[..8].copy_from_slice(&w.to_le_bytes());
                    msg[8..16].copy_from_slice(&v.to_le_bytes());
                    msg[16..].copy_from_slice(&remaining.to_le_bytes());
                    match mode {
                        GrwMode::FineGrained => ep.send(o, TAG_WALK, msg.to_vec()).unwrap(),
                        GrwMode::Aggregated => agg[o].extend_from_slice(&msg),
                    }
                    break;
                }
            }
        }
        if mode == GrwMode::Aggregated {
            for (o, buf) in agg.iter_mut().enumerate() {
                if !buf.is_empty() {
                    ep.send(o, TAG_WALK, std::mem::take(buf)).unwrap();
                }
            }
        }
        for o in 0..ranks {
            if o != r {
                ep.send(o, TAG_ROUND_END, Vec::new()).unwrap();
            }
        }
        let mut markers = 0;
        while markers + 1 < ranks {
            let pkt = match stash.pop_front() {
                Some(p) => p,
                None => ep.recv().expect("fabric alive"),
            };
            match pkt.tag {
                TAG_WALK => {
                    for chunk in pkt.payload.chunks_exact(WALK_BYTES) {
                        let w = u64::from_le_bytes(chunk[..8].try_into().unwrap());
                        let v = u64::from_le_bytes(chunk[8..16].try_into().unwrap());
                        let rem = u64::from_le_bytes(chunk[16..].try_into().unwrap());
                        active.push((w, v, rem));
                    }
                }
                TAG_ROUND_END => markers += 1,
                // A peer that finished its round first already sent its
                // active-walk count to rank 0.
                TAG_COUNT if r == 0 => early_counts
                    .push(u64::from_le_bytes(pkt.payload.as_slice().try_into().unwrap())),
                other => unreachable!("unexpected tag {other}"),
            }
        }
        // Global termination: continue while any rank has active walks.
        let pending = active.len() as u64;
        let continue_rounds = if r == 0 {
            let mut total = pending;
            let mut got = early_counts.len();
            total += early_counts.drain(..).sum::<u64>();
            while got + 1 < ranks {
                let pkt = ep.recv().unwrap();
                assert_eq!(pkt.tag, TAG_COUNT);
                total += u64::from_le_bytes(pkt.payload.as_slice().try_into().unwrap());
                got += 1;
            }
            let cont = total > 0;
            for o in 1..ranks {
                ep.send(o, TAG_CONT, vec![cont as u8]).unwrap();
            }
            cont
        } else {
            ep.send(0, TAG_COUNT, pending.to_le_bytes().to_vec()).unwrap();
            loop {
                let pkt = ep.recv().unwrap();
                match pkt.tag {
                    TAG_CONT => break pkt.payload[0] != 0,
                    // Next-round traffic from a peer that raced ahead;
                    // replayed at the top of the next absorb loop.
                    TAG_WALK | TAG_ROUND_END => stash.push_back(pkt),
                    other => unreachable!("unexpected tag {other} while waiting for CONT"),
                }
            }
        };
        if !continue_rounds {
            break;
        }
    }
    (checksum, traversed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grw::{gmt_grw, seq_grw};
    use gmt_core::{Cluster, Config};
    use gmt_graph::{uniform_random, DistGraph, GraphSpec};

    /// One decision stream, one reference: both MPI modes, the GMT kernel
    /// on a two-node cluster and the sequential walk agree on every count.
    #[test]
    fn mpi_gmt_and_sequential_walks_agree() {
        let csr = uniform_random(GraphSpec { vertices: 80, avg_degree: 4, seed: 41 });
        let expected = seq_grw(&csr, 40, 6, 7);
        assert!(expected.traversed_edges > 0);
        for (ranks, mode) in [(3, GrwMode::FineGrained), (4, GrwMode::Aggregated)] {
            let (got, _) = mpi_grw(&csr, ranks, 40, 6, 7, mode);
            assert_eq!(got, expected, "{mode:?} on {ranks} ranks");
        }
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let got = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_grw(ctx, &g, 40, 6, 7);
            g.free(ctx);
            r
        });
        cluster.shutdown();
        assert_eq!(got, expected, "gmt_grw on 2 nodes");
    }

    #[test]
    fn single_rank_walks_locally() {
        let csr = uniform_random(GraphSpec { vertices: 50, avg_degree: 4, seed: 43 });
        let expected = seq_grw(&csr, 25, 10, 9);
        let (got, traffic) = mpi_grw(&csr, 1, 25, 10, 9, GrwMode::Aggregated);
        assert_eq!(got, expected);
        assert_eq!(traffic.sent_msgs, 0);
    }

    #[test]
    fn aggregated_mode_reduces_messages() {
        let csr = uniform_random(GraphSpec { vertices: 300, avg_degree: 6, seed: 44 });
        let (a, fine) = mpi_grw(&csr, 4, 150, 12, 3, GrwMode::FineGrained);
        let (b, agg) = mpi_grw(&csr, 4, 150, 12, 3, GrwMode::Aggregated);
        assert_eq!(a, b);
        assert!(
            fine.sent_msgs > agg.sent_msgs,
            "fine {} vs aggregated {}",
            fine.sent_msgs,
            agg.sent_msgs
        );
    }
}
