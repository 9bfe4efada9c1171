//! MPI-style BFS baseline.
//!
//! Owner-compute, level-synchronous BFS as a plain message-passing
//! program: the graph is 1D block-partitioned, each rank expands its part
//! of the frontier and notifies the owner of every cross-partition
//! neighbor. Two variants, matching the paper's comparison axes:
//!
//! * [`BaselineMode::FineGrained`] — one message per remote visit (8
//!   bytes). This is the naive MPI translation whose per-message overhead
//!   GMT's aggregation amortizes away.
//! * [`BaselineMode::Aggregated`] — per-destination visit buffers flushed
//!   once per level, standing in for the paper's hand-optimized
//!   UPC/MPI codes that "aggregate communication at the application code
//!   level" (§V-B).
//!
//! Level termination uses per-pair FIFO ordering: each rank sends an
//! end-of-level marker after its last visit, so receiving markers from
//! every peer implies all visits arrived. Frontier sizes are then
//! all-reduced through rank 0.

use crate::mpi_util::{block_range, owner, run_ranks_on};
use gmt_graph::Csr;
use gmt_net::{DeliveryMode, Endpoint, Fabric, Packet, Tag, Transport};
use std::collections::VecDeque;
use std::sync::Arc;

/// Communication style of the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// One message per remote neighbor visit.
    FineGrained,
    /// Application-level aggregation: one buffer per destination per level.
    Aggregated,
}

const TAG_VISIT: Tag = 1;
const TAG_LEVEL_END: Tag = 2;
const TAG_SIZE: Tag = 3;
const TAG_CONT: Tag = 4;
const TAG_RESULT: Tag = 5;

/// Runs the baseline BFS over `ranks` MPI-style ranks; returns per-vertex
/// levels (`-1` unreachable) plus the fabric message count, so callers
/// can compare traffic against GMT.
pub fn mpi_bfs(
    csr: &Csr,
    ranks: usize,
    source: u64,
    mode: BaselineMode,
) -> (Vec<i64>, gmt_net::stats::NodeTraffic) {
    let fabric = Fabric::new(ranks, DeliveryMode::Instant);
    let levels = mpi_bfs_on(&fabric, csr, source, mode);
    let traffic = fabric.stats().total();
    (levels, traffic)
}

/// Baseline BFS over a caller-owned fabric (for benchmarks that model
/// network time from the traffic log).
pub fn mpi_bfs_on(fabric: &Fabric, csr: &Csr, source: u64, mode: BaselineMode) -> Vec<i64> {
    let n = csr.vertices();
    assert!(source < n);
    let csr = Arc::new(csr.clone());
    let mut results =
        run_ranks_on(fabric, move |r, ep, _barrier| rank_main(r, ep, &csr, n, source, mode));
    results.swap_remove(0).expect("rank 0 gathers the result")
}

fn rank_main(
    r: usize,
    ep: Endpoint,
    csr: &Csr,
    n: u64,
    source: u64,
    mode: BaselineMode,
) -> Option<Vec<i64>> {
    let ranks = ep.nodes();
    let my_range = block_range(n, ranks, r);
    let base = my_range.start;
    let mut levels = vec![-1i64; (my_range.end - my_range.start) as usize];
    let mut frontier: Vec<u64> = Vec::new();
    if my_range.contains(&source) {
        levels[(source - base) as usize] = 0;
        frontier.push(source);
    }
    let mut level = 0i64;
    // Aggregation buffers (Aggregated mode only).
    let mut agg: Vec<Vec<u8>> = vec![Vec::new(); ranks];
    // Next-level traffic that arrived while this rank still waited for its
    // CONT: a peer that already received CONT may race ahead and send its
    // level-L+1 visits (and even its marker) before our CONT is consumed.
    let mut stash: VecDeque<Packet> = VecDeque::new();
    // Frontier sizes that reached rank 0 while it was still absorbing the
    // current level (a peer can finish its level first).
    let mut early_sizes: Vec<u64> = Vec::new();
    loop {
        let mut next: Vec<u64> = Vec::new();
        // Expand the local frontier.
        for &v in &frontier {
            for &t in csr.neighbors(v) {
                let o = owner(n, ranks, t);
                if o == r {
                    let slot = (t - base) as usize;
                    if levels[slot] == -1 {
                        levels[slot] = level + 1;
                        next.push(t);
                    }
                } else {
                    match mode {
                        BaselineMode::FineGrained => {
                            ep.send(o, TAG_VISIT, t.to_le_bytes().to_vec()).unwrap();
                        }
                        BaselineMode::Aggregated => {
                            agg[o].extend_from_slice(&t.to_le_bytes());
                        }
                    }
                }
            }
        }
        if mode == BaselineMode::Aggregated {
            for (o, buf) in agg.iter_mut().enumerate() {
                if !buf.is_empty() {
                    ep.send(o, TAG_VISIT, std::mem::take(buf)).unwrap();
                }
            }
        }
        // End-of-level markers; FIFO ordering makes them a flush.
        for o in 0..ranks {
            if o != r {
                ep.send(o, TAG_LEVEL_END, Vec::new()).unwrap();
            }
        }
        // Absorb visits until every peer's marker arrived. Stashed packets
        // (received early during the previous CONT wait) belong to exactly
        // this level, so drain them first.
        let mut markers = 0;
        while markers + 1 < ranks {
            let pkt = match stash.pop_front() {
                Some(p) => p,
                None => ep.recv().expect("fabric alive"),
            };
            match pkt.tag {
                TAG_VISIT => {
                    for chunk in pkt.payload.chunks_exact(8) {
                        let t = u64::from_le_bytes(chunk.try_into().unwrap());
                        let slot = (t - base) as usize;
                        if levels[slot] == -1 {
                            levels[slot] = level + 1;
                            next.push(t);
                        }
                    }
                }
                TAG_LEVEL_END => markers += 1,
                // A peer that saw all its markers already may send its
                // frontier size to rank 0 while rank 0 is still here.
                TAG_SIZE if r == 0 => {
                    early_sizes.push(u64::from_le_bytes(pkt.payload.as_slice().try_into().unwrap()))
                }
                other => unreachable!("unexpected tag {other} during level"),
            }
        }
        // All-reduce the global next-frontier size through rank 0.
        let continue_search = if r == 0 {
            let mut total = next.len() as u64;
            let mut got = early_sizes.len();
            total += early_sizes.drain(..).sum::<u64>();
            while got + 1 < ranks {
                let pkt = ep.recv().unwrap();
                assert_eq!(pkt.tag, TAG_SIZE);
                total += u64::from_le_bytes(pkt.payload.as_slice().try_into().unwrap());
                got += 1;
            }
            let cont = total > 0;
            for o in 1..ranks {
                ep.send(o, TAG_CONT, vec![cont as u8]).unwrap();
            }
            cont
        } else {
            ep.send(0, TAG_SIZE, (next.len() as u64).to_le_bytes().to_vec()).unwrap();
            loop {
                let pkt = ep.recv().unwrap();
                match pkt.tag {
                    TAG_CONT => break pkt.payload[0] != 0,
                    // Next-level traffic from a peer whose CONT arrived
                    // first; replayed at the top of the next absorb loop.
                    TAG_VISIT | TAG_LEVEL_END => stash.push_back(pkt),
                    other => unreachable!("unexpected tag {other} while waiting for CONT"),
                }
            }
        };
        if !continue_search {
            break;
        }
        frontier = next;
        level += 1;
    }
    // Gather levels at rank 0.
    if r == 0 {
        let mut all = vec![-1i64; n as usize];
        for (i, &l) in levels.iter().enumerate() {
            all[base as usize + i] = l;
        }
        for _ in 1..ranks {
            let pkt = ep.recv().unwrap();
            assert_eq!(pkt.tag, TAG_RESULT);
            let src_base = block_range(n, ranks, pkt.src).start as usize;
            for (i, chunk) in pkt.payload.chunks_exact(8).enumerate() {
                all[src_base + i] = i64::from_le_bytes(chunk.try_into().unwrap());
            }
        }
        Some(all)
    } else {
        let bytes: Vec<u8> = levels.iter().flat_map(|l| l.to_le_bytes()).collect();
        ep.send(0, TAG_RESULT, bytes).unwrap();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_graph::{uniform_random, GraphSpec};

    fn reference(csr: &Csr, source: u64) -> Vec<i64> {
        csr.bfs_levels(source).iter().map(|&l| if l == u64::MAX { -1 } else { l as i64 }).collect()
    }

    #[test]
    fn fine_grained_matches_reference() {
        let csr = uniform_random(GraphSpec { vertices: 150, avg_degree: 3, seed: 21 });
        let (levels, _) = mpi_bfs(&csr, 3, 0, BaselineMode::FineGrained);
        assert_eq!(levels, reference(&csr, 0));
    }

    #[test]
    fn aggregated_matches_reference() {
        let csr = uniform_random(GraphSpec { vertices: 150, avg_degree: 3, seed: 22 });
        let (levels, _) = mpi_bfs(&csr, 4, 5, BaselineMode::Aggregated);
        assert_eq!(levels, reference(&csr, 5));
    }

    #[test]
    fn single_rank_needs_no_messages() {
        let csr = uniform_random(GraphSpec { vertices: 50, avg_degree: 3, seed: 23 });
        let (levels, traffic) = mpi_bfs(&csr, 1, 0, BaselineMode::FineGrained);
        assert_eq!(levels, reference(&csr, 0));
        assert_eq!(traffic.sent_msgs, 0);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        let csr = Csr::from_edges(6, &[(0, 1), (1, 2)]);
        let (levels, _) = mpi_bfs(&csr, 2, 0, BaselineMode::Aggregated);
        assert_eq!(levels, vec![0, 1, 2, -1, -1, -1]);
    }

    #[test]
    fn aggregation_sends_far_fewer_messages() {
        let csr = uniform_random(GraphSpec { vertices: 400, avg_degree: 8, seed: 24 });
        let (_, fine) = mpi_bfs(&csr, 4, 0, BaselineMode::FineGrained);
        let (_, agg) = mpi_bfs(&csr, 4, 0, BaselineMode::Aggregated);
        assert!(
            fine.sent_msgs > agg.sent_msgs * 5,
            "fine {} vs aggregated {}",
            fine.sent_msgs,
            agg.sent_msgs
        );
    }
}
