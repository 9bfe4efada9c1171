//! Rank-per-thread harness for the MPI-style baselines.
//!
//! The paper's comparison codes are plain MPI programs: one rank per
//! (core of a) node, explicit messages, owner-compute data placement.
//! Here each rank is an OS thread with a `gmt-net` [`Endpoint`] — the
//! sim fabric's transport, the same send path the GMT communication
//! servers use, so GMT and baselines pay identical per-message costs. A
//! rank's endpoint closes when its thread returns, and sends to it fail
//! from then on (like `MPI_Finalize`), so a rank returns only once no
//! other rank will send to it.

use gmt_net::{DeliveryMode, Endpoint, Fabric};
use std::sync::{Arc, Barrier};

/// Runs `ranks` copies of `rank_main(rank, endpoint, barrier)` on their
/// own threads over a shared fabric; returns each rank's result, indexed
/// by rank.
///
/// The [`Barrier`] has `ranks` participants and can be reused for
/// bulk-synchronous phases (like `MPI_Barrier`).
pub fn run_ranks<T, F>(ranks: usize, mode: DeliveryMode, rank_main: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize, Endpoint, &Barrier) -> T + Send + Sync + 'static,
{
    let fabric = Fabric::new(ranks, mode);
    run_ranks_on(&fabric, rank_main)
}

/// Like [`run_ranks`] but over a caller-owned fabric, so the caller can
/// inspect traffic statistics afterwards.
pub fn run_ranks_on<T, F>(fabric: &Fabric, rank_main: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize, Endpoint, &Barrier) -> T + Send + Sync + 'static,
{
    let ranks = fabric.nodes();
    let barrier = Arc::new(Barrier::new(ranks));
    let rank_main = Arc::new(rank_main);
    let handles: Vec<_> = (0..ranks)
        .map(|r| {
            let ep = fabric.endpoint(r);
            let barrier = Arc::clone(&barrier);
            let rank_main = Arc::clone(&rank_main);
            std::thread::Builder::new()
                .name(format!("mpi-rank-{r}"))
                .spawn(move || rank_main(r, ep, &barrier))
                .expect("spawn rank")
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
}

/// Block-partitions `n` items over `ranks`, returning rank `r`'s range.
pub fn block_range(n: u64, ranks: usize, r: usize) -> std::ops::Range<u64> {
    let block = n.div_ceil(ranks as u64);
    let lo = (r as u64 * block).min(n);
    let hi = ((r as u64 + 1) * block).min(n);
    lo..hi
}

/// Owner rank of item `i` under [`block_range`] partitioning.
pub fn owner(n: u64, ranks: usize, i: u64) -> usize {
    let block = n.div_ceil(ranks as u64);
    (i / block) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_exchange_messages() {
        let results = run_ranks(3, DeliveryMode::Instant, |r, ep, barrier| {
            // Everyone sends its rank to rank 0.
            if r != 0 {
                ep.send(0, 0, vec![r as u8]).unwrap();
            }
            barrier.wait();
            if r == 0 {
                let mut sum = 0u32;
                for _ in 0..2 {
                    sum += ep.recv().unwrap().payload[0] as u32;
                }
                sum
            } else {
                0
            }
        });
        assert_eq!(results[0], 3);
    }

    #[test]
    fn block_partition_covers_everything() {
        for ranks in [1usize, 2, 3, 5] {
            for n in [0u64, 1, 7, 100] {
                let mut covered = 0;
                for r in 0..ranks {
                    let range = block_range(n, ranks, r);
                    for i in range.clone() {
                        assert_eq!(owner(n, ranks, i), r);
                    }
                    covered += range.end - range.start;
                }
                assert_eq!(covered, n);
            }
        }
    }
}
