//! Graph Random Walk on GMT (§V-C).
//!
//! W parallel tasks each start from a source vertex and take `length`
//! random-neighbor steps. Every step is two fine-grained global reads
//! (edge range, then one target word) at an unpredictable address — the
//! canonical irregular access pattern. The paper's GMT code is a single
//! `gmt_parFor` over walkers; so is this.

use gmt_core::{Distribution, SpawnPolicy, TaskCtx};
use gmt_graph::DistGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of a random-walk run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrwResult {
    pub walkers: u64,
    pub steps_per_walker: u64,
    /// Edges traversed (numerator of the paper's MTEPS for Figure 9).
    pub traversed_edges: u64,
    /// Sum of final walker positions — a deterministic checksum given the
    /// seed, comparable against [`seq_grw`].
    pub checksum: u64,
}

/// Mixes the walker id into the run seed (splitmix-style).
fn walker_seed(seed: u64, w: u64) -> u64 {
    let mut z = seed ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which out-edge walker `w` takes at `step` from a vertex of `degree`
/// out-edges. A pure function of the run seed — no RNG state travels with
/// a walk — so a walk takes the same path whichever task, node or MPI
/// rank advances it, and every implementation (this kernel, the MPI
/// baseline, [`seq_grw`]) produces the same checksum.
pub fn decision(seed: u64, w: u64, step: u64, degree: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(walker_seed(seed, w) ^ step.wrapping_mul(0xD129_42F7));
    rng.gen_range(0..degree)
}

/// Sequential reference implementation.
pub fn seq_grw(csr: &gmt_graph::Csr, walkers: u64, length: u64, seed: u64) -> GrwResult {
    let mut checksum = 0u64;
    let mut traversed = 0u64;
    for w in 0..walkers {
        let mut v = w % csr.vertices();
        for step in 0..length {
            let nbrs = csr.neighbors(v);
            if nbrs.is_empty() {
                break;
            }
            v = nbrs[decision(seed, w, step, nbrs.len() as u64) as usize];
            traversed += 1;
        }
        checksum = checksum.wrapping_add(v);
    }
    GrwResult { walkers, steps_per_walker: length, traversed_edges: traversed, checksum }
}

/// Runs the GMT random walk: `walkers` tasks spread over the cluster,
/// each walking `length` steps from source vertex `w % V`.
pub fn gmt_grw(
    ctx: &TaskCtx<'_>,
    g: &DistGraph,
    walkers: u64,
    length: u64,
    seed: u64,
) -> GrwResult {
    // checksum at word 0, traversed-edge count at word 1.
    let acc = ctx.alloc(16, Distribution::Partition);
    let g = *g;
    ctx.parfor(SpawnPolicy::Partition, walkers, 2, move |ctx, w| {
        let mut v = w % g.vertices();
        let mut traversed = 0i64;
        for step in 0..length {
            let (lo, hi) = g.edge_range(ctx, v);
            if hi == lo {
                break;
            }
            v = g.neighbor_at(ctx, lo, decision(seed, w, step, hi - lo));
            traversed += 1;
        }
        // Nobody reads the old values: both adds leave together.
        ctx.atomic_add_nb(&acc, 0, v as i64);
        ctx.atomic_add_nb(&acc, 8, traversed);
        ctx.wait_commands().unwrap();
    });
    let checksum = ctx.atomic_add(&acc, 0, 0).unwrap() as u64;
    let traversed = ctx.atomic_add(&acc, 8, 0).unwrap() as u64;
    ctx.free(acc);
    GrwResult { walkers, steps_per_walker: length, traversed_edges: traversed, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_core::{Cluster, Config};
    use gmt_graph::{uniform_random, Csr, GraphSpec};

    #[test]
    fn gmt_walk_matches_sequential_reference() {
        let csr = uniform_random(GraphSpec { vertices: 100, avg_degree: 4, seed: 31 });
        let expected = seq_grw(&csr, 50, 8, 99);
        for nodes in [1usize, 2] {
            let cluster = Cluster::start(nodes, Config::small()).unwrap();
            let csr2 = csr.clone();
            let got = cluster.node(0).run(move |ctx| {
                let g = DistGraph::from_csr(ctx, &csr2);
                let r = gmt_grw(ctx, &g, 50, 8, 99);
                g.free(ctx);
                r
            });
            cluster.shutdown();
            assert_eq!(got, expected, "nodes={nodes}");
        }
    }

    #[test]
    fn every_step_traverses_an_edge_on_degreeful_graphs() {
        let csr = uniform_random(GraphSpec { vertices: 64, avg_degree: 4, seed: 32 });
        let r = seq_grw(&csr, 32, 10, 5);
        assert_eq!(r.traversed_edges, 32 * 10);
    }

    #[test]
    fn walkers_strand_on_sinks() {
        // Star pointing at vertex 2, which has no out-edges.
        let csr = Csr::from_edges(3, &[(0, 2), (1, 2)]);
        let r = seq_grw(&csr, 2, 5, 0);
        // Both walkers take exactly one step and strand at 2.
        assert_eq!(r.traversed_edges, 2);
        assert_eq!(r.checksum, 4);
    }

    #[test]
    fn different_seeds_give_different_walks() {
        let csr = uniform_random(GraphSpec { vertices: 200, avg_degree: 8, seed: 33 });
        let a = seq_grw(&csr, 40, 16, 1);
        let b = seq_grw(&csr, 40, 16, 2);
        assert_ne!(a.checksum, b.checksum);
    }
}
