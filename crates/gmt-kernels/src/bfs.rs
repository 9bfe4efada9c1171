//! Breadth First Search on GMT (§V-B).
//!
//! Queue-based level-synchronous BFS, the structure shared by the paper's
//! GMT and Cray XMT codes: a parallel loop over the current vertex queue
//! claims unvisited neighbors with `gmt_atomicCAS` and appends them to the
//! next queue with `gmt_atomicAdd` on its size counter. The whole kernel
//! is a few dozen lines — the paper contrasts this with the ~700-line
//! hand-optimized UPC version.
//!
//! Latency is hidden the way the paper hides it: each task takes its
//! claimed chunk of the queue and issues every step for the whole chunk
//! as one wave of non-blocking commands behind one wait — queue slice,
//! edge ranges, neighbor lists, CAS over every neighbor, one fetch-add of
//! the number won, one put of the winners. That is six dependent round
//! trips per chunk, however many edges the chunk has, and the waves are
//! what the aggregation layer packs into full buffers. A chunk's working
//! vectors come from a pool of its worker thread, so a chunk does not
//! call the allocator for them.

use gmt_core::{Distribution, SpawnPolicy, TaskCtx};
use gmt_graph::DistGraph;
use std::cell::RefCell;

/// Result of a distributed BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Level per vertex; `-1` = unreachable.
    pub levels: Vec<i64>,
    /// Number of vertices reached (including the source).
    pub visited: u64,
    /// Edges examined while traversing (sum of out-degrees of visited
    /// vertices) — the numerator of the paper's MTEPS metric.
    pub traversed_edges: u64,
}

/// Chunk size for the frontier parFor (queue entries per task).
const CHUNK: u32 = 16;

/// The working vectors of one frontier chunk, taken from a pool of the
/// worker thread and given back at the chunk's end: a chunk waits in the
/// middle while the worker runs others, so the pool grows to the chunks
/// one worker has in flight, and then nothing allocates.
#[derive(Default)]
struct Scratch {
    frontier: Vec<u64>,
    ranges: Vec<(u64, u64)>,
    nbrs: Vec<u64>,
    won: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

impl Scratch {
    /// Neighbors past which a chunk's vectors are freed rather than
    /// pooled (a hub's adjacency is not kept around).
    const POOLED_NEIGHBORS: usize = 1 << 12;

    fn take() -> Self {
        SCRATCH.with(|pool| pool.borrow_mut().pop()).unwrap_or_default()
    }

    fn give_back(self) {
        if self.nbrs.capacity() <= Self::POOLED_NEIGHBORS {
            SCRATCH.with(|pool| pool.borrow_mut().push(self));
        }
    }
}

/// Runs BFS from `source` over the global graph, returning per-vertex
/// levels. Must be called from a GMT task context.
pub fn gmt_bfs(ctx: &TaskCtx<'_>, g: &DistGraph, source: u64) -> BfsResult {
    let n = g.vertices();
    assert!(source < n, "source {source} out of range");
    // Global state: levels (init -1), two vertex queues, and two counter
    // words — the next queue's size and the edges examined so far.
    let levels = ctx.alloc(n * 8, Distribution::Partition);
    let qa = ctx.alloc(n * 8, Distribution::Partition);
    let qb = ctx.alloc(n * 8, Distribution::Partition);
    let counters = ctx.alloc(16, Distribution::Partition);
    ctx.parfor_range(SpawnPolicy::Partition, n, 256, move |ctx, chunk| {
        let unreached = (-1i64).to_le_bytes().repeat((chunk.end - chunk.start) as usize);
        ctx.put(&levels, chunk.start * 8, &unreached).unwrap();
    });

    ctx.put_value::<i64>(&levels, source, 0).unwrap();
    ctx.put_value::<u64>(&qa, 0, source).unwrap();
    let mut cur = qa;
    let mut next = qb;
    let mut cur_size = 1u64;
    let mut visited = 0u64;
    let mut level = 0i64;
    while cur_size > 0 {
        // Every queue entry is a vertex claimed exactly once.
        visited += cur_size;
        ctx.put_value::<u64>(&counters, 0, 0).unwrap();
        let g = *g;
        ctx.parfor_range(SpawnPolicy::Partition, cur_size, CHUNK, move |ctx, chunk| {
            let mut s = Scratch::take();
            let Scratch { frontier, ranges, nbrs, won } = &mut s;
            'chunk: {
                ctx.gather_ranges(&cur, &[(chunk.start, chunk.end - chunk.start)], frontier)
                    .unwrap();
                g.adjacency_into(ctx, frontier, ranges, nbrs);
                if nbrs.is_empty() {
                    break 'chunk;
                }
                // Rides along with the CAS wave and its wait.
                ctx.atomic_add_nb(&counters, 8, nbrs.len() as i64);
                // Claim unvisited neighbors; exactly one CAS wins each, also
                // when a target shows up twice in this very wave.
                let old = ctx.atomic_cas_wave(&levels, nbrs, -1, level + 1).unwrap();
                won.clear();
                for (t, old) in nbrs.iter().zip(old) {
                    if old == -1 {
                        won.extend_from_slice(&t.to_le_bytes());
                    }
                }
                if won.is_empty() {
                    break 'chunk;
                }
                // One reservation for all winners, then one contiguous put.
                let at = ctx.atomic_add(&counters, 0, (won.len() / 8) as i64).unwrap() as u64;
                ctx.put(&next, at * 8, won).unwrap();
            }
            s.give_back();
        });
        cur_size = ctx.get_value::<u64>(&counters, 0).unwrap();
        std::mem::swap(&mut cur, &mut next);
        level += 1;
    }
    let traversed_edges = ctx.get_value::<u64>(&counters, 1).unwrap();

    // Extract levels and free global state.
    let mut bytes = vec![0u8; (n * 8) as usize];
    ctx.get(&levels, 0, &mut bytes).unwrap();
    let levels_out: Vec<i64> =
        bytes.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().unwrap())).collect();
    ctx.free(levels);
    ctx.free(qa);
    ctx.free(qb);
    ctx.free(counters);
    BfsResult { levels: levels_out, visited, traversed_edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_core::{Cluster, Config};
    use gmt_graph::{uniform_random, Csr, GraphSpec};

    fn check_against_reference(csr: Csr, nodes: usize, source: u64) {
        let reference = csr.bfs_levels(source);
        let traversed: u64 = (0..csr.vertices())
            .filter(|&v| reference[v as usize] != u64::MAX)
            .map(|v| csr.degree(v))
            .sum();
        let cluster = Cluster::start(nodes, Config::small()).unwrap();
        let result = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_bfs(ctx, &g, source);
            g.free(ctx);
            r
        });
        cluster.shutdown();
        let expected: Vec<i64> =
            reference.iter().map(|&l| if l == u64::MAX { -1 } else { l as i64 }).collect();
        assert_eq!(result.levels, expected);
        assert_eq!(result.visited, expected.iter().filter(|&&l| l >= 0).count() as u64);
        assert_eq!(result.traversed_edges, traversed);
    }

    #[test]
    fn bfs_on_diamond_single_node() {
        check_against_reference(Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]), 1, 0);
    }

    #[test]
    fn bfs_on_chain_two_nodes() {
        let edges: Vec<(u64, u64)> = (0..19).map(|i| (i, i + 1)).collect();
        check_against_reference(Csr::from_edges(20, &edges), 2, 0);
    }

    #[test]
    fn bfs_with_unreachable_component() {
        // Two components: 0-1-2 and 3-4.
        let csr = Csr::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        check_against_reference(csr, 2, 0);
    }

    #[test]
    fn bfs_random_graph_matches_reference_across_nodes() {
        let csr = uniform_random(GraphSpec { vertices: 200, avg_degree: 4, seed: 77 });
        for nodes in [1usize, 3] {
            check_against_reference(csr.clone(), nodes, 0);
        }
    }

    /// The source fans out to `width` vertices, which is then the size of
    /// the second frontier; every third of them is a sink, the others
    /// point at a private vertex and at one vertex they all share.
    fn fan(width: u64) -> Csr {
        let shared = 2 * width + 1;
        let mut edges = Vec::new();
        for i in 1..=width {
            edges.push((0, i));
            if i % 3 != 0 {
                edges.push((i, width + i));
                edges.push((i, shared));
            }
        }
        Csr::from_edges(shared + 1, &edges)
    }

    #[test]
    fn bfs_is_exact_at_every_frontier_size_around_a_chunk() {
        let chunk = CHUNK as u64;
        for width in [1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5] {
            check_against_reference(fan(width), 2, 0);
        }
    }

    #[test]
    fn bfs_claims_a_target_once_when_one_wave_names_it_twice() {
        // A multigraph: the one chunk of the first level CASes vertex 1
        // twice. Both edges count as traversed, vertex 1 is queued once.
        check_against_reference(Csr::from_edges(3, &[(0, 1), (0, 1), (0, 2)]), 2, 0);
    }

    #[test]
    fn bfs_ignores_a_self_loop_on_the_source() {
        check_against_reference(Csr::from_edges(3, &[(2, 2), (2, 0), (0, 1)]), 2, 2);
    }

    /// Pins the shape of the kernel rather than its speed: a chunk of the
    /// frontier costs a handful of waits whatever its edge count, and
    /// nothing walks the vertices one blocking get at a time afterwards.
    /// Six waits per 16-vertex chunk of degree 8 is under 0.05 parks per
    /// edge; one blocking round trip per edge or per visited vertex (the
    /// shapes this kernel used to have) is 0.85 and more. The count does
    /// not depend on the host: parks happen or not, however long they take.
    #[test]
    fn bfs_parks_a_handful_of_times_per_chunk_not_once_per_edge() {
        let csr = uniform_random(GraphSpec { vertices: 1 << 10, avg_degree: 8, seed: 16 });
        let cluster = Cluster::start_sim(2, Config::small()).unwrap();
        let edges = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_bfs(ctx, &g, 0);
            g.free(ctx);
            r.traversed_edges
        });
        let parks: u64 = (0..2)
            .map(|n| cluster.node(n).metrics_snapshot().counter("worker.task_parks").unwrap())
            .sum();
        cluster.shutdown();
        assert!(edges > 7000, "the traversal should reach most of the graph, got {edges} edges");
        assert!(
            parks * 10 <= edges,
            "{parks} task parks for {edges} traversed edges: more than 0.1 per edge"
        );
    }

    #[test]
    fn bfs_counts_traversed_edges() {
        // Fully connected triangle: every vertex visited, all 6 edges.
        let csr = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let r = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_bfs(ctx, &g, 1);
            g.free(ctx);
            r
        });
        cluster.shutdown();
        assert_eq!(r.visited, 3);
        assert_eq!(r.traversed_edges, 6);
    }
}
