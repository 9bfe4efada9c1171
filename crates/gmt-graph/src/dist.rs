//! Graphs in GMT global memory.
//!
//! The paper's BFS "performs single-word memory accesses on the global
//! graph structure" (§V-B): the CSR arrays live in partitioned global
//! arrays and tasks fetch offsets/targets through get operations. The
//! handle is `Copy`, so parFor bodies capture it by value — like passing
//! `gmt_array` handles in the C API.

use crate::csr::Csr;
use gmt_core::{Distribution, GmtArray, TaskCtx};

/// Reinterprets a `u64` slice as little-endian bytes (zero-copy).
fn as_bytes(words: &[u64]) -> &[u8] {
    #[cfg(not(target_endian = "little"))]
    compile_error!("DistGraph bulk loads assume a little-endian host");
    // Safety: u64 has no padding and any byte pattern is valid u8.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

/// A CSR graph distributed over GMT global arrays.
#[derive(Debug, Clone, Copy)]
pub struct DistGraph {
    vertices: u64,
    edges: u64,
    /// `vertices + 1` u64 offsets, block-distributed.
    offsets: GmtArray,
    /// `edges` u64 targets, block-distributed.
    targets: GmtArray,
}

impl DistGraph {
    /// Uploads `csr` into partitioned global arrays.
    ///
    /// The upload itself uses bulk blocking puts (the paper loads graphs
    /// before timing starts; kernels then do the fine-grained accesses).
    pub fn from_csr(ctx: &TaskCtx<'_>, csr: &Csr) -> Self {
        let n = csr.vertices();
        let m = csr.edges();
        let offsets = ctx.alloc((n + 1) * 8, Distribution::Partition);
        // Zero-length allocations are legal but useless; keep ≥ 8 bytes.
        let targets = ctx.alloc(m.max(1) * 8, Distribution::Partition);
        ctx.put(&offsets, 0, as_bytes(csr.offsets())).unwrap();
        if m > 0 {
            ctx.put(&targets, 0, as_bytes(csr.targets())).unwrap();
        }
        DistGraph { vertices: n, edges: m, offsets, targets }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u64 {
        self.vertices
    }

    /// Number of directed edges.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Fetches `[offsets[v], offsets[v+1])` with a single 16-byte get.
    pub fn edge_range(&self, ctx: &TaskCtx<'_>, v: u64) -> (u64, u64) {
        debug_assert!(v < self.vertices);
        let mut buf = [0u8; 16];
        ctx.get(&self.offsets, v * 8, &mut buf).unwrap();
        let lo = u64::from_le_bytes(buf[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(buf[8..].try_into().unwrap());
        (lo, hi)
    }

    /// Out-degree of `v`: one 16-byte get, i.e. one *blocking* round trip
    /// when `v`'s offsets live on another node. Fine for a lone lookup;
    /// in a loop it serialises the loop on the network — fetch a slice of
    /// vertices with [`DistGraph::adjacency_into`] instead.
    pub fn degree(&self, ctx: &TaskCtx<'_>, v: u64) -> u64 {
        let (lo, hi) = self.edge_range(ctx, v);
        hi - lo
    }

    /// Reads the out-neighbors of `v` into `buf`.
    pub fn neighbors_into(&self, ctx: &TaskCtx<'_>, v: u64, buf: &mut Vec<u64>) {
        let (lo, hi) = self.edge_range(ctx, v);
        ctx.gather_ranges(&self.targets, &[(lo, hi - lo)], buf).unwrap();
    }

    /// Reads the adjacency of every vertex in `vertices` in two waves —
    /// all edge ranges at once, then all neighbor lists at once — instead
    /// of two blocking round trips per vertex. `ranges[k]` becomes the
    /// `(first edge, out-degree)` of `vertices[k]`, and `neighbors` the
    /// neighbor lists back to back in the same order.
    pub fn adjacency_into(
        &self,
        ctx: &TaskCtx<'_>,
        vertices: &[u64],
        ranges: &mut Vec<(u64, u64)>,
        neighbors: &mut Vec<u64>,
    ) {
        debug_assert!(vertices.iter().all(|&v| v < self.vertices));
        // `ranges` first names each vertex's two offsets, which land in
        // `neighbors`; then each becomes the edge range they bound.
        ranges.clear();
        ranges.extend(vertices.iter().map(|&v| (v, 2)));
        ctx.gather_ranges(&self.offsets, ranges, neighbors).unwrap();
        for (range, b) in ranges.iter_mut().zip(neighbors.chunks_exact(2)) {
            *range = (b[0], b[1] - b[0]);
        }
        ctx.gather_ranges(&self.targets, ranges, neighbors).unwrap();
    }

    /// Out-neighbors of `v` as a fresh vector.
    pub fn neighbors(&self, ctx: &TaskCtx<'_>, v: u64) -> Vec<u64> {
        let mut buf = Vec::new();
        self.neighbors_into(ctx, v, &mut buf);
        buf
    }

    /// Reads the single `idx`-th neighbor of `v` (one word), given `v`'s
    /// edge range — the random-walk access pattern (§V-C).
    pub fn neighbor_at(&self, ctx: &TaskCtx<'_>, lo: u64, idx: u64) -> u64 {
        ctx.get_value::<u64>(&self.targets, lo + idx).unwrap()
    }

    /// Frees the global arrays.
    pub fn free(self, ctx: &TaskCtx<'_>) {
        ctx.free(self.offsets);
        ctx.free(self.targets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{uniform_random, GraphSpec};
    use gmt_core::{Cluster, Config};

    #[test]
    fn roundtrips_through_global_memory() {
        let csr = uniform_random(GraphSpec { vertices: 64, avg_degree: 4, seed: 5 });
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let csr2 = csr.clone();
        cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr2);
            assert_eq!(g.vertices(), 64);
            assert_eq!(g.edges(), 256);
            for v in [0u64, 1, 31, 63] {
                assert_eq!(g.degree(ctx, v), csr2.degree(v));
                assert_eq!(g.neighbors(ctx, v), csr2.neighbors(v));
            }
            // The two-wave batch agrees with the per-vertex reads, in order.
            let batch = [63u64, 0, 31, 31];
            let (mut ranges, mut nbrs) = (Vec::new(), Vec::new());
            g.adjacency_into(ctx, &batch, &mut ranges, &mut nbrs);
            let degrees: Vec<u64> = ranges.iter().map(|&(_, d)| d).collect();
            assert_eq!(degrees, batch.map(|v| csr2.degree(v)));
            let expected: Vec<u64> =
                batch.iter().flat_map(|&v| csr2.neighbors(v).iter().copied()).collect();
            assert_eq!(nbrs, expected);
            // Single-neighbor access agrees with bulk access.
            let (lo, _) = g.edge_range(ctx, 7);
            assert_eq!(g.neighbor_at(ctx, lo, 2), csr2.neighbors(7)[2]);
            g.free(ctx);
        });
        cluster.shutdown();
    }

    #[test]
    fn handles_vertices_with_no_neighbors() {
        let csr = Csr::from_edges(4, &[(0, 1)]);
        let cluster = Cluster::start(1, Config::small()).unwrap();
        cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            assert_eq!(g.degree(ctx, 3), 0);
            assert!(g.neighbors(ctx, 3).is_empty());
            assert_eq!(g.neighbors(ctx, 0), vec![1]);
            let (mut ranges, mut nbrs) = (Vec::new(), vec![9]);
            g.adjacency_into(ctx, &[3, 0, 2], &mut ranges, &mut nbrs);
            assert_eq!((&ranges, &nbrs), (&vec![(1, 0), (0, 1), (1, 0)], &vec![1]));
            g.adjacency_into(ctx, &[], &mut ranges, &mut nbrs);
            assert!(ranges.is_empty() && nbrs.is_empty());
            g.free(ctx);
        });
        cluster.shutdown();
    }

    #[test]
    fn parfor_tasks_share_the_graph_handle() {
        let csr = uniform_random(GraphSpec { vertices: 128, avg_degree: 3, seed: 11 });
        let expected: u64 = (0..128).map(|v| csr.neighbors(v).iter().sum::<u64>()).sum();
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let total = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let acc = ctx.alloc(8, gmt_core::Distribution::Local);
            ctx.parfor(gmt_core::SpawnPolicy::Partition, 128, 8, move |ctx, v| {
                let sum: u64 = g.neighbors(ctx, v).iter().sum();
                ctx.atomic_add(&acc, 0, sum as i64).unwrap();
            });
            let v = ctx.atomic_add(&acc, 0, 0).unwrap() as u64;
            ctx.free(acc);
            g.free(ctx);
            v
        });
        assert_eq!(total, expected);
        cluster.shutdown();
    }
}
