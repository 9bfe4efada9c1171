//! Connected components by label propagation — an extension kernel
//! demonstrating the paper's claim that GMT "targets a wider class of
//! irregular data structures and algorithms" than graph-only frameworks
//! (§II, related-work discussion of Pregel/Giraph/GraphLab).
//!
//! Each vertex starts with its own id as label; rounds of parallel
//! min-label propagation over every edge (both directions, so the
//! components are those of the undirected closure) run until a round
//! changes nothing. All updates are `gmt_atomicCAS` loops on the global
//! label array — fine-grained irregular synchronization, GMT's home turf.

use gmt_core::collectives::GlobalCounter;
use gmt_core::{Distribution, GmtArray, SpawnPolicy, TaskCtx};
use gmt_graph::{Csr, DistGraph};

/// Atomically lowers `labels[v]` to `new` if `new` is smaller; returns
/// `true` if it changed anything.
fn cas_min(ctx: &TaskCtx<'_>, labels: &GmtArray, v: u64, new: i64) -> bool {
    loop {
        let cur = ctx.atomic_add(labels, v * 8, 0).unwrap();
        if new >= cur {
            return false;
        }
        if ctx.atomic_cas(labels, v * 8, cur, new).unwrap() == cur {
            return true;
        }
        // CAS lost to a concurrent update; re-read and retry.
    }
}

/// Runs distributed connected components; returns the per-vertex
/// component label (the minimum vertex id in each undirected component).
pub fn gmt_cc(ctx: &TaskCtx<'_>, g: &DistGraph) -> Vec<u64> {
    let n = g.vertices();
    let labels = ctx.alloc(n * 8, Distribution::Partition);
    ctx.parfor_range(SpawnPolicy::Partition, n, 64, move |ctx, chunk| {
        let own: Vec<u8> = chunk.clone().flat_map(|v| (v as i64).to_le_bytes()).collect();
        ctx.put(&labels, chunk.start * 8, &own).unwrap();
    });

    let changed = GlobalCounter::new(ctx, Distribution::Partition);
    let g = *g;
    loop {
        changed.set(ctx, 0).expect("cc: changed counter owner is dead");
        ctx.parfor(SpawnPolicy::Partition, n, 16, move |ctx, u| {
            let lu = ctx.atomic_add(&labels, u * 8, 0).unwrap();
            let mut best = lu;
            let mut nbrs = Vec::new();
            g.neighbors_into(ctx, u, &mut nbrs);
            for &t in &nbrs {
                let lt = ctx.atomic_add(&labels, t * 8, 0).unwrap();
                best = best.min(lt);
            }
            let mut any = false;
            if best < lu {
                any |= cas_min(ctx, &labels, u, best);
            }
            for &t in &nbrs {
                any |= cas_min(ctx, &labels, t, best);
            }
            if any {
                changed.add(ctx, 1).expect("cc: changed counter owner is dead");
            }
        });
        if changed.get(ctx).expect("cc: changed counter owner is dead") == 0 {
            break;
        }
    }

    let mut raw = vec![0u8; (n * 8) as usize];
    ctx.get(&labels, 0, &mut raw).unwrap();
    let out =
        raw.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().unwrap()) as u64).collect();
    changed.free(ctx);
    ctx.free(labels);
    out
}

/// Sequential reference: union-find over the undirected edge closure.
pub fn seq_cc(csr: &Csr) -> Vec<u64> {
    let n = csr.vertices() as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for u in 0..n as u64 {
        for &t in csr.neighbors(u) {
            let (a, b) = (find(&mut parent, u as usize), find(&mut parent, t as usize));
            if a != b {
                let (lo, hi) = (a.min(b), a.max(b));
                parent[hi] = lo;
            }
        }
    }
    // Labels = minimum vertex id in the component.
    let mut min_label = vec![u64::MAX; n];
    for v in 0..n {
        let root = find(&mut parent, v);
        min_label[root] = min_label[root].min(v as u64);
    }
    (0..n).map(|v| min_label[find(&mut parent, v)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_core::{Cluster, Config};
    use gmt_graph::{uniform_random, GraphSpec};

    fn check(csr: Csr, nodes: usize) {
        let expected = seq_cc(&csr);
        let cluster = Cluster::start(nodes, Config::small()).unwrap();
        let got = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_cc(ctx, &g);
            g.free(ctx);
            r
        });
        cluster.shutdown();
        assert_eq!(got, expected);
    }

    #[test]
    fn two_components() {
        // 0-1-2 and 3-4 (directed edges; undirected closure matters).
        check(Csr::from_edges(5, &[(1, 0), (1, 2), (4, 3)]), 2);
    }

    #[test]
    fn single_chain_collapses_to_zero() {
        let edges: Vec<(u64, u64)> = (0..15).map(|i| (i, i + 1)).collect();
        let csr = Csr::from_edges(16, &edges);
        let expected = seq_cc(&csr);
        assert!(expected.iter().all(|&l| l == 0));
        check(csr, 2);
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        check(Csr::from_edges(6, &[(0, 1)]), 1);
    }

    #[test]
    fn random_graph_matches_union_find() {
        // Sparse enough to leave several components.
        let csr = uniform_random(GraphSpec { vertices: 120, avg_degree: 1, seed: 61 });
        check(csr, 3);
    }
}
