//! Global-array handles and data placement.
//!
//! A [`GmtArray`] is an opaque handle to memory allocated in the cluster's
//! global address space (the paper's `gmt_array`). The handle carries
//! everything any node needs to locate a byte: the allocation id, the total
//! size and the distribution policy. Programmers never see physical
//! locations — they address the array by byte offset and the runtime
//! resolves the owning node (§III-C).

use crate::NodeId;

/// Data-distribution policy for a global allocation (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Block-distributed uniformly across all nodes
    /// (`GMT_ALLOC_PARTITION`).
    Partition,
    /// Entirely on the allocating node (`GMT_ALLOC_LOCAL`).
    Local,
    /// Block-distributed across all nodes *except* the allocating node
    /// (`GMT_ALLOC_REMOTE`); degenerates to `Local` on a 1-node cluster.
    Remote,
}

impl Distribution {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Distribution::Partition => 0,
            Distribution::Local => 1,
            Distribution::Remote => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Distribution::Partition),
            1 => Some(Distribution::Local),
            2 => Some(Distribution::Remote),
            _ => None,
        }
    }
}

/// A contiguous piece of a global array owned by one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub node: NodeId,
    /// Offset within the global array where this extent starts.
    pub global_offset: u64,
    /// Offset within the owning node's segment.
    pub segment_offset: u64,
    pub len: u64,
}

/// Handle to a global array. Cheap to copy; valid on every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GmtArray {
    pub(crate) id: u64,
    pub(crate) nbytes: u64,
    pub(crate) dist: Distribution,
    /// Node that performed the allocation (placement anchor for
    /// `Local`/`Remote`).
    pub(crate) origin: NodeId,
    /// Nodes already confirmed dead when this array was allocated, as a
    /// bitmask — those nodes own no blocks (degraded layout). Captured
    /// once at alloc time so every node resolves the same placement no
    /// matter when its own membership view catches up.
    pub(crate) dead_mask: u64,
    /// Bytes per owning node, resolved once at allocation so that locating
    /// a byte never recomputes it (see [`Layout`]).
    pub(crate) block: u64,
}

impl GmtArray {
    /// The handle of allocation `id` on a cluster of `nodes` nodes.
    pub(crate) fn new(
        id: u64,
        nbytes: u64,
        dist: Distribution,
        origin: NodeId,
        nodes: usize,
        dead_mask: u64,
    ) -> Self {
        let block = Layout::degraded(nbytes, dist, origin, nodes, dead_mask).block;
        GmtArray { id, nbytes, dist, origin, dead_mask, block }
    }

    /// The layout of this array on the cluster of `nodes` nodes it was
    /// allocated on: the placement [`Layout::degraded`] validated and sized
    /// then, reassembled without redoing either.
    pub fn layout(&self, nodes: usize) -> Layout {
        Layout {
            nbytes: self.nbytes,
            dist: self.dist,
            origin: self.origin,
            nodes,
            dead_mask: self.dead_mask,
            block: self.block,
        }
    }
}

/// Resolved placement of an allocation on a concrete cluster size.
///
/// On a degraded cluster the layout maps blocks over the *live* nodes
/// only ([`Layout::degraded`]): nodes in the dead mask own nothing, so
/// arrays allocated after the failure detector converges are fully
/// reachable and kernels over them complete with exact results. Arrays
/// allocated before a death keep their original placement — operations
/// against the dead node's extents fail fast with `RemoteDead`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    nbytes: u64,
    dist: Distribution,
    origin: NodeId,
    nodes: usize,
    /// Nodes that own no blocks (confirmed dead at allocation time).
    dead_mask: u64,
    /// Bytes per owning node (block size); 0 for empty arrays.
    block: u64,
}

impl Layout {
    pub fn new(nbytes: u64, dist: Distribution, origin: NodeId, nodes: usize) -> Self {
        Self::degraded(nbytes, dist, origin, nodes, 0)
    }

    /// A layout that skips the nodes in `dead_mask` (bit `n` set = node
    /// `n` owns nothing). Every node resolving an array must use the
    /// same mask — the allocator captures it once and ships it with the
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the origin is masked out, the mask names nodes out of
    /// range, or a non-empty mask is used on a cluster of more than 64
    /// nodes.
    pub fn degraded(
        nbytes: u64,
        dist: Distribution,
        origin: NodeId,
        nodes: usize,
        dead_mask: u64,
    ) -> Self {
        assert!(nodes > 0);
        assert!(origin < nodes, "origin node out of range");
        if dead_mask != 0 {
            assert!(nodes <= 64, "degraded layouts support at most 64 nodes");
            assert_eq!(
                dead_mask & !(u64::MAX >> (64 - nodes)),
                0,
                "dead mask names nodes out of range"
            );
            assert_eq!(dead_mask >> origin & 1, 0, "origin node cannot be dead");
        }
        let mut l = Layout { nbytes, dist, origin, nodes, dead_mask, block: 0 };
        // Blocks are rounded up to 8-byte multiples so that any aligned
        // 64-bit word — the granularity of gmt_atomicAdd/CAS — lives
        // entirely on one node.
        l.block = if nbytes == 0 { 0 } else { nbytes.div_ceil(l.owners()).next_multiple_of(8) };
        l
    }

    /// Whether `node` participates in this layout at all.
    #[inline]
    fn live(&self, node: NodeId) -> bool {
        self.dead_mask == 0 || self.dead_mask >> node & 1 == 0
    }

    /// Live nodes in this layout (≥ 1: the origin is always live).
    fn live_count(&self) -> u64 {
        self.nodes as u64 - u64::from(self.dead_mask.count_ones())
    }

    /// Number of owner slots (nodes that may hold a non-empty segment).
    fn owners(&self) -> u64 {
        match self.dist {
            Distribution::Partition => self.live_count(),
            Distribution::Local => 1,
            Distribution::Remote => (self.live_count() - 1).max(1),
        }
    }

    /// Maps an owner slot index to the physical node id: the slot-th live
    /// node, skipping the origin for `Remote` (unless it is the only node
    /// left, where `Remote` degenerates to `Local`).
    fn slot_to_node(&self, slot: u64) -> NodeId {
        let skip = match self.dist {
            Distribution::Local => return self.origin,
            Distribution::Remote if self.live_count() == 1 => return self.origin,
            Distribution::Remote => Some(self.origin),
            // Every node live: the slot-th node is node `slot`.
            Distribution::Partition if self.dead_mask == 0 => return slot as NodeId,
            Distribution::Partition => None,
        };
        let mut k = 0;
        for n in 0..self.nodes {
            if Some(n) == skip || !self.live(n) {
                continue;
            }
            if k == slot {
                return n;
            }
            k += 1;
        }
        unreachable!("owner slot {slot} out of range")
    }

    /// The owner slot `node` occupies, or `None` if it owns nothing.
    fn slot_of(&self, node: NodeId) -> Option<u64> {
        if node >= self.nodes || !self.live(node) {
            return None;
        }
        let skip = match self.dist {
            Distribution::Local => return (node == self.origin).then_some(0),
            Distribution::Remote if self.live_count() == 1 => {
                return (node == self.origin).then_some(0);
            }
            Distribution::Remote if node == self.origin => return None,
            Distribution::Remote => Some(self.origin),
            Distribution::Partition => None,
        };
        let slot = (0..node).filter(|&n| Some(n) != skip && self.live(n)).count() as u64;
        Some(slot)
    }

    /// Size in bytes of the segment `node` must allocate for this array.
    pub fn segment_size(&self, node: NodeId) -> u64 {
        if self.nbytes == 0 {
            return 0;
        }
        let Some(slot) = self.slot_of(node) else { return 0 };
        let start = slot * self.block;
        if start >= self.nbytes {
            0
        } else {
            (self.nbytes - start).min(self.block)
        }
    }

    /// Owning node and segment offset for a global byte offset.
    pub fn locate(&self, offset: u64) -> (NodeId, u64) {
        assert!(offset < self.nbytes, "offset {offset} out of bounds ({})", self.nbytes);
        let slot = offset / self.block;
        (self.slot_to_node(slot), offset % self.block)
    }

    /// Splits the byte range `[offset, offset + len)` into per-node
    /// extents, in ascending global-offset order.
    ///
    /// # Panics
    ///
    /// Panics, before the first extent is asked for, if the range exceeds
    /// the array.
    pub fn extents(self, offset: u64, len: u64) -> impl Iterator<Item = Extent> {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.nbytes),
            "range [{offset}, {offset}+{len}) out of bounds ({} bytes)",
            self.nbytes
        );
        let mut cur = offset;
        let end = offset + len;
        std::iter::from_fn(move || {
            if cur >= end {
                return None;
            }
            let (node, seg_off) = self.locate(cur);
            let take = (end - cur).min(self.block - seg_off);
            let extent = Extent { node, global_offset: cur, segment_offset: seg_off, len: take };
            cur += take;
            Some(extent)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_blocks_cover_everything_once() {
        for nodes in [1usize, 2, 3, 5, 8] {
            for nbytes in [1u64, 7, 64, 100, 1024, 4097] {
                let l = Layout::new(nbytes, Distribution::Partition, 0, nodes);
                let total: u64 = (0..nodes).map(|n| l.segment_size(n)).sum();
                assert_eq!(total, nbytes, "nodes={nodes} nbytes={nbytes}");
                // Every byte resolves to a node with a valid segment offset.
                for off in 0..nbytes {
                    let (node, seg) = l.locate(off);
                    assert!(node < nodes);
                    assert!(seg < l.segment_size(node), "off={off}");
                }
            }
        }
    }

    #[test]
    fn local_puts_everything_on_origin() {
        let l = Layout::new(1000, Distribution::Local, 2, 4);
        assert_eq!(l.segment_size(2), 1000);
        for n in [0usize, 1, 3] {
            assert_eq!(l.segment_size(n), 0);
        }
        for off in [0u64, 1, 999] {
            assert_eq!(l.locate(off), (2, off));
        }
    }

    #[test]
    fn remote_avoids_origin() {
        let l = Layout::new(999, Distribution::Remote, 1, 4);
        assert_eq!(l.segment_size(1), 0);
        let total: u64 = (0..4).map(|n| l.segment_size(n)).sum();
        assert_eq!(total, 999);
        for off in 0..999u64 {
            let (node, _) = l.locate(off);
            assert_ne!(node, 1, "offset {off} landed on origin");
        }
    }

    #[test]
    fn remote_on_single_node_degenerates_to_local() {
        let l = Layout::new(64, Distribution::Remote, 0, 1);
        assert_eq!(l.segment_size(0), 64);
        assert_eq!(l.locate(63), (0, 63));
    }

    #[test]
    fn extents_split_ranges_at_block_boundaries() {
        // 100 bytes over 3 nodes: ceil(100/3)=34 rounds up to 40-byte
        // blocks, so segments are 40/40/20.
        let l = Layout::new(100, Distribution::Partition, 0, 3);
        assert_eq!(l.segment_size(0), 40);
        assert_eq!(l.segment_size(1), 40);
        assert_eq!(l.segment_size(2), 20);
        let ex: Vec<Extent> = l.extents(30, 40).collect();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0], Extent { node: 0, global_offset: 30, segment_offset: 30, len: 10 });
        assert_eq!(ex[1], Extent { node: 1, global_offset: 40, segment_offset: 0, len: 30 });
        // Whole-array extent walk covers every byte exactly once.
        let all: Vec<Extent> = l.extents(0, 100).collect();
        let covered: u64 = all.iter().map(|e| e.len).sum();
        assert_eq!(covered, 100);
        for w in all.windows(2) {
            assert_eq!(w[0].global_offset + w[0].len, w[1].global_offset);
        }
    }

    #[test]
    fn blocks_are_word_aligned_so_atomics_never_straddle_nodes() {
        for nodes in [2usize, 3, 5, 7] {
            for nbytes in [64u64, 100, 1000, 4096, 10_001] {
                let l = Layout::new(nbytes, Distribution::Partition, 0, nodes);
                for word in 0..(nbytes / 8) {
                    let ex: Vec<Extent> = l.extents(word * 8, 8).collect();
                    assert_eq!(ex.len(), 1, "word {word} straddles nodes ({nodes}/{nbytes})");
                    assert_eq!(ex[0].segment_offset % 8, 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn locate_rejects_out_of_bounds() {
        let l = Layout::new(10, Distribution::Partition, 0, 2);
        l.locate(10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn extents_reject_overflowing_range() {
        let l = Layout::new(10, Distribution::Partition, 0, 2);
        let _ = l.extents(8, 3);
    }

    #[test]
    fn degraded_partition_covers_everything_on_survivors_only() {
        for (nodes, dead_mask) in [(4usize, 0b0100u64), (8, 0b0100_1000), (3, 0b110), (2, 0b10)] {
            for nbytes in [1u64, 64, 100, 1024, 4097] {
                let l = Layout::degraded(nbytes, Distribution::Partition, 0, nodes, dead_mask);
                let total: u64 = (0..nodes).map(|n| l.segment_size(n)).sum();
                assert_eq!(total, nbytes, "nodes={nodes} mask={dead_mask:#b} nbytes={nbytes}");
                for n in 0..nodes {
                    if dead_mask >> n & 1 == 1 {
                        assert_eq!(l.segment_size(n), 0, "dead node {n} owns bytes");
                    }
                }
                for off in 0..nbytes {
                    let (node, seg) = l.locate(off);
                    assert_eq!(dead_mask >> node & 1, 0, "offset {off} landed on dead {node}");
                    assert!(seg < l.segment_size(node), "off={off}");
                }
            }
        }
    }

    #[test]
    fn degraded_remote_avoids_origin_and_the_dead() {
        let l = Layout::degraded(999, Distribution::Remote, 1, 4, 0b1000);
        assert_eq!(l.segment_size(1), 0);
        assert_eq!(l.segment_size(3), 0);
        let total: u64 = (0..4).map(|n| l.segment_size(n)).sum();
        assert_eq!(total, 999);
        for off in 0..999u64 {
            let (node, _) = l.locate(off);
            assert!(node == 0 || node == 2, "offset {off} on node {node}");
        }
    }

    #[test]
    fn degraded_remote_with_only_origin_left_degenerates_to_local() {
        let l = Layout::degraded(64, Distribution::Remote, 0, 3, 0b110);
        assert_eq!(l.segment_size(0), 64);
        assert_eq!(l.locate(63), (0, 63));
    }

    #[test]
    fn empty_mask_layout_matches_the_undegraded_one() {
        for nodes in [1usize, 2, 5, 8] {
            for dist in [Distribution::Partition, Distribution::Local, Distribution::Remote] {
                let a = Layout::new(1000, dist, 0, nodes);
                let b = Layout::degraded(1000, dist, 0, nodes, 0);
                assert_eq!(a, b);
                for n in 0..nodes {
                    assert_eq!(a.segment_size(n), b.segment_size(n));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "origin node cannot be dead")]
    fn degraded_rejects_a_dead_origin() {
        Layout::degraded(64, Distribution::Partition, 1, 4, 0b0010);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degraded_rejects_masks_past_the_cluster() {
        Layout::degraded(64, Distribution::Partition, 0, 2, 0b100);
    }

    #[test]
    fn distribution_round_trips_through_wire_encoding() {
        for d in [Distribution::Partition, Distribution::Local, Distribution::Remote] {
            assert_eq!(Distribution::from_u8(d.to_u8()), Some(d));
        }
        assert_eq!(Distribution::from_u8(77), None);
    }
}
