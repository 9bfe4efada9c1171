//! Per-node global-memory segments.
//!
//! Each node stores its share of every global array in a [`Segment`]. The
//! paper's helpers "manage the global address space"; here any helper (and,
//! for node-local accesses, any worker-side task) may touch a segment
//! concurrently, so all access goes through relaxed atomic loads/stores —
//! racy GMT programs observe the same word-level outcomes they would on
//! real shared memory instead of Rust-level undefined behaviour.
//! Word-width atomics (`atomic_add`, `atomic_cas`) require 8-byte-aligned
//! offsets, like the hardware they model.

use crate::handle::Layout;
use crate::NodeId;
use parking_lot::Mutex;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// A byte a segment read can land in: an initialised one, or one of a
/// buffer's spare capacity that the read initialises.
trait ByteSlot: Copy {
    fn new(b: u8) -> Self;
}

impl ByteSlot for u8 {
    fn new(b: u8) -> u8 {
        b
    }
}

impl ByteSlot for MaybeUninit<u8> {
    fn new(b: u8) -> Self {
        MaybeUninit::new(b)
    }
}

/// One node's storage for one global array.
pub struct Segment {
    /// Backing store, 8-byte aligned by construction (`Vec<u64>` words).
    words: Box<[AtomicU64]>,
    len: usize,
}

impl Segment {
    /// Allocates a zero-initialized segment of `len` bytes.
    pub fn new(len: usize) -> Self {
        let nwords = len.div_ceil(8);
        let words: Box<[AtomicU64]> = (0..nwords).map(|_| AtomicU64::new(0)).collect();
        Segment { words, len }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn byte_ptr(&self) -> *const AtomicU8 {
        self.words.as_ptr().cast::<AtomicU8>()
    }

    /// Copies `dst.len()` bytes starting at `offset` into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the segment.
    pub fn read(&self, offset: usize, dst: &mut [u8]) {
        self.read_into(offset, dst);
    }

    /// [`Segment::read`] into bytes not initialised yet, every one of
    /// which it initialises (or it panics first).
    pub(crate) fn read_uninit(&self, offset: usize, dst: &mut [MaybeUninit<u8>]) {
        self.read_into(offset, dst);
    }

    #[inline]
    fn read_into<B: ByteSlot>(&self, offset: usize, dst: &mut [B]) {
        assert!(
            offset.checked_add(dst.len()).is_some_and(|e| e <= self.len),
            "segment read [{offset}, {offset}+{}) out of bounds ({} bytes)",
            dst.len(),
            self.len
        );
        // Relaxed atomics throughout: defined behaviour under races. The
        // bulk of the copy runs word-at-a-time over the aligned middle —
        // one atomic load per 8 bytes, the word slice cut once so the loop
        // carries no division and no bounds check — with per-byte atomics
        // only on the unaligned head and tail. (The tail is split off
        // first so the zip takes `chunks_exact` by value: zipping a `&mut`
        // of it keeps a second exit test per word and halves the speed.)
        // Byte and word views agree because the backing store is
        // little-endian words.
        let base = self.byte_ptr();
        let head = ((8 - (offset & 7)) & 7).min(dst.len());
        let (head_bytes, rest) = dst.split_at_mut(head);
        for (i, d) in head_bytes.iter_mut().enumerate() {
            // SAFETY: the assert above keeps every byte index in bounds.
            *d = B::new(unsafe { &*base.add(offset + i) }.load(Ordering::Relaxed));
        }
        let first = (offset + head) / 8;
        let n = rest.len() / 8;
        let (middle, tail) = rest.split_at_mut(n * 8);
        for (w, d) in self.words[first..first + n].iter().zip(middle.chunks_exact_mut(8)) {
            d.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes().map(B::new));
        }
        let tail_at = (first + n) * 8;
        for (i, d) in tail.iter_mut().enumerate() {
            // SAFETY: as for the head.
            *d = B::new(unsafe { &*base.add(tail_at + i) }.load(Ordering::Relaxed));
        }
    }

    /// Copies `src` into the segment starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the segment.
    pub fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            offset.checked_add(src.len()).is_some_and(|e| e <= self.len),
            "segment write [{offset}, {offset}+{}) out of bounds ({} bytes)",
            src.len(),
            self.len
        );
        // Same shape as `read`: byte head/tail, aligned word middle.
        let base = self.byte_ptr();
        let head = ((8 - (offset & 7)) & 7).min(src.len());
        let (head_bytes, rest) = src.split_at(head);
        for (i, s) in head_bytes.iter().enumerate() {
            unsafe { &*base.add(offset + i) }.store(*s, Ordering::Relaxed);
        }
        let first = (offset + head) / 8;
        let n = rest.len() / 8;
        let (middle, tail) = rest.split_at(n * 8);
        for (w, s) in self.words[first..first + n].iter().zip(middle.chunks_exact(8)) {
            w.store(u64::from_le_bytes(s.try_into().unwrap()), Ordering::Relaxed);
        }
        let tail_at = (first + n) * 8;
        for (i, s) in tail.iter().enumerate() {
            unsafe { &*base.add(tail_at + i) }.store(*s, Ordering::Relaxed);
        }
    }

    #[inline]
    fn word_at(&self, offset: usize) -> &AtomicU64 {
        assert_eq!(offset % 8, 0, "atomic access requires 8-byte alignment (offset {offset})");
        assert!(offset + 8 <= self.len, "atomic access at {offset} out of bounds ({})", self.len);
        &self.words[offset / 8]
    }

    /// Atomically adds `delta` to the i64 at `offset`; returns the old
    /// value (the paper's `gmt_atomicAdd`).
    pub fn atomic_add(&self, offset: usize, delta: i64) -> i64 {
        self.word_at(offset).fetch_add(delta as u64, Ordering::AcqRel) as i64
    }

    /// Applies a sorted run of atomic fetch-adds given as parallel
    /// `(offsets, deltas)` columns, pre-merging same-offset entries into
    /// a single RMW (exact, by commutativity — the same argument that
    /// lets the command sink merge at the source). Returns the number of
    /// RMWs actually performed; `offsets.len() - performed` adds were
    /// absorbed by the merge.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned or out-of-bounds offset (as
    /// [`Segment::atomic_add`]) and if `offsets` is not sorted — the
    /// caller buckets and sorts, this kernel only walks runs.
    pub fn atomic_add_batch(&self, offsets: &[u64], deltas: &[i64]) -> usize {
        debug_assert_eq!(offsets.len(), deltas.len());
        let mut performed = 0;
        let mut i = 0;
        while i < offsets.len() {
            let offset = offsets[i];
            let mut merged = deltas[i];
            let mut j = i + 1;
            while j < offsets.len() && offsets[j] == offset {
                merged = merged.wrapping_add(deltas[j]);
                j += 1;
            }
            assert!(j >= offsets.len() || offsets[j] > offset, "atomic_add_batch: unsorted run");
            self.atomic_add(offset as usize, merged);
            performed += 1;
            i = j;
        }
        performed
    }

    /// Applies a run of writes in one call (each through the word-wise
    /// copy fast path of [`Segment::write`]); the batched helper datapath
    /// resolves the segment once for the whole run instead of once per
    /// command.
    pub fn write_batch<'a>(&self, ops: impl IntoIterator<Item = (usize, &'a [u8])>) {
        for (offset, data) in ops {
            self.write(offset, data);
        }
    }

    /// Reads a run of ranges in one call (the gather dual of
    /// [`Segment::write_batch`]), each through the word-wise copy fast
    /// path of [`Segment::read`].
    pub fn gather_batch<'a>(&self, ops: impl IntoIterator<Item = (usize, &'a mut [u8])>) {
        for (offset, dst) in ops {
            self.read(offset, dst);
        }
    }

    /// Atomic compare-and-swap on the i64 at `offset`; returns the old
    /// value (the paper's `gmt_atomicCAS`).
    pub fn atomic_cas(&self, offset: usize, expected: i64, new: i64) -> i64 {
        match self.word_at(offset).compare_exchange(
            expected as u64,
            new as u64,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(old) => old as i64,
            Err(old) => old as i64,
        }
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("len", &self.len).finish()
    }
}

/// Slots per second-level chunk of the allocation table.
const SLOTS_PER_CHUNK: usize = 1024;
/// First-level chunk-pointer entries (capacity: 4M allocation ids).
const N_CHUNKS: usize = 4096;

/// Sentinel marking a freed slot. Allocation ids are minted from a
/// monotonic cluster-wide counter and never reused, so the id itself is
/// the generation: a slot goes null → live → tombstone exactly once.
fn tombstone() -> *mut Segment {
    std::ptr::dangling_mut::<Segment>()
}

/// Second-level chunk: a fixed run of segment-pointer slots.
struct Chunk {
    slots: [AtomicPtr<Segment>; SLOTS_PER_CHUNK],
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk { slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())) })
    }
}

/// All segments owned by one node, indexed by allocation id.
///
/// Lookup is lock-free: two `Acquire` pointer loads (chunk, then slot) —
/// no lock, no hashing — which every command executed by a helper and
/// every worker-side local fast path pays. Allocation ids are dense and
/// monotonic (cluster-wide counter starting at 1), so a two-level slot
/// table replaces the old `RwLock<HashMap>` outright.
///
/// Freed segments are *retired*, not dropped: `free` swings the slot to a
/// tombstone and parks the segment in a graveyard reclaimed when the node
/// shuts down (`Drop`). A reader that raced the free therefore always
/// dereferences a live segment; GMT programs that touch an array after
/// freeing it still panic via the tombstone check. Memory for freed
/// arrays is thus bounded by allocations per node lifetime, which mirrors
/// the paper's runtime (GMT never returns segment memory to the OS
/// mid-run either).
pub struct NodeMemory {
    chunks: Box<[AtomicPtr<Chunk>]>,
    live: AtomicUsize,
    // Each segment must stay at the address its slot-table pointer was
    // minted from (racing readers may still hold it), so the graveyard
    // stores the original boxes rather than moving segments into a Vec.
    #[allow(clippy::vec_box)]
    graveyard: Mutex<Vec<Box<Segment>>>,
}

impl Default for NodeMemory {
    fn default() -> Self {
        NodeMemory::new()
    }
}

impl NodeMemory {
    pub fn new() -> Self {
        NodeMemory {
            chunks: (0..N_CHUNKS).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
            live: AtomicUsize::new(0),
            graveyard: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn split(id: u64) -> (usize, usize) {
        let id = id as usize;
        assert!(
            id < N_CHUNKS * SLOTS_PER_CHUNK,
            "allocation id {id} exceeds the slot table capacity"
        );
        (id / SLOTS_PER_CHUNK, id % SLOTS_PER_CHUNK)
    }

    /// The slot for `id`, installing its chunk if this is the first
    /// allocation to land there.
    fn slot(&self, id: u64, install: bool) -> Option<&AtomicPtr<Segment>> {
        let (ci, si) = Self::split(id);
        let mut chunk = self.chunks[ci].load(Ordering::Acquire);
        if chunk.is_null() {
            if !install {
                return None;
            }
            let fresh = Box::into_raw(Chunk::new());
            match self.chunks[ci].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => chunk = fresh,
                Err(won) => {
                    // Another allocator installed the chunk first.
                    drop(unsafe { Box::from_raw(fresh) });
                    chunk = won;
                }
            }
        }
        Some(&unsafe { &*chunk }.slots[si])
    }

    /// Allocates this node's share of array `id` according to `layout`.
    /// Zero-sized shares still insert an entry so frees stay symmetric.
    pub fn alloc(&self, id: u64, layout: &Layout, node: NodeId) {
        let size = layout.segment_size(node) as usize;
        let seg = Box::into_raw(Box::new(Segment::new(size)));
        let slot = self.slot(id, true).expect("chunk installed");
        let prev = slot.swap(seg, Ordering::AcqRel);
        debug_assert!(prev.is_null(), "allocation id {id} reused");
        self.live.fetch_add(1, Ordering::Relaxed);
    }

    /// Frees this node's share of array `id`. Returns whether it existed.
    pub fn free(&self, id: u64) -> bool {
        let Some(slot) = self.slot(id, false) else { return false };
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            if cur.is_null() || cur == tombstone() {
                return false;
            }
            match slot.compare_exchange(cur, tombstone(), Ordering::AcqRel, Ordering::Acquire) {
                Ok(seg) => {
                    // Retire rather than drop: a concurrent `with` may
                    // still hold a reference into this segment.
                    self.graveyard.lock().push(unsafe { Box::from_raw(seg) });
                    self.live.fetch_sub(1, Ordering::Relaxed);
                    return true;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Runs `f` with the segment for `id`: one generation-checked lookup,
    /// which the helper pays once for a whole same-segment run of commands.
    ///
    /// # Panics
    ///
    /// Panics if the array is unknown on this node (use-after-free or
    /// never-allocated — both programming errors in GMT as well).
    #[inline]
    pub fn with<R>(&self, id: u64, f: impl FnOnce(&Segment) -> R) -> R {
        let seg =
            self.slot(id, false).map(|s| s.load(Ordering::Acquire)).unwrap_or(std::ptr::null_mut());
        if seg.is_null() || seg == tombstone() {
            panic!("global array {id} is not allocated on this node");
        }
        // Safety: live pointers are only ever retired to the graveyard
        // (kept alive until this `NodeMemory` drops), never freed in
        // place, so the reference cannot dangle.
        f(unsafe { &*seg })
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

impl Drop for NodeMemory {
    fn drop(&mut self) {
        for c in self.chunks.iter() {
            let chunk = c.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if chunk.is_null() {
                continue;
            }
            let chunk = unsafe { Box::from_raw(chunk) };
            for slot in chunk.slots.iter() {
                let seg = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
                if !seg.is_null() && seg != tombstone() {
                    drop(unsafe { Box::from_raw(seg) });
                }
            }
        }
        // The graveyard (retired segments) drops with the struct.
    }
}

impl std::fmt::Debug for NodeMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeMemory").field("live", &self.live_allocations()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Distribution;

    #[test]
    fn read_write_roundtrip() {
        let s = Segment::new(64);
        s.write(5, &[1, 2, 3, 4]);
        let mut buf = [0u8; 6];
        s.read(4, &mut buf);
        assert_eq!(buf, [0, 1, 2, 3, 4, 0]);
    }

    #[test]
    fn zero_initialized() {
        let s = Segment::new(33);
        let mut buf = vec![0xFFu8; 33];
        s.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn odd_sized_segment_edges_work() {
        let s = Segment::new(13);
        s.write(12, &[9]);
        let mut b = [0u8];
        s.read(12, &mut b);
        assert_eq!(b, [9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_past_end_panics() {
        let s = Segment::new(8);
        let mut b = [0u8; 4];
        s.read(6, &mut b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_past_end_panics() {
        let s = Segment::new(8);
        s.write(7, &[1, 2]);
    }

    #[test]
    fn unaligned_bulk_copies_roundtrip() {
        // Exercise every head/middle/tail split of the word-wise fast
        // path against a reference pattern.
        let s = Segment::new(64);
        let pattern: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        for offset in 0..9 {
            for len in [0, 1, 5, 7, 8, 9, 15, 16, 17, 24, 40] {
                if offset + len > 64 {
                    continue;
                }
                s.write(0, &[0xAA; 64]);
                s.write(offset, &pattern[..len]);
                let mut back = vec![0u8; len];
                s.read(offset, &mut back);
                assert_eq!(back, &pattern[..len], "offset {offset} len {len}");
                // Bytes outside the write are untouched.
                let mut whole = vec![0u8; 64];
                s.read(0, &mut whole);
                assert!(whole[..offset].iter().all(|&b| b == 0xAA));
                assert!(whole[offset + len..].iter().all(|&b| b == 0xAA));
            }
        }
    }

    #[test]
    fn racing_bulk_copies_never_tear_a_word() {
        // The module's promise: a racy program sees word-level outcomes.
        // One thread writes whole-word patterns over a 4 KiB range, the
        // other reads the range; every aligned word read must be one of
        // the patterns written (or the initial zero), never a mix of two —
        // which a byte-granular `memcpy` in place of the word atomics
        // would be free to produce.
        const RANGE: usize = 4096;
        const PATTERNS: u64 = 64;
        const ROUNDS: u64 = 2_000;
        let s = Segment::new(RANGE + 16);
        let start = std::sync::Barrier::new(2);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut src = vec![0u8; RANGE];
                start.wait();
                for round in 0..ROUNDS {
                    let word = (0x0101_0101_0101_0101u64 * (round % PATTERNS)).to_le_bytes();
                    src.chunks_exact_mut(8).for_each(|c| c.copy_from_slice(&word));
                    s.write(8, &src);
                }
                done.store(true, Ordering::Release);
            });
            let mut dst = vec![0u8; RANGE];
            start.wait();
            // At least one read after the last write, so the loop also
            // checks the settled state.
            let mut last = false;
            while !last {
                last = done.load(Ordering::Acquire);
                s.read(8, &mut dst);
                for (i, c) in dst.chunks_exact(8).enumerate() {
                    let w = u64::from_le_bytes(c.try_into().unwrap());
                    let k = w & 0xFF;
                    assert!(
                        k < PATTERNS && w == 0x0101_0101_0101_0101 * k,
                        "word {i} torn: {w:#018x}"
                    );
                }
            }
        });
    }

    #[test]
    fn atomic_add_returns_old_value() {
        let s = Segment::new(16);
        assert_eq!(s.atomic_add(8, 5), 0);
        assert_eq!(s.atomic_add(8, -2), 5);
        assert_eq!(s.atomic_add(8, 0), 3);
    }

    #[test]
    fn atomic_cas_success_and_failure() {
        let s = Segment::new(8);
        assert_eq!(s.atomic_cas(0, 0, 42), 0); // success: old was 0
        assert_eq!(s.atomic_cas(0, 0, 99), 42); // failure: old is 42
        assert_eq!(s.atomic_cas(0, 42, 7), 42); // success
        let mut b = [0u8; 8];
        s.read(0, &mut b);
        assert_eq!(i64::from_le_bytes(b), 7);
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn atomic_requires_alignment() {
        let s = Segment::new(16);
        s.atomic_add(3, 1);
    }

    #[test]
    fn atomics_and_byte_views_agree_on_le_layout() {
        let s = Segment::new(8);
        s.atomic_add(0, 0x0102_0304);
        let mut b = [0u8; 8];
        s.read(0, &mut b);
        assert_eq!(i64::from_le_bytes(b), 0x0102_0304);
        // Byte-written values are visible to atomics.
        s.write(0, &(-1i64).to_le_bytes());
        assert_eq!(s.atomic_add(0, 1), -1);
    }

    #[test]
    fn concurrent_atomic_adds_do_not_lose_updates() {
        let s = std::sync::Arc::new(Segment::new(8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        s.atomic_add(0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.atomic_add(0, 0), 40_000);
    }

    #[test]
    fn node_memory_alloc_free_lifecycle() {
        let m = NodeMemory::new();
        let layout = Layout::new(100, Distribution::Partition, 0, 2);
        m.alloc(1, &layout, 0);
        assert_eq!(m.live_allocations(), 1);
        // ceil(100/2)=50 rounds up to the 56-byte word-aligned block.
        m.with(1, |s| assert_eq!(s.len(), 56));
        assert!(m.free(1));
        assert!(!m.free(1));
        assert_eq!(m.live_allocations(), 0);
    }

    #[test]
    fn non_owner_gets_zero_sized_segment() {
        let m = NodeMemory::new();
        let layout = Layout::new(100, Distribution::Local, 1, 2);
        m.alloc(7, &layout, 0); // node 0 owns nothing
        m.with(7, |s| assert!(s.is_empty()));
    }

    #[test]
    fn readers_racing_a_free_stay_safe() {
        // A reader holding the segment across a concurrent free must keep
        // seeing valid memory (the segment is retired, not dropped).
        let m = std::sync::Arc::new(NodeMemory::new());
        let layout = Layout::new(8, Distribution::Partition, 0, 1);
        m.alloc(11, &layout, 0);
        let m2 = std::sync::Arc::clone(&m);
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = std::sync::Arc::clone(&done);
        let reader = std::thread::spawn(move || {
            let mut sum = 0i64;
            while !done2.load(Ordering::Relaxed) {
                // May panic with "not allocated" once the free lands —
                // that is the correct post-free behaviour; stop then.
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m2.with(11, |s| s.atomic_add(0, 0))
                }));
                match r {
                    Ok(v) => sum = sum.wrapping_add(v),
                    Err(_) => break,
                }
            }
            sum
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(m.free(11));
        done.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(m.live_allocations(), 0);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn access_after_free_panics() {
        let m = NodeMemory::new();
        let layout = Layout::new(8, Distribution::Partition, 0, 1);
        m.alloc(3, &layout, 0);
        m.free(3);
        m.with(3, |_| ());
    }

    #[test]
    fn atomic_add_batch_merges_same_offset_runs() {
        let s = Segment::new(32);
        s.atomic_add(8, 100);
        // Sorted by offset; three adds to offset 8 merge into one RMW.
        let offsets = [0u64, 8, 8, 8, 16];
        let deltas = [1i64, 2, 3, -4, 7];
        assert_eq!(s.atomic_add_batch(&offsets, &deltas), 3);
        assert_eq!(s.atomic_add(0, 0), 1);
        assert_eq!(s.atomic_add(8, 0), 101);
        assert_eq!(s.atomic_add(16, 0), 7);
    }

    #[test]
    fn atomic_add_batch_matches_scalar_adds() {
        let batched = Segment::new(64);
        let scalar = Segment::new(64);
        let mut ops: Vec<(u64, i64)> =
            (0..40).map(|i: i64| (((i * 13) % 8 * 8) as u64, i.wrapping_mul(0x9e37) - 7)).collect();
        ops.sort_unstable_by_key(|&(o, _)| o);
        let offsets: Vec<u64> = ops.iter().map(|&(o, _)| o).collect();
        let deltas: Vec<i64> = ops.iter().map(|&(_, d)| d).collect();
        batched.atomic_add_batch(&offsets, &deltas);
        for &(o, d) in &ops {
            scalar.atomic_add(o as usize, d);
        }
        for cell in 0..8 {
            assert_eq!(batched.atomic_add(cell * 8, 0), scalar.atomic_add(cell * 8, 0));
        }
    }

    #[test]
    #[should_panic(expected = "unsorted run")]
    fn atomic_add_batch_rejects_unsorted_input() {
        let s = Segment::new(32);
        s.atomic_add_batch(&[8, 0], &[1, 1]);
    }

    #[test]
    fn write_and_gather_batch_roundtrip() {
        let s = Segment::new(64);
        // Overlap-free run with unaligned offsets and lengths.
        let writes: [(usize, &[u8]); 3] = [(3, &[1, 2, 3, 4, 5]), (16, &[9; 8]), (33, &[7])];
        s.write_batch(writes.iter().map(|&(o, d)| (o, d)));
        let mut a = [0u8; 5];
        let mut b = [0u8; 8];
        let mut c = [0u8; 1];
        {
            let outs: [(usize, &mut [u8]); 3] = [(3, &mut a), (16, &mut b), (33, &mut c)];
            s.gather_batch(outs);
        }
        assert_eq!(a, [1, 2, 3, 4, 5]);
        assert_eq!(b, [9; 8]);
        assert_eq!(c, [7]);
    }
}
