//! Seeded input generators. Everything a workload feeds the runtime is
//! a pure function of `--seed`, generated outside the timed section; the
//! runtime sees only the generated inputs.

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// SplitMix64 sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose, round)`: distinct purposes and
    /// rounds of one seed get unrelated streams.
    pub fn new(seed: u64, purpose: &str, round: u64) -> Self {
        let tag = purpose.bytes().fold(0u64, |h, b| mix(h ^ u64::from(b)));
        Rng(mix(mix(seed) ^ tag) ^ mix(round.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (n > 0) by multiply-shift; the bias is below
    /// n / 2^64.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// The slot each op of a put/get round touches: uniform over `slots`.
pub fn slot_stream(seed: u64, round: u64, ops: u64, slots: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed, "slots", round);
    (0..ops).map(|_| rng.below(slots) as u32).collect()
}

/// The bytes every slot of a put/get array holds for the whole run:
/// `f(slot)` laid out word by word. Puts rewrite a slot with its own
/// pattern, so every get — whatever it races with — must read it back.
pub fn slot_patterns(seed: u64, slots: u64, slot_bytes: usize) -> Vec<u8> {
    assert_eq!(slot_bytes % 8, 0, "slots are whole words");
    let words = (slot_bytes / 8) as u64;
    let base = mix(seed ^ 0x5107_5107);
    (0..slots * words).flat_map(|w| mix(base ^ w).to_le_bytes()).collect()
}

/// The cell each op of a scatter-add round hits: `hot_share_percent` of
/// the ops go to `hot` cells fixed by the seed, the rest are uniform
/// over all `cells`.
pub fn scatter_stream(seed: u64, round: u64, ops: u64, cells: u64, hot: u64) -> Vec<u32> {
    const HOT_SHARE_PERCENT: u64 = 75;
    let mut pick = Rng::new(seed, "hot-cells", 0);
    let hot_cells: Vec<u32> = (0..hot).map(|_| pick.below(cells) as u32).collect();
    let mut rng = Rng::new(seed, "scatter", round);
    (0..ops)
        .map(|_| {
            if rng.below(100) < HOT_SHARE_PERCENT {
                hot_cells[rng.below(hot) as usize]
            } else {
                rng.below(cells) as u32
            }
        })
        .collect()
}

/// The amount op `i` of a scatter-add round adds: 1, 2 or 3.
pub fn scatter_delta(i: u64) -> i64 {
    1 + (i % 3) as i64
}

/// A permutation of `0..n` that is one single cycle (Sattolo's
/// algorithm), so a pointer chase visits every element before repeating.
pub fn single_cycle(seed: u64, n: u64) -> Vec<u64> {
    assert!(n >= 2, "a cycle needs two elements");
    let mut rng = Rng::new(seed, "cycle", 0);
    let mut perm: Vec<u64> = (0..n).collect();
    for i in (1..n as usize).rev() {
        perm.swap(i, rng.below(i as u64) as usize);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Order-sensitive hash of an op stream.
    fn stream_hash(stream: &[u32]) -> u64 {
        stream.iter().fold(0x6A09_E667_F3BC_C908, |h, &v| mix(h ^ u64::from(v)))
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = slot_stream(7, 3, 4096, 65_536);
        assert_eq!(stream_hash(&a), stream_hash(&slot_stream(7, 3, 4096, 65_536)));
        assert_ne!(stream_hash(&a), stream_hash(&slot_stream(8, 3, 4096, 65_536)));
        assert_ne!(stream_hash(&a), stream_hash(&slot_stream(7, 4, 4096, 65_536)));
        assert!(a.iter().all(|&s| s < 65_536));

        let s = scatter_stream(7, 0, 4096, 65_536, 16);
        assert_eq!(stream_hash(&s), stream_hash(&scatter_stream(7, 0, 4096, 65_536, 16)));
        assert_ne!(stream_hash(&s), stream_hash(&scatter_stream(9, 0, 4096, 65_536, 16)));
        assert_ne!(stream_hash(&s), stream_hash(&a));

        assert_eq!(slot_patterns(7, 64, 64), slot_patterns(7, 64, 64));
        assert_ne!(slot_patterns(7, 64, 64), slot_patterns(8, 64, 64));
        assert_eq!(single_cycle(7, 512), single_cycle(7, 512));
        assert_ne!(single_cycle(7, 512), single_cycle(8, 512));
    }

    #[test]
    fn scatter_is_three_quarters_hot() {
        let ops = 1 << 16;
        let stream = scatter_stream(11, 0, ops, 65_536, 16);
        let mut counts = std::collections::BTreeMap::new();
        for &c in &stream {
            *counts.entry(c).or_insert(0u64) += 1;
        }
        let mut by_count: Vec<u64> = counts.into_values().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let hot: u64 = by_count.iter().take(16).sum();
        let share = hot as f64 / ops as f64;
        assert!((0.73..0.78).contains(&share), "hot share {share}");
        assert_eq!((0..6).map(scatter_delta).collect::<Vec<_>>(), [1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn slot_patterns_differ_between_slots() {
        let p = slot_patterns(3, 8, 16);
        assert_eq!(p.len(), 128);
        let slots: std::collections::BTreeSet<&[u8]> = p.chunks(16).collect();
        assert_eq!(slots.len(), 8);
    }

    #[test]
    fn chase_permutation_is_one_cycle() {
        let n = 1024;
        let perm = single_cycle(5, n);
        let (mut at, mut steps) = (0u64, 0u64);
        loop {
            at = perm[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, n);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1, "t", 0);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert_eq!(rng.below(1), 0);
    }
}
