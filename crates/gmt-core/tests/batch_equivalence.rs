//! The helper datapath against a host-side model.
//!
//! The helper receive path is a batched decode → bucket → apply pipeline
//! (same-offset RMW merging, run-wise segment resolution, `AckN` assembly
//! from staged token columns). It must be observably identical to
//! applying each command alone: same final memory, same completion
//! multiplicities (a lost or duplicated completion hangs or corrupts
//! `wait_commands`, so the runs below double as multiplicity checks),
//! same values returned by blocking atomics. [`model`] is that reference:
//! the op sequences applied one at a time on the host.
//!
//! Each property case runs one seeded mixed-opcode workload — puts to
//! disjoint slots (some duplicated same-bytes), fire-and-forget adds to
//! a small set of shared cells (heavy duplicate offsets → the merge
//! path), blocking adds, per-task cas chains (order-sensitive), cas waves
//! over each task's own cells with duplicate indices (runs applied in
//! order), and interleaved gets — across four arrays with different
//! distributions, and compares the cluster's memory against the model.
//! Only outcomes that GMT defines are compared: slots are single-writer,
//! adds commute, cas chains and waves are per-task sequenced by their
//! blocking replies.

use gmt_core::{Cluster, Config, Distribution, SpawnPolicy};
use proptest::prelude::*;

const TASKS: u64 = 8;
/// Shared 8-byte cells hammered by every task's adds (small on purpose:
/// duplicate offsets within one aggregation buffer drive the RMW merge).
const CELLS: u64 = 8;
/// Maximum bytes per put slot (odd lengths exercise the unaligned
/// head/tail of the word-wise batch copy).
const SLOT: u64 = 24;
/// Cells of each task's own stretch of the wave array.
const WAVE_CELLS: u64 = 8;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[derive(Clone, Debug)]
enum Op {
    /// Write `len` copies of `byte` at this op's private slot; `dup`
    /// issues the identical put twice (same bytes, so the undefined
    /// relative order of the two in-flight puts is unobservable).
    Put { slot: u64, len: usize, byte: u8, dup: bool },
    /// Fire-and-forget add to a shared cell.
    AddNb { cell: u64, delta: i64 },
    /// Blocking add to a shared cell (old value is racy across tasks and
    /// not asserted; the reply datapath is what's exercised).
    Add { cell: u64, delta: i64 },
    /// CAS on the task's own cell; each task's chain is sequenced by the
    /// blocking replies, so every old value is asserted in-task.
    Cas { new: i64 },
    /// Blocking read of a shared cell (value racy, not asserted).
    Get { cell: u64 },
    /// CAS wave over the task's own wave cells, listed in `picks` with
    /// repeats, from the task's previous wave value to `new`; every old
    /// value is asserted in-task against the task's mirror.
    CasWave { picks: Vec<u64>, new: i64 },
}

/// Applies one wave to a task's mirror of its wave cells, returning the
/// old value of each pick in order: an element swaps iff its cell holds
/// `expected` when its turn comes, so a repeat sees its first swap.
fn apply_wave(mirror: &mut [i64], picks: &[u64], expected: i64, new: i64) -> Vec<i64> {
    picks
        .iter()
        .map(|&c| {
            let old = mirror[c as usize];
            if old == expected {
                mirror[c as usize] = new;
            }
            old
        })
        .collect()
}

/// The deterministic op sequence of one task — shared by the executing
/// task and the host-side model.
fn gen_ops(seed: u64, task: u64, n_ops: usize) -> Vec<Op> {
    let mut rng = seed ^ task.wrapping_mul(0xa076_1d64_78bd_642f);
    (0..n_ops)
        .map(|j| {
            let r = splitmix(&mut rng);
            let slot = (task * n_ops as u64 + j as u64) * SLOT;
            match r % 9 {
                0 | 1 => Op::Put {
                    slot,
                    len: 1 + (r >> 8) as usize % SLOT as usize,
                    byte: (r >> 16) as u8,
                    dup: r & (1 << 40) != 0,
                },
                2..=4 => Op::AddNb { cell: (r >> 8) % CELLS, delta: (r >> 16) as i64 % 1000 },
                5 => Op::Add { cell: (r >> 8) % CELLS, delta: -((r >> 16) as i64 % 1000) },
                6 => Op::Cas { new: (r >> 8) as i64 | 1 },
                7 => Op::Get { cell: (r >> 8) % CELLS },
                _ => {
                    let mut pick = r;
                    let n = 1 + (r >> 8) % 12;
                    let picks = (0..n).map(|_| splitmix(&mut pick) % WAVE_CELLS).collect();
                    Op::CasWave { picks, new: (r >> 16) as i64 | 1 }
                }
            }
        })
        .collect()
}

/// Final memory of the workload's four arrays: the put array's bytes,
/// the shared add cells, each task's cas cell and its wave cells.
type Memory = (Vec<u8>, Vec<i64>, Vec<i64>, Vec<i64>);

/// What memory must hold once every task finished.
fn model(seed: u64, n_ops: usize) -> Memory {
    let mut puts = vec![0u8; (TASKS * n_ops as u64 * SLOT) as usize];
    let mut adds = vec![0i64; CELLS as usize];
    let mut cas = vec![0i64; TASKS as usize];
    let mut waves = vec![0i64; (TASKS * WAVE_CELLS) as usize];
    for task in 0..TASKS {
        let mirror = &mut waves[(task * WAVE_CELLS) as usize..][..WAVE_CELLS as usize];
        let mut wave_prev = 0;
        for op in gen_ops(seed, task, n_ops) {
            match op {
                Op::Put { slot, len, byte, .. } => {
                    puts[slot as usize..slot as usize + len].fill(byte);
                }
                Op::AddNb { cell, delta } | Op::Add { cell, delta } => {
                    adds[cell as usize] = adds[cell as usize].wrapping_add(delta);
                }
                Op::Cas { new } => cas[task as usize] = new,
                Op::Get { .. } => {}
                Op::CasWave { picks, new } => {
                    apply_wave(mirror, &picks, wave_prev, new);
                    wave_prev = new;
                }
            }
        }
    }
    (puts, adds, cas, waves)
}

/// Runs the seeded workload on a fresh cluster and returns the final
/// memory of all three arrays.
fn run_workload(seed: u64, n_ops: usize, nodes: usize) -> Memory {
    let cluster = Cluster::start(nodes, Config::small()).unwrap();
    let result = cluster.node(0).run(move |ctx| {
        let put_bytes = TASKS * n_ops as u64 * SLOT;
        let puts = ctx.alloc(put_bytes, Distribution::Partition);
        let adds = ctx.alloc(CELLS * 8, Distribution::Remote);
        let cas = ctx.alloc(TASKS * 8, Distribution::Partition);
        let waves = ctx.alloc(TASKS * WAVE_CELLS * 8, Distribution::Partition);
        ctx.parfor(SpawnPolicy::Partition, TASKS, 1, move |ctx, task| {
            let mut cas_prev = 0i64;
            let mut mirror = [0i64; WAVE_CELLS as usize];
            let mut wave_prev = 0i64;
            for op in gen_ops(seed, task, n_ops) {
                match op {
                    Op::Put { slot, len, byte, dup } => {
                        let data = [byte; SLOT as usize];
                        ctx.put_nb(&puts, slot, &data[..len]);
                        if dup {
                            ctx.put_nb(&puts, slot, &data[..len]);
                        }
                    }
                    Op::AddNb { cell, delta } => ctx.atomic_add_nb(&adds, cell * 8, delta),
                    Op::Add { cell, delta } => {
                        ctx.atomic_add(&adds, cell * 8, delta).unwrap();
                    }
                    Op::Cas { new } => {
                        let old = ctx.atomic_cas(&cas, task * 8, cas_prev, new).unwrap();
                        assert_eq!(old, cas_prev, "cas chain broken for task {task}");
                        cas_prev = new;
                    }
                    Op::Get { cell } => {
                        ctx.get_value::<i64>(&adds, cell).unwrap();
                    }
                    Op::CasWave { picks, new } => {
                        let indices: Vec<u64> =
                            picks.iter().map(|&c| task * WAVE_CELLS + c).collect();
                        let old = ctx.atomic_cas_wave(&waves, &indices, wave_prev, new).unwrap();
                        let expected = apply_wave(&mut mirror, &picks, wave_prev, new);
                        assert_eq!(old, expected, "cas wave {picks:?} of task {task}");
                        wave_prev = new;
                    }
                }
            }
            ctx.wait_commands().unwrap();
            // Re-read this task's own slots: the put must be fully
            // visible once wait_commands returned.
            for op in gen_ops(seed, task, n_ops) {
                if let Op::Put { slot, len, byte, .. } = op {
                    let mut back = vec![0u8; len];
                    ctx.get(&puts, slot, &mut back).unwrap();
                    assert!(
                        back.iter().all(|&b| b == byte),
                        "task {task} slot {slot} readback mismatch"
                    );
                }
            }
        });
        let mut put_mem = vec![0u8; put_bytes as usize];
        ctx.get(&puts, 0, &mut put_mem).unwrap();
        let add_mem: Vec<i64> =
            (0..CELLS).map(|c| ctx.get_value::<i64>(&adds, c).unwrap()).collect();
        let cas_mem: Vec<i64> =
            (0..TASKS).map(|t| ctx.get_value::<i64>(&cas, t).unwrap()).collect();
        let wave_cells: Vec<u64> = (0..TASKS * WAVE_CELLS).collect();
        let wave_mem = ctx.gather::<i64>(&waves, &wave_cells).unwrap();
        ctx.free(puts);
        ctx.free(adds);
        ctx.free(cas);
        ctx.free(waves);
        (put_mem, add_mem, cas_mem, wave_mem)
    });
    cluster.shutdown();
    result
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn helper_datapath_matches_the_host_model(
        seed in any::<u64>(),
        n_ops in 12usize..40,
        nodes in 2usize..4,
    ) {
        let got = run_workload(seed, n_ops, nodes);
        prop_assert_eq!(got, model(seed, n_ops), "cluster vs model mismatch (seed {})", seed);
    }
}

/// One deterministic case with maximal duplicate-offset pressure: every
/// task's every add lands on cell 0, so whole buffers collapse into
/// single RMWs through `atomic_add_batch` (and into `AddN` wire commands
/// through the source combining table before that).
#[test]
fn single_cell_storm_sums_exactly() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let total = cluster.node(0).run(move |ctx| {
        let arr = ctx.alloc(8, Distribution::Remote);
        ctx.parfor(SpawnPolicy::Partition, 64, 4, move |ctx, i| {
            for k in 0..32 {
                ctx.atomic_add_nb(&arr, 0, (i * 37 + k) as i64 % 101);
            }
            ctx.wait_commands().unwrap();
        });
        let v = ctx.atomic_add(&arr, 0, 0).unwrap();
        ctx.free(arr);
        v
    });
    let expected: i64 = (0..64).flat_map(|i| (0..32).map(move |k| (i * 37 + k) % 101)).sum();
    assert_eq!(total, expected);
    cluster.shutdown();
}
