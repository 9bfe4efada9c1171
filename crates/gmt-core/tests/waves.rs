//! The non-blocking forms that return a value (`atomic_cas_nb`,
//! `atomic_fetch_add_nb`), the safe wave helpers built on them, and the
//! range-bodied parFor.

use gmt_core::command::{CAS_RUN_FIXED_BYTES, GET_RUN_FIXED_BYTES, SPAN_BYTES};
use gmt_core::reliable::HEADER_LEN;
use gmt_core::{Cluster, Config, Distribution, GmtError, NodeHandle, SpawnPolicy};
use gmt_net::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A value no operation of these tests ever produces.
const UNTOUCHED: i64 = i64::MIN + 17;

/// Words as the bytes of one put that stores them back to back.
fn words(ws: impl Iterator<Item = i64>) -> Vec<u8> {
    ws.flat_map(i64::to_le_bytes).collect()
}

#[test]
fn a_local_owner_fills_the_slot_before_return() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(64, Distribution::Local);
        ctx.put_value::<i64>(&arr, 1, 40).unwrap();
        let (mut added, mut swapped, mut refused) = (UNTOUCHED, UNTOUCHED, UNTOUCHED);
        unsafe {
            ctx.atomic_fetch_add_nb(&arr, 8, 2, &mut added);
            ctx.atomic_cas_nb(&arr, 8, 42, 7, &mut swapped);
            ctx.atomic_cas_nb(&arr, 8, 42, 9, &mut refused);
        }
        // No wait: the owner is this node.
        assert_eq!((added, swapped, refused), (40, 42, 7));
        assert_eq!(ctx.get_value::<i64>(&arr, 1).unwrap(), 7);
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn a_remote_owner_fills_the_slot_only_after_the_wait() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(64, Distribution::Remote);
        ctx.put_value::<i64>(&arr, 1, 40).unwrap();
        let (mut added, mut swapped) = (UNTOUCHED, UNTOUCHED);
        unsafe {
            ctx.atomic_fetch_add_nb(&arr, 8, 2, &mut added);
            ctx.atomic_cas_nb(&arr, 16, 0, 5, &mut swapped);
        }
        // Two commands do not fill a command block and this task has not
        // yielded, so neither has left the worker yet.
        assert_eq!((added, swapped), (UNTOUCHED, UNTOUCHED));
        ctx.wait_commands().unwrap();
        assert_eq!((added, swapped), (40, 0));
        assert_eq!(ctx.gather::<i64>(&arr, &[1, 2]).unwrap(), vec![42, 5]);
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn a_thousand_in_flight_from_one_task_land_in_their_own_slots() {
    const N: usize = 1000;
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(N as u64 * 8, Distribution::Partition);
        ctx.put(&arr, 0, &words((0..N as i64).map(|i| i * 3))).unwrap();
        let mut old = vec![UNTOUCHED; N];
        for (i, slot) in old.iter_mut().enumerate() {
            // Safety: `old` outlives the wait and is not read before it.
            unsafe {
                if i % 2 == 0 {
                    ctx.atomic_fetch_add_nb(&arr, i as u64 * 8, 1, slot);
                } else {
                    ctx.atomic_cas_nb(&arr, i as u64 * 8, i as i64 * 3, -1, slot);
                }
            }
        }
        ctx.wait_commands().unwrap();
        let expected_old: Vec<i64> = (0..N as i64).map(|i| i * 3).collect();
        assert_eq!(old, expected_old);
        let all: Vec<u64> = (0..N as u64).collect();
        let now = ctx.gather::<i64>(&arr, &all).unwrap();
        let expected_now: Vec<i64> =
            (0..N as i64).map(|i| if i % 2 == 0 { i * 3 + 1 } else { -1 }).collect();
        assert_eq!(now, expected_now);
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn two_cas_on_one_word_in_one_wave_have_exactly_one_winner() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        for dist in [Distribution::Local, Distribution::Remote] {
            let arr = ctx.alloc(64, dist);
            let old = ctx.atomic_cas_wave(&arr, &[3, 5, 3, 3], 0, 9).unwrap();
            assert_eq!(old.iter().filter(|&&o| o == 0).count(), 2, "{dist:?}: {old:?}");
            assert_eq!(old[1], 0, "the lone word is simply won");
            assert_eq!(old.iter().filter(|&&o| o == 9).count(), 2, "{dist:?}: {old:?}");
            assert_eq!(ctx.gather::<i64>(&arr, &[3, 5, 4]).unwrap(), vec![9, 9, 0]);
            ctx.free(arr);
        }
    });
    cluster.shutdown();
}

/// A node's count of one opcode its helpers executed.
fn executed(node: &NodeHandle, opcode: &str) -> u64 {
    node.metrics_snapshot().counter(&format!("helper.cmd.{opcode}")).unwrap_or(0)
}

/// The old values a wave must return, computed on a host copy of the
/// cells: an element swaps iff its cell holds `expected` when its turn
/// comes.
fn model_wave(cells: &mut [i64], indices: &[u64], expected: i64, new: i64) -> Vec<i64> {
    indices
        .iter()
        .map(|&i| {
            let old = cells[i as usize];
            if old == expected {
                cells[i as usize] = new;
            }
            old
        })
        .collect()
}

#[test]
fn a_wave_sends_each_other_owner_one_cas_and_gets_one_reply() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    // 64 words block-partitioned over 2 nodes: 0..32 here, 32..64 on 1.
    let arr = cluster.node(0).run(|ctx| ctx.alloc(64 * 8, Distribution::Partition));
    let (cas_before, replies_before) =
        (executed(cluster.node(1), "cas"), executed(cluster.node(0), "atomic-reply"));
    let old = cluster.node(0).run(move |ctx| {
        let indices: Vec<u64> = (0..64).chain([40, 3, 63]).collect();
        ctx.atomic_cas_wave(&arr, &indices, 0, 1).unwrap()
    });
    let mut expected = vec![0; 64];
    expected.extend([1, 1, 1]);
    assert_eq!(old, expected);
    assert_eq!(executed(cluster.node(1), "cas") - cas_before, 1, "one run to the other owner");
    assert_eq!(executed(cluster.node(0), "atomic-reply") - replies_before, 1, "one reply back");
    assert_eq!(executed(cluster.node(0), "cas"), 0, "local elements never travel");
    cluster.shutdown();
}

#[test]
fn a_wave_bigger_than_a_buffer_splits_into_runs_and_keeps_request_order() {
    const WORDS: u64 = 2000;
    const ELEMENTS: u64 = 2500;
    let config = Config::small();
    let cap = ((config.buffer_size - HEADER_LEN - CAS_RUN_FIXED_BYTES) / 8) as u64;
    let cluster = Cluster::start(2, config).unwrap();
    let arr = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(WORDS * 8, Distribution::Remote);
        ctx.put(&arr, 0, &words((0..WORDS as i64).map(|i| i % 7))).unwrap();
        arr
    });
    // Scrambled, with repeats: every word at least once, some twice.
    let indices: Vec<u64> = (0..ELEMENTS).map(|k| k * 7919 % WORDS).collect();
    let cas_before = executed(cluster.node(1), "cas");
    let wave = indices.clone();
    let (old, now) = cluster.node(0).run(move |ctx| {
        let old = ctx.atomic_cas_wave(&arr, &wave, 3, -3).unwrap();
        let all: Vec<u64> = (0..WORDS).collect();
        (old, ctx.gather::<i64>(&arr, &all).unwrap())
    });
    let mut cells: Vec<i64> = (0..WORDS as i64).map(|i| i % 7).collect();
    assert_eq!(old, model_wave(&mut cells, &indices, 3, -3));
    assert_eq!(now, cells);
    assert_eq!(executed(cluster.node(1), "cas") - cas_before, ELEMENTS.div_ceil(cap));
    cluster.shutdown();
}

#[test]
fn a_wave_over_a_remote_array_has_no_local_share_to_look_up() {
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        // Block-distributed over nodes 1 and 2; node 0 holds nothing.
        let arr = ctx.alloc(16 * 8, Distribution::Remote);
        let indices = [15, 0, 7, 8, 15, 0, 3];
        let old = ctx.atomic_cas_wave(&arr, &indices, 0, 5).unwrap();
        assert_eq!(old, model_wave(&mut [0; 16], &indices, 0, 5));
        let now = ctx.gather::<i64>(&arr, &[0, 3, 7, 8, 15, 1]).unwrap();
        assert_eq!(now, vec![5, 5, 5, 5, 5, 0]);
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn gather_ranges_concatenates_ragged_ranges_across_owners() {
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(300 * 8, Distribution::Partition);
        ctx.put(&arr, 0, &words((0..300).map(|i| i * i))).unwrap();
        let mut out = vec![1u64, 2, 3];
        ctx.gather_ranges(&arr, &[(290, 10), (5, 0), (95, 110), (0, 1)], &mut out).unwrap();
        let expected: Vec<u64> =
            (290..300).chain(95..205).chain(0..1).map(|i: u64| i * i).collect();
        assert_eq!(out, expected);
        ctx.gather_ranges::<u64>(&arr, &[], &mut out).unwrap();
        assert!(out.is_empty());
        ctx.free(arr);
    });
    cluster.shutdown();
}

/// A deadline abandons a wave whose requests sit behind a link that is
/// down for a while. Its replies, which arrive once the link is back, must
/// not be written (the slots of a safe helper are freed by then); the next
/// wave waits the stragglers out, re-arms delivery and gets its results —
/// the behaviour of `get` and `gather` after an abandon.
#[test]
fn an_abandoned_wave_is_never_written_and_the_next_one_rearms() {
    // The watchdog enforces deadlines at a quarter of the configured one;
    // the 150 ms outage is well under the 1 s death timeout, so the peer
    // is retransmitted to, not declared dead.
    let config = Config { op_deadline_ns: 40_000_000, ..Config::small() };
    let cluster = Cluster::start_sim(2, config).unwrap();
    let arr = cluster.node(0).run(|ctx| ctx.alloc(8 * 8, Distribution::Remote));
    cluster.install_faults(FaultPlan::new(1).flap(0, 1, 0, 150_000_000));
    cluster.node(0).run(move |ctx| {
        let indices: Vec<u64> = (0..8).collect();
        let mut abandoned = vec![UNTOUCHED; 8];
        for (slot, &i) in abandoned.iter_mut().zip(&indices) {
            // Safety: `abandoned` lives to the end of this task, which
            // outlasts every wait below.
            unsafe { ctx.atomic_cas_nb(&arr, i * 8, 0, 7, slot) };
        }
        let first = ctx.wait_commands();
        assert!(
            matches!(first, Err(GmtError::DeadlineExceeded { pending: 8 })),
            "expected the deadline to abandon all eight, got {first:?}"
        );
        // Long enough for the outage to end and the retransmits to land.
        ctx.set_op_deadline(10_000_000_000);
        let old = ctx.atomic_cas_wave(&arr, &indices, 7, 9).unwrap();
        assert_eq!(old, vec![7; 8], "the abandoned swaps did execute at the owner");
        assert_eq!(abandoned, vec![UNTOUCHED; 8], "an abandoned slot was written");
        let mut now = Vec::new();
        ctx.gather_ranges::<i64>(&arr, &[(0, 8)], &mut now).unwrap();
        assert_eq!(now, vec![9; 8]);
    });
    cluster.shutdown();
}

/// When the stragglers can never drain (a silent partition, which nothing
/// detects before the 60 s death timeout) the task is poisoned: the wave
/// helpers refuse within a bounded
/// time, as `gather` does, instead of issuing operations whose replies
/// would be dropped.
#[test]
fn a_poisoned_task_is_refused_by_the_wave_helpers() {
    let config = Config {
        op_deadline_ns: 40_000_000,
        peer_death_timeout_ns: 60_000_000_000,
        ..Config::small()
    };
    let cluster = Cluster::start_sim(2, config).unwrap();
    let arr = cluster.node(0).run(|ctx| ctx.alloc(8 * 8, Distribution::Remote));
    cluster.install_faults(FaultPlan::new(1).drop(0, 1, 1.0).drop(1, 0, 1.0));
    cluster.node(0).run(move |ctx| {
        let first = ctx.atomic_cas_wave(&arr, &[0, 1, 2], 0, 1);
        assert!(matches!(first, Err(GmtError::DeadlineExceeded { pending: 3 })), "{first:?}");
        let cas = ctx.atomic_cas_wave(&arr, &[4], 0, 1);
        assert!(matches!(cas, Err(GmtError::DeadlineExceeded { .. })), "{cas:?}");
        let mut out = vec![5i64];
        let ranges = ctx.gather_ranges(&arr, &[(0, 4)], &mut out);
        assert!(matches!(ranges, Err(GmtError::DeadlineExceeded { .. })), "{ranges:?}");
        assert!(out.is_empty(), "a refused gather hands back no stale elements");
        let gather = ctx.gather::<i64>(&arr, &[0]);
        assert!(matches!(gather, Err(GmtError::DeadlineExceeded { .. })), "{gather:?}");
    });
    // The link kept retrying into the partition and declared nothing.
    assert!(cluster.node(0).dead_peers().is_empty());
    let retransmits = cluster.node(0).metrics_snapshot().counter("reliable.retransmits");
    assert!(retransmits.unwrap_or(0) > 0, "no retransmit into the partition");
    cluster.shutdown();
}

#[test]
fn a_wave_toward_a_killed_peer_fails_and_leaves_its_slots_alone() {
    let cluster = Cluster::start_sim(2, Config::small()).unwrap();
    // 16 words block-partitioned over 2 nodes: 0..8 here, 8..16 on node 1.
    let arr = cluster.node(0).run(|ctx| ctx.alloc(16 * 8, Distribution::Partition));
    cluster.install_faults(FaultPlan::new(1).kill(1));
    cluster.node(0).run(move |ctx| {
        let mut old = [UNTOUCHED; 16];
        for (i, slot) in old.iter_mut().enumerate() {
            // Safety: `old` outlives the wait and is not read before it.
            unsafe {
                if i % 2 == 0 {
                    ctx.atomic_cas_nb(&arr, i as u64 * 8, 0, 3, slot);
                } else {
                    ctx.atomic_fetch_add_nb(&arr, i as u64 * 8, 3, slot);
                }
            }
        }
        let waited = ctx.wait_commands();
        assert!(
            matches!(waited, Err(GmtError::RemoteDead { node: 1, failed_ops: 8 })),
            "{waited:?}"
        );
        assert_eq!(old[..8], [0; 8], "the local half completed");
        assert_eq!(old[8..], [UNTOUCHED; 8], "a dead peer's slot was written");
        // The peer is known dead now: the safe helpers fail fast.
        let cas = ctx.atomic_cas_wave(&arr, &[1, 9], 3, 4);
        assert!(matches!(cas, Err(GmtError::RemoteDead { node: 1, .. })), "{cas:?}");
        let mut out = Vec::new();
        let ranges = ctx.gather_ranges::<i64>(&arr, &[(6, 4)], &mut out);
        assert!(matches!(ranges, Err(GmtError::RemoteDead { node: 1, .. })), "{ranges:?}");
    });
    cluster.shutdown();
}

/// A wave counts as its elements: toward a killed owner it fails with
/// one failed operation per remote element its runs carried, duplicates
/// included, while the local elements were swapped.
#[test]
fn a_wave_toward_a_killed_owner_fails_as_many_operations_as_it_sent_there() {
    let cluster = Cluster::start_sim(2, Config::small()).unwrap();
    // 16 words block-partitioned over 2 nodes: 0..8 here, 8..16 on node 1.
    let arr = cluster.node(0).run(|ctx| ctx.alloc(16 * 8, Distribution::Partition));
    cluster.install_faults(FaultPlan::new(1).kill(1));
    cluster.node(0).run(move |ctx| {
        let waved = ctx.atomic_cas_wave(&arr, &[1, 9, 9, 12, 3, 15, 8, 1], 0, 4);
        assert!(matches!(waved, Err(GmtError::RemoteDead { node: 1, failed_ops: 5 })), "{waved:?}");
        assert_eq!(ctx.gather::<i64>(&arr, &[1, 3, 0]).unwrap(), vec![4, 4, 0]);
    });
    cluster.shutdown();
}

#[test]
fn a_gather_sends_each_other_owner_runs_of_spans_and_keeps_request_order() {
    const WORDS: u64 = 6000;
    const READS: u64 = 4096;
    let config = Config::small();
    // A run ends where its spans fill a command or its reply a buffer.
    let by_command = (config.buffer_size - HEADER_LEN - GET_RUN_FIXED_BYTES) / SPAN_BYTES;
    let by_reply = config.max_inline_payload() / 8;
    let cap = by_command.min(by_reply) as u64;
    let cluster = Cluster::start(2, config).unwrap();
    // Block-partitioned over 2 nodes: words 0..3000 here, 3000.. on 1.
    let arr = cluster.node(0).run(|ctx| {
        let arr = ctx.alloc(WORDS * 8, Distribution::Partition);
        ctx.put(&arr, 0, &words((0..WORDS as i64).map(|i| i * 11 - 5))).unwrap();
        arr
    });
    // Scrambled, with repeats, over both owners.
    let indices: Vec<u64> = (0..READS).map(|k| k * 7919 % WORDS).collect();
    let remote = indices.iter().filter(|&&i| i >= WORDS / 2).count() as u64;
    assert!(remote > cap, "the wave should need more than one run");
    let (gets_before, replies_before) =
        (executed(cluster.node(1), "get"), executed(cluster.node(0), "get-reply"));
    let wave = indices.clone();
    let got = cluster.node(0).run(move |ctx| ctx.gather::<i64>(&arr, &wave).unwrap());
    let expected: Vec<i64> = indices.iter().map(|&i| i as i64 * 11 - 5).collect();
    assert_eq!(got, expected);
    assert_eq!(executed(cluster.node(1), "get") - gets_before, remote.div_ceil(cap));
    assert_eq!(executed(cluster.node(0), "get-reply") - replies_before, remote.div_ceil(cap));
    assert_eq!(executed(cluster.node(0), "get"), 0, "local words never travel");
    cluster.shutdown();
}

/// A gather counts as its spans: toward a killed owner it fails with one
/// failed operation per span its runs carried there, a range that
/// crosses into the owner's block included, and hands back nothing.
#[test]
fn a_gather_toward_a_killed_owner_fails_as_many_operations_as_spans_it_held() {
    let cluster = Cluster::start_sim(2, Config::small()).unwrap();
    // 16 words block-partitioned over 2 nodes: 0..8 here, 8..16 on node 1.
    let arr = cluster.node(0).run(|ctx| ctx.alloc(16 * 8, Distribution::Partition));
    cluster.install_faults(FaultPlan::new(1).kill(1));
    cluster.node(0).run(move |ctx| {
        let mut out = vec![1i64];
        let ranges = [(1, 1), (9, 2), (6, 4), (12, 1), (3, 1), (9, 0)];
        let gathered = ctx.gather_ranges(&arr, &ranges, &mut out);
        assert!(
            matches!(gathered, Err(GmtError::RemoteDead { node: 1, failed_ops: 3 })),
            "{gathered:?}"
        );
        assert!(out.is_empty(), "a failed gather hands back no elements");
        let gathered = ctx.gather::<i64>(&arr, &[1, 9, 9, 12, 3, 15]);
        assert!(
            matches!(gathered, Err(GmtError::RemoteDead { node: 1, failed_ops: 4 })),
            "{gathered:?}"
        );
        assert_eq!(ctx.gather::<i64>(&arr, &[7, 0]).unwrap(), vec![0, 0]);
    });
    cluster.shutdown();
}

#[test]
fn a_gather_over_a_remote_array_has_no_local_share_to_look_up() {
    let cluster = Cluster::start(3, Config::small()).unwrap();
    cluster.node(0).run(|ctx| {
        // Block-distributed over nodes 1 and 2; node 0 holds nothing.
        let arr = ctx.alloc(16 * 8, Distribution::Remote);
        ctx.put(&arr, 0, &words((0..16).map(|i| 100 + i))).unwrap();
        let now = ctx.gather::<i64>(&arr, &[15, 0, 7, 8, 15, 1]).unwrap();
        assert_eq!(now, vec![115, 100, 107, 108, 115, 101]);
        let mut out = Vec::new();
        ctx.gather_ranges::<u32>(&arr, &[(13, 6), (0, 0), (30, 2)], &mut out).unwrap();
        assert_eq!(out, vec![0, 107, 0, 108, 0, 109, 115, 0]);
        ctx.free(arr);
    });
    cluster.shutdown();
}

#[test]
fn range_bodies_cover_every_iteration_once_when_chunks_do_not_divide() {
    const ITERS: u64 = 1003;
    const CHUNK: u32 = 16;
    let cluster = Cluster::start(3, Config::small()).unwrap();
    let seen: Arc<Vec<AtomicU64>> = Arc::new((0..ITERS).map(|_| AtomicU64::new(0)).collect());
    let tasks = Arc::new(AtomicU64::new(0));
    let (seen2, tasks2) = (Arc::clone(&seen), Arc::clone(&tasks));
    cluster.node(0).run(move |ctx| {
        ctx.parfor_range(SpawnPolicy::Partition, ITERS, CHUNK, move |_, range| {
            assert!(range.start < range.end && range.end - range.start <= CHUNK as u64);
            tasks2.fetch_add(1, Ordering::Relaxed);
            for i in range {
                seen2[i as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
    });
    assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    // One call per claimed chunk, not per iteration: each node's share of
    // 335 or 333 iterations peels into 21 chunks.
    assert_eq!(tasks.load(Ordering::Relaxed), 63);
    let spawned: u64 = (0..3)
        .map(|n| cluster.node(n).metrics_snapshot().counter("worker.tasks_spawned").unwrap())
        .sum();
    assert_eq!(spawned, 63 + 1, "one task per chunk plus the root");
    cluster.shutdown();
}

#[test]
fn a_panicking_range_body_still_books_its_whole_chunk() {
    let cluster = Cluster::start(2, Config::small()).unwrap();
    let done = Arc::new(AtomicU64::new(0));
    let done2 = Arc::clone(&done);
    // Returning at all is the point: an unbooked chunk would leave the
    // parent waiting on its block forever.
    cluster.node(0).run(move |ctx| {
        ctx.parfor_range(SpawnPolicy::Partition, 100, 8, move |_, range| {
            if range.contains(&20) {
                panic!("chunk {range:?} goes boom");
            }
            done2.fetch_add(range.end - range.start, Ordering::Relaxed);
        });
    });
    // 50 iterations per node in chunks of 8: 16..24 is the one that died.
    assert_eq!(done.load(Ordering::Relaxed), 92);
    let panicked: u64 = (0..2)
        .map(|n| cluster.node(n).metrics_snapshot().counter("worker.tasks_panicked").unwrap())
        .sum();
    assert_eq!(panicked, 1);
    cluster.shutdown();
}
