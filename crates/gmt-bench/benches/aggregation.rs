//! Aggregation-pipeline benchmarks and ablations (DESIGN.md §12), for a
//! developer at a quiet machine: nothing gates on these numbers.
//!
//! * command emit throughput through the two-level pipeline,
//! * pre-aggregation ablation (command blocks of one entry push straight
//!   to the shared queue, like skipping the thread-local level),
//! * aggregation-buffer size sweep (the paper picked 64 KiB, §IV-B),
//! * end-to-end DES ablation: GMT with vs without aggregation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gmt_core::aggregation::{AggShared, CommandSink};
use gmt_core::command::Command;
use gmt_core::reliable::HEADER_LEN;
use gmt_sim::{simulate, MachineParams, OpPattern, Phase};
use std::sync::Arc;

/// Emits `n` small commands, draining the channel queue like the
/// communication server would. Every pipeline here reserves the
/// reliability header at the front of each buffer, as the runtime does.
///
/// The drain must interleave with the emits: aggregation gives up when
/// the fixed buffer pool is empty and retries on a later pump (in the
/// runtime, buffers flow back when the receiving helper drops them; a
/// single-threaded bench has to play that role itself or small-buffer
/// configurations make no forward progress between pumps).
fn pump_commands(shared: &Arc<AggShared>, sink: &mut CommandSink, n: u64) {
    let drain = |shared: &Arc<AggShared>| {
        // Dropping the popped payload releases the buffer to the pool.
        while shared.channel(0).pop_filled().is_some() {}
    };
    for i in 0..n {
        sink.emit(1, &Command::Ack { token: i });
        if i % 16 == 0 {
            drain(shared);
        }
    }
    // Final flush: one aggregation buffer per pump, draining in between
    // (the aggregation timeout is 0 in these benches, so every pump
    // flushes whatever is queued).
    sink.flush_block(1);
    while shared.queue(1).queued_bytes() > 0 {
        sink.pump();
        drain(shared);
    }
    drain(shared);
}

fn bench_emit_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation_emit");
    const N: u64 = 4096;
    g.throughput(Throughput::Elements(N));
    // Normal two-level pipeline (64-entry command blocks).
    g.bench_function("pre_aggregation_on", |b| {
        let shared = AggShared::new(2, 1, 4, 65536, 64, u64::MAX / 2, 0, HEADER_LEN, 0);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        b.iter(|| pump_commands(&shared, &mut sink, N));
    });
    // Ablation: one-entry blocks — every command goes through the shared
    // MPMC queue, i.e. no thread-local pre-aggregation level.
    g.bench_function("pre_aggregation_off", |b| {
        let shared = AggShared::new(2, 1, 4, 65536, 1, u64::MAX / 2, 0, HEADER_LEN, 0);
        let mut sink = CommandSink::new(Arc::clone(&shared), 0);
        b.iter(|| pump_commands(&shared, &mut sink, N));
    });
    g.finish();
}

fn bench_buffer_size_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation_buffer_size");
    const N: u64 = 4096;
    g.throughput(Throughput::Elements(N));
    for &size in &[4096usize, 16384, 65536, 262144] {
        g.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let shared = AggShared::new(2, 1, 4, size, 64, u64::MAX / 2, 0, HEADER_LEN, 0);
            let mut sink = CommandSink::new(Arc::clone(&shared), 0);
            b.iter(|| pump_commands(&shared, &mut sink, N));
        });
    }
    g.finish();
}

fn bench_des_ablation(c: &mut Criterion) {
    // Modeled network time for the same workload with and without
    // aggregation: the DES runs here; the interesting output is the
    // simulated elapsed time (asserted in gmt-sim's tests), with the
    // criterion numbers documenting simulation cost itself.
    let mut g = c.benchmark_group("des_aggregation_ablation");
    g.sample_size(10);
    let phase = Phase::one_sender(512, 32, OpPattern::remote_put(8));
    g.bench_function("gmt_aggregated", |b| {
        b.iter(|| std::hint::black_box(simulate(MachineParams::gmt(), 2, phase, 1)))
    });
    g.bench_function("gmt_no_aggregation", |b| {
        b.iter(|| std::hint::black_box(simulate(MachineParams::gmt_no_aggregation(), 2, phase, 1)))
    });
    g.finish();
}

criterion_group!(benches, bench_emit_throughput, bench_buffer_size_sweep, bench_des_ablation);
criterion_main!(benches);
