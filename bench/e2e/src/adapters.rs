//! Group B, tier I: ceilings that call public functions of single
//! layers. Each layer is reached through exactly one adapter function
//! here, so when a refactor moves a layer's functions there is one place
//! to follow it — and until someone does, `run.sh` builds without the
//! `internal-ceilings` feature and reports these metrics as absent.

use crate::ceilings::Bench;
use gmt_context::{Coroutine, Resume};
use gmt_core::aggregation::{AggShared, CommandSink};
use gmt_core::command::{BatchStage, Command, CommandIter};
use gmt_core::memory::Segment;
use gmt_net::{loopback_mesh, shm_mesh, DeliveryMode, Fabric, Payload, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const BUFFER_BYTES: usize = 65_536;

pub fn internal_ceilings(bench: &mut Bench) -> Result<(), String> {
    context_switch(bench)?;
    command_codec(bench);
    aggregation_emit(bench);
    memory_kernels(bench);
    let fabric = Fabric::new(2, DeliveryMode::Instant);
    let sim: Vec<Arc<dyn Transport>> =
        (0..2).map(|n| Arc::new(fabric.endpoint(n)) as Arc<dyn Transport>).collect();
    transport_pair(bench, NET_SIM, &sim);
    drop(sim);
    drop(fabric);
    let tcp = loopback_mesh(2).map_err(|e| format!("building the TCP loopback mesh: {e}"))?;
    transport_pair(bench, NET_TCP, &as_transports(tcp));
    let shm = shm_mesh(2).map_err(|e| format!("building the shared-memory ring mesh: {e}"))?;
    transport_pair(bench, NET_SHM, &as_transports(shm));
    Ok(())
}

fn as_transports<T: Transport + 'static>(mesh: Vec<T>) -> Vec<Arc<dyn Transport>> {
    mesh.into_iter().map(|t| Arc::new(t) as Arc<dyn Transport>).collect()
}

/// `gmt-context`: one user-level context switch (half a resume/yield pair).
fn context_switch(bench: &mut Bench) -> Result<(), String> {
    const RESUMES: u64 = 16_384;
    let mut co: Coroutine<()> = Coroutine::new(64 * 1024, |y| loop {
        y.yield_now();
    })
    .map_err(|e| format!("allocating a coroutine stack: {e:?}"))?;
    let ns = bench.ns_per_unit("coroutine_switch", || {
        for _ in 0..RESUMES {
            assert_eq!(std::hint::black_box(co.resume()), Resume::Yielded);
        }
        2 * RESUMES
    });
    bench.report("context.ceil.switch_ns", ns);
    Ok(())
}

/// The request mix of the workloads: small puts and gets, atomics, and
/// combined adds carrying four tokens.
fn mixed_requests() -> [Command<'static>; 5] {
    static DATA: [u8; 8] = [7; 8];
    static TOKENS: [u8; 32] = [9; 32];
    [
        Command::Put { token: 1, array: 3, offset: 64, data: &DATA },
        Command::Get { token: 2, array: 3, offset: 128, len: 8, dest: 0x1000 },
        Command::Add { token: 3, array: 4, offset: 8, delta: 1, dest: 0 },
        Command::Cas { token: 4, array: 4, offset: 16, expected: -1, new: 5, dest: 0x2000 },
        Command::AddN { array: 4, offset: 24, delta: 6, tokens: &TOKENS },
    ]
}

/// Encodes the request mix until one aggregation buffer is full; returns
/// the number of commands in it.
fn fill_buffer(out: &mut Vec<u8>) -> u64 {
    out.clear();
    let mut n = 0;
    for cmd in mixed_requests().iter().cycle() {
        if out.len() + cmd.encoded_len() > BUFFER_BYTES {
            break;
        }
        cmd.encode(out);
        n += 1;
    }
    n
}

/// `command`: encode, and decode into the batched datapath's staging.
fn command_codec(bench: &mut Bench) {
    let mut buf = Vec::with_capacity(BUFFER_BYTES);
    let ns = bench.ns_per_unit("command_encode", || fill_buffer(std::hint::black_box(&mut buf)));
    bench.report("command.ceil.encode_ns_per_cmd", ns);

    let mut stage = BatchStage::new();
    let ns = bench.ns_per_unit("command_decode_stage", || {
        stage.clear();
        let mut n = 0;
        for cmd in CommandIter::new(&buf) {
            assert!(stage.stage(&cmd, &buf), "the mix is all requests");
            n += 1;
        }
        std::hint::black_box(&stage);
        n
    });
    bench.report("command.ceil.decode_stage_ns_per_cmd", ns);
}

/// `aggregation`: emit small commands through both aggregation levels,
/// popping filled buffers the way the communication server does (which
/// is also what returns buffers to the pool).
fn aggregation_emit(bench: &mut Bench) {
    const COMMANDS: u64 = 16_384;
    let shared = AggShared::new(2, 1, 4, BUFFER_BYTES, 64, u64::MAX / 2, 0, 0, 0);
    let mut sink = CommandSink::new(Arc::clone(&shared), 0);
    let drain = |shared: &AggShared| while shared.channel(0).pop_filled().is_some() {};
    let data = [7u8; 8];
    let ns = bench.ns_per_unit("sink_emit_pump", || {
        for i in 0..COMMANDS {
            sink.emit(1, &Command::Put { token: i, array: 3, offset: 8 * i, data: &data });
            if i % 64 == 0 {
                sink.pump();
                drain(&shared);
            }
        }
        sink.flush_block(1);
        while shared.queue(1).queued_bytes() > 0 {
            sink.pump();
            drain(&shared);
        }
        drain(&shared);
        COMMANDS
    });
    bench.report("aggregation.ceil.emit_ns_per_cmd", ns);
}

/// `memory`: the helper's vectorized segment kernels.
fn memory_kernels(bench: &mut Bench) {
    const CELLS: u64 = 1 << 16;
    const ADDS: usize = 4096;
    const SLOT: usize = 16 * 1024;
    const SLOTS: usize = 64;
    let segment = Segment::new((CELLS * 8) as usize);
    // Sorted with repeats, as the helper's bucketing hands a run over:
    // three quarters of the adds on 16 cells.
    let mut rng = crate::gen::Rng::new(1, "add-batch", 0);
    let mut offsets: Vec<u64> = (0..ADDS)
        .map(|i| if i % 4 == 0 { rng.below(CELLS) * 8 } else { rng.below(16) * 8 })
        .collect();
    offsets.sort_unstable();
    let deltas = vec![1i64; ADDS];
    let ns = bench.ns_per_unit("atomic_add_batch", || {
        std::hint::black_box(segment.atomic_add_batch(&offsets, &deltas));
        ADDS as u64
    });
    bench.report("memory.ceil.add_batch_ns_per_op", ns);

    let segment = Segment::new(SLOT * SLOTS);
    let src = vec![5u8; SLOT];
    let mut dst = vec![0u8; SLOT * SLOTS];
    let ns_per_byte = bench.ns_per_unit("write_gather_batch", || {
        segment.write_batch((0..SLOTS).map(|s| (s * SLOT, &src[..])));
        segment.gather_batch(dst.chunks_mut(SLOT).enumerate().map(|(s, d)| (s * SLOT, d)));
        std::hint::black_box(&dst);
        (2 * SLOT * SLOTS) as u64
    });
    bench.report("memory.ceil.copy_gbps", 1.0 / ns_per_byte);
}

struct NetNames {
    frame_metric: &'static str,
    frame_span: &'static str,
    rtt_metric: &'static str,
    rtt_span: &'static str,
}

const NET_SIM: NetNames = NetNames {
    frame_metric: "net.ceil.sim_frame_us",
    frame_span: "sim_frame_stream",
    rtt_metric: "net.ceil.sim_rtt_us",
    rtt_span: "sim_ping_pong",
};
const NET_TCP: NetNames = NetNames {
    frame_metric: "net.ceil.tcp_frame_us",
    frame_span: "tcp_frame_stream",
    rtt_metric: "net.ceil.tcp_rtt_us",
    rtt_span: "tcp_ping_pong",
};
const NET_SHM: NetNames = NetNames {
    frame_metric: "net.ceil.shm_frame_us",
    frame_span: "shm_frame_stream",
    rtt_metric: "net.ceil.shm_rtt_us",
    rtt_span: "shm_ping_pong",
};

/// `gmt-net`: one transport backend between two threads. Node 1 counts
/// what it receives and echoes small frames; node 0 streams 64 KiB
/// frames (cost per frame) and then plays 64-byte ping-pong (round trip).
fn transport_pair(bench: &mut Bench, names: NetNames, pair: &[Arc<dyn Transport>]) {
    const FRAMES_PER_BATCH: u64 = 8;
    const PINGS_PER_BATCH: u64 = 64;
    const PING_BYTES: usize = 64;
    let (near, far) = (&pair[0], &pair[1]);
    let stop = AtomicBool::new(false);
    let received = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let Some(packet) = far.try_recv() else {
                    std::thread::yield_now();
                    continue;
                };
                if packet.payload.len() == PING_BYTES {
                    far.send(0, 0, packet.payload).expect("echoing a ping");
                }
                received.fetch_add(1, Ordering::Release);
            }
        });

        let ns = bench.ns_per_unit_prepared(
            names.frame_span,
            || (0..FRAMES_PER_BATCH).map(|_| vec![0u8; BUFFER_BYTES]).collect::<Vec<_>>(),
            |frames| {
                let target = received.load(Ordering::Acquire) + FRAMES_PER_BATCH;
                for frame in frames {
                    near.send(1, 0, Payload::from(frame)).expect("streaming a frame");
                }
                while received.load(Ordering::Acquire) < target {
                    std::thread::yield_now();
                }
                FRAMES_PER_BATCH
            },
        );
        bench.report(names.frame_metric, ns / 1e3);

        let ns = bench.ns_per_unit(names.rtt_span, || {
            for _ in 0..PINGS_PER_BATCH {
                near.send(1, 0, Payload::from(vec![1u8; PING_BYTES])).expect("sending a ping");
                while near.try_recv().is_none() {
                    std::thread::yield_now();
                }
            }
            PINGS_PER_BATCH
        });
        bench.report(names.rtt_metric, ns / 1e3);
        stop.store(true, Ordering::Release);
    });
    for t in pair {
        t.shutdown();
    }
}
