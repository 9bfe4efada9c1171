//! Quickstart: the GMT API in five minutes.
//!
//! Starts a small in-process "cluster", allocates global arrays with
//! different distributions, and exercises every primitive of the paper's
//! Table I: put/get (blocking and non-blocking), typed values, atomics,
//! waitCommands and parFor (per iteration and per chunk).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gmt::core::{Cluster, Config, Distribution, SpawnPolicy};

fn main() {
    // Two GMT node instances inside this process, each with workers,
    // helpers and a communication server (paper Figure 1).
    let cluster = Cluster::start(2, Config::small()).expect("start cluster");

    let histogram = cluster.node(0).run(|ctx| {
        println!("running as task zero on node {} of {}", ctx.node_id(), ctx.nodes());

        // -- PGAS allocation (gmt_alloc) --------------------------------
        // A block-distributed array of 1024 u64 counters...
        let counters = ctx.alloc(1024 * 8, Distribution::Partition);
        // ...and a node-local scratch area.
        let local = ctx.alloc(4096, Distribution::Local);

        // -- Data movement (gmt_put / gmt_get) --------------------------
        ctx.put(&local, 0, b"hello global memory").unwrap();
        let mut readback = [0u8; 19];
        ctx.get(&local, 0, &mut readback).unwrap();
        assert_eq!(&readback, b"hello global memory");

        // Non-blocking flavors: issue many, then wait once.
        for i in 0..1024u64 {
            ctx.put_value_nb::<u64>(&counters, i, 0);
        }
        ctx.wait_commands().unwrap(); // gmt_waitCommands

        // -- Loop parallelism (gmt_parFor) ------------------------------
        // 4096 increments spread over every node of the cluster; each
        // task owns 8 iterations (chunk_size).
        ctx.parfor(SpawnPolicy::Partition, 4096, 8, move |ctx, i| {
            let slot = (i * 31) % 1024; // irregular access pattern
                                        // -- Fine-grained synchronization (gmt_atomicAdd) ------------
            ctx.atomic_add(&counters, slot * 8, 1).unwrap();
        });

        // -- Verify with a parallel reduction ----------------------------
        // The range form hands a task its whole chunk, so it can keep all
        // 32 irregular reads in flight behind one wait instead of blocking
        // on each (31 is coprime to 1024: every slot is read exactly once).
        let total = ctx.alloc(8, Distribution::Local);
        ctx.parfor_range(SpawnPolicy::Partition, 1024, 32, move |ctx, chunk| {
            let slots: Vec<u64> = chunk.map(|i| (i * 31) % 1024).collect();
            let values = ctx.gather::<u64>(&counters, &slots).unwrap();
            ctx.atomic_add(&total, 0, values.iter().sum::<u64>() as i64).unwrap();
        });
        let sum = ctx.atomic_add(&total, 0, 0).unwrap();
        assert_eq!(sum, 4096);

        // A tiny histogram of counter values to show irregular spread.
        let mut hist = [0u32; 8];
        for i in 0..1024 {
            let v = ctx.get_value::<u64>(&counters, i).unwrap() as usize;
            hist[v.min(7)] += 1;
        }

        ctx.free(counters);
        ctx.free(local);
        ctx.free(total);
        hist
    });

    println!("counter-value histogram: {histogram:?}");
    println!("quickstart OK");
    cluster.shutdown();
}
