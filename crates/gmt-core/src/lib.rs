//! # gmt-core — the GMT runtime
//!
//! Rust reproduction of **GMT (Global Memory and Threading)**, the runtime
//! library of *"Scaling Irregular Applications through Data Aggregation
//! and Software Multithreading"* (Morari et al., IPDPS 2014).
//!
//! GMT couples three mechanisms to make fine-grained, unpredictable
//! (irregular) access patterns scale on commodity clusters:
//!
//! 1. a **PGAS data model** — global arrays allocated with a distribution
//!    policy and accessed by offset ([`handle`], [`memory`], [`api`]);
//! 2. **fine-grained software multithreading** — thousands of coroutine
//!    tasks per worker thread hide remote latency ([`task`], `worker`,
//!    `gmt-context`);
//! 3. **multi-level message aggregation** — commands are batched into
//!    per-destination 64 KiB buffers before hitting the network
//!    ([`command`], [`aggregation`], `commserver`).
//!
//! Each node runs specialized threads: *workers* execute tasks, *helpers*
//! serve the global address space and generate replies, and one
//! *communication server* owns the network endpoint (§IV-A, Figure 1).
//!
//! ## Example
//!
//! ```
//! use gmt_core::{Cluster, Config, Distribution, SpawnPolicy};
//!
//! let cluster = Cluster::start(2, Config::small()).unwrap();
//! let sum = cluster.node(0).run(|ctx| {
//!     // 128 u64 counters, block-distributed over both nodes.
//!     let arr = ctx.alloc(128 * 8, Distribution::Partition);
//!     // Parallel loop over all elements, 8 iterations per task,
//!     // tasks spread across the cluster.
//!     ctx.parfor(SpawnPolicy::Partition, 128, 8, move |ctx, i| {
//!         ctx.put_value::<u64>(&arr, i, i).unwrap();
//!     });
//!     let mut sum = 0;
//!     for i in 0..128 {
//!         sum += ctx.get_value::<u64>(&arr, i).unwrap();
//!     }
//!     ctx.free(arr);
//!     sum
//! });
//! assert_eq!(sum, 127 * 128 / 2);
//! cluster.shutdown();
//! ```

pub mod aggregation;
pub mod api;
pub mod collectives;
pub mod command;
pub(crate) mod commserver;
pub mod config;
pub mod error;
pub mod handle;
pub(crate) mod helper;
pub(crate) mod idle;
pub mod memory;
pub mod metrics;
pub mod reliable;
pub mod runtime;
pub mod task;
pub(crate) mod tls;
pub mod value;
pub(crate) mod worker;

pub use api::{SpawnPolicy, TaskCtx};
pub use collectives::{GlobalBarrier, GlobalCounter};
pub use config::Config;
pub use error::GmtError;
pub use gmt_metrics::{HistogramSnapshot, MetricsSnapshot};
pub use handle::{Distribution, GmtArray};
pub use metrics::NodeMetrics;
pub use runtime::{Cluster, NodeHandle, NodeRuntime};
pub use value::Scalar;

/// The pluggable transport abstraction (re-exported from `gmt-net`):
/// what [`NodeRuntime`] attaches to and what `GMT_TRANSPORT` selects
/// for [`Cluster::start`].
pub use gmt_net::{Transport, TransportSelect};

/// Identifies a node (re-exported from `gmt-net`).
pub type NodeId = gmt_net::NodeId;
