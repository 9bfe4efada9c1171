//! Simulated cluster interconnect for the GMT reproduction.
//!
//! The paper runs GMT on *Olympus*, a 604-node QDR-InfiniBand cluster, with
//! MPI as the message-passing substrate. This crate replaces that hardware
//! with an in-process fabric:
//!
//! * [`model`] — an explicit network **cost model**
//!   (`time(msg) = per_message_overhead + bytes / bandwidth (+ wire latency)`)
//!   calibrated against the numbers the paper reports for Olympus
//!   (§IV-B, Table II, Figures 2/5/6). The same model parameterizes both the
//!   real transport below and the discrete-event simulator in `gmt-sim`.
//! * [`fabric`] — the sim leaf: MPI-like messaging between N in-process
//!   "nodes", zero-copy, with optional delivery throttling that enforces
//!   the cost model in wall-clock time.
//! * [`stats`] — per-node traffic counters used by the benchmark harness to
//!   compute effective bandwidth in *modeled* time, independent of host
//!   scheduling noise.
//! * [`transport`] — the object-safe [`Transport`] trait, sized to the
//!   calls the runtime makes; everything above the wire is written
//!   against it. Also the one way into a multi-process mesh, [`connect`].
//! * [`framed`] — its one implementation, the transport core: inbox,
//!   frame format, fault shim, loss evidence, receive-buffer pool and
//!   shutdown gate, generic over a leaf that only moves frames.
//! * [`tcp`] — the multi-process leaf: per-peer `TcpStream`s with one
//!   blocking reader per link, an in-process loopback mesh for CI, and
//!   the rendezvous protocol `gmt-launch` boots clusters with.
//! * [`shm`] — the same-host leaf: lock-free SPSC byte rings in one
//!   shared-memory segment — zero syscalls per frame, where TCP loopback
//!   pays two.
//!
//! # Calibration note
//!
//! Two of the paper's measurements pin the model down:
//! 128-byte MPI messages reach 72.26 MB/s aggregate and 64 KiB messages
//! reach 2815 MB/s. Solving `o + s/B` for both points gives
//! `o ≈ 1.73 µs` and `B ≈ 3.04 GB/s`; the same parameters then *predict*
//! 9.2 MB/s for 16-byte messages, matching the paper's reported 9.63 MB/s.
//! See [`model::NetworkModel::olympus`].

pub mod fabric;
pub mod fault;
pub mod framed;
pub mod model;
pub mod payload;
pub mod shm;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use fabric::{DeliveryMode, Endpoint, Fabric, NetError, Packet, Tag};
pub use fault::{seed_from_env, FaultPlan, FlapWindow};
pub use model::NetworkModel;
pub use payload::{BufRelease, Payload};
pub use shm::{shm_mesh, shm_mesh_with, ShmTransport};
pub use stats::TrafficStats;
pub use tcp::{loopback_mesh, TcpTransport};
pub use transport::{
    connect, ArrivalHook, Bootstrap, DoneBarrier, DownCause, LinkState, Transport, TransportSelect,
};

/// Identifies a node (an MPI rank in the paper's terms).
pub type NodeId = usize;
