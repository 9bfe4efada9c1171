//! Runtime error surface.
//!
//! The paper's GMT assumes a lossless MPI fabric and has no failure API at
//! all; here, once the reliability layer confirms a peer dead, operations
//! addressed to it *fail* instead of hanging. Failures
//! surface where the task would otherwise block forever: the blocking data
//! primitives and [`TaskCtx::wait_commands`].
//!
//! [`TaskCtx::wait_commands`]: crate::api::TaskCtx::wait_commands

use crate::NodeId;
use std::fmt;

/// An error surfaced by a GMT primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GmtError {
    /// A peer was declared dead (silent past the death timeout, its link
    /// observed down, or named by a survivor's notice); every operation
    /// addressed to it completes with this error instead of waiting
    /// forever.
    RemoteDead {
        /// The peer that stopped responding.
        node: NodeId,
        /// How many of the waited-on operations failed against it.
        failed_ops: u32,
    },
    /// The task's operation deadline (per-task override or
    /// `Config::op_deadline_ns`) expired while it was parked on remote
    /// completions. The in-flight operations were abandoned: their replies
    /// will be discarded, and the values of any get destinations passed to
    /// them are unspecified until the task re-waits to quiescence.
    DeadlineExceeded {
        /// Operations still in flight when the deadline fired.
        pending: u32,
    },
}

impl fmt::Display for GmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmtError::RemoteDead { node, failed_ops } => {
                write!(f, "node {node} declared dead; {failed_ops} operation(s) failed against it")
            }
            GmtError::DeadlineExceeded { pending } => {
                write!(f, "operation deadline expired with {pending} operation(s) still in flight")
            }
        }
    }
}

impl std::error::Error for GmtError {}
