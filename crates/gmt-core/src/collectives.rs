//! Global synchronization built on the GMT primitives.
//!
//! The paper's API is deliberately lean: "GMT provides atomic operations
//! such as gmt_atomicCAS() or gmt_atomicAdd(), enabling implementation of
//! global synchronization constructs" (§III-E). This module is that
//! sentence made concrete — a counter and a barrier composed from the
//! Table I atomics, with no new runtime machinery.
//!
//! # Failure semantics on a degraded cluster
//!
//! Both return `Result` instead of panicking or hanging:
//!
//! - [`GlobalCounter`] operations surface the owner's death as
//!   `Err(GmtError::RemoteDead)`.
//! - [`GlobalBarrier`] pins the membership epoch at creation: *any*
//!   confirmed death after that fails every subsequent (and every
//!   spinning) `wait` on every survivor with `Err(GmtError::RemoteDead)`
//!   — a barrier missing a participant can never complete, so failing
//!   fast everywhere is the only non-hanging semantics. Survivors
//!   re-form by creating a fresh barrier over the remaining parties (the
//!   new barrier pins the *new* epoch, so prior deaths don't poison it).

use crate::api::TaskCtx;
use crate::error::GmtError;
use crate::handle::{Distribution, GmtArray};

/// The error a collective reports when the membership epoch moved under
/// it: blames the first confirmed-dead node (0 failed operations — the
/// collective aborted before issuing against the dead peer).
fn epoch_moved(ctx: &TaskCtx<'_>) -> GmtError {
    let node = ctx.dead_nodes().first().copied().unwrap_or(0);
    GmtError::RemoteDead { node, failed_ops: 0 }
}

/// A global 64-bit counter (one word of global memory).
#[derive(Debug, Clone, Copy)]
pub struct GlobalCounter {
    word: GmtArray,
}

impl GlobalCounter {
    /// Allocates a counter initialized to zero.
    pub fn new(ctx: &TaskCtx<'_>, dist: Distribution) -> Self {
        GlobalCounter { word: ctx.alloc(8, dist) }
    }

    /// Atomically adds `delta`, returning the previous value, or
    /// `Err(GmtError::RemoteDead)` if the counter's owner is dead.
    pub fn add(&self, ctx: &TaskCtx<'_>, delta: i64) -> Result<i64, GmtError> {
        ctx.atomic_add(&self.word, 0, delta)
    }

    /// Current value (a racy read, like any concurrent counter).
    pub fn get(&self, ctx: &TaskCtx<'_>) -> Result<i64, GmtError> {
        ctx.atomic_add(&self.word, 0, 0)
    }

    /// Resets to `value` (callers must ensure quiescence).
    pub fn set(&self, ctx: &TaskCtx<'_>, value: i64) -> Result<(), GmtError> {
        ctx.put_value::<i64>(&self.word, 0, value)
    }

    pub fn free(self, ctx: &TaskCtx<'_>) {
        ctx.free(self.word);
    }
}

/// A sense-reversing barrier for a *fixed* number of participating tasks.
///
/// Works across nodes: both words live in global memory and are accessed
/// with atomics. Participants must all call [`GlobalBarrier::wait`] the
/// same number of times.
///
/// The barrier pins the membership epoch at creation. If any node is
/// confirmed dead afterwards, every `wait` — including ones already
/// spinning — returns `Err(GmtError::RemoteDead)` on every survivor
/// instead of hanging on an arrival that can never come. Survivors
/// re-form by constructing a new barrier with the surviving party count.
#[derive(Debug, Clone, Copy)]
pub struct GlobalBarrier {
    /// word 0: arrival count; word 1: generation.
    state: GmtArray,
    parties: i64,
    /// Membership epoch at creation; any bump fails the barrier.
    epoch: u64,
}

impl GlobalBarrier {
    pub fn new(ctx: &TaskCtx<'_>, parties: u64) -> Self {
        assert!(parties > 0);
        GlobalBarrier {
            state: ctx.alloc(16, Distribution::Partition),
            parties: parties as i64,
            epoch: ctx.membership_epoch(),
        }
    }

    fn check_epoch(&self, ctx: &TaskCtx<'_>) -> Result<(), GmtError> {
        if ctx.membership_epoch() != self.epoch {
            return Err(epoch_moved(ctx));
        }
        Ok(())
    }

    /// Blocks the calling task until all `parties` tasks have arrived, or
    /// until a node death makes that impossible (then `Err`, never a
    /// hang — on *every* survivor, since the epoch bump is disseminated
    /// cluster-wide).
    pub fn wait(&self, ctx: &TaskCtx<'_>) -> Result<(), GmtError> {
        self.check_epoch(ctx)?;
        let generation = ctx.atomic_add(&self.state, 8, 0)?;
        let arrived = ctx.atomic_add(&self.state, 0, 1)? + 1;
        if arrived == self.parties {
            // Last arrival: reset the count, then advance the generation
            // (release order matters: count first).
            ctx.put_value::<i64>(&self.state, 0, 0)?;
            ctx.atomic_add(&self.state, 8, 1)?;
        } else {
            loop {
                self.check_epoch(ctx)?;
                if ctx.atomic_add(&self.state, 8, 0)? != generation {
                    break;
                }
                ctx.yield_now();
            }
        }
        Ok(())
    }

    pub fn free(self, ctx: &TaskCtx<'_>) {
        ctx.free(self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, Config, SpawnPolicy};

    #[test]
    fn counter_accumulates_across_nodes() {
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let v = cluster.node(0).run(|ctx| {
            let c = GlobalCounter::new(ctx, Distribution::Remote);
            ctx.parfor(SpawnPolicy::Partition, 100, 5, move |ctx, _| {
                c.add(ctx, 2).unwrap();
            });
            let v = c.get(ctx).unwrap();
            c.free(ctx);
            v
        });
        cluster.shutdown();
        assert_eq!(v, 200);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        // Each of 8 tasks increments phase-1 counter, waits, then checks
        // that every phase-1 increment is visible before phase 2 starts.
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let violations = cluster.node(0).run(|ctx| {
            let parties = 8u64;
            let bar = GlobalBarrier::new(ctx, parties);
            let c = GlobalCounter::new(ctx, Distribution::Partition);
            let bad = GlobalCounter::new(ctx, Distribution::Local);
            ctx.parfor(SpawnPolicy::Partition, parties, 1, move |ctx, _| {
                c.add(ctx, 1).unwrap();
                bar.wait(ctx).unwrap();
                if c.get(ctx).unwrap() < parties as i64 {
                    bad.add(ctx, 1).unwrap();
                }
            });
            let v = bad.get(ctx).unwrap();
            bar.free(ctx);
            c.free(ctx);
            bad.free(ctx);
            v
        });
        cluster.shutdown();
        assert_eq!(violations, 0);
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let v = cluster.node(0).run(|ctx| {
            let parties = 4u64;
            let bar = GlobalBarrier::new(ctx, parties);
            let c = GlobalCounter::new(ctx, Distribution::Partition);
            ctx.parfor(SpawnPolicy::Partition, parties, 1, move |ctx, _| {
                for _round in 0..3 {
                    c.add(ctx, 1).unwrap();
                    bar.wait(ctx).unwrap();
                }
            });
            let v = c.get(ctx).unwrap();
            bar.free(ctx);
            c.free(ctx);
            v
        });
        cluster.shutdown();
        assert_eq!(v, 12);
    }
}
