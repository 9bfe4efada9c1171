//! What a runtime thread does when a pass of its main loop found no work.
//!
//! Workers, helpers and the communication server all poll: a pass that
//! moved nothing ends in [`IdleBackoff::wait`], one that moved something
//! in [`IdleBackoff::reset`]. The first idle pass after a busy one — the
//! *idle edge* — runs a hook before backing off: that is where workers
//! and helpers flush what they hold ([`CommandSink::flush_idle`]), because
//! "this thread just ran out of work" is a fact the loop observes, not a
//! timeout somebody has to tune. The flush always finishes in that one
//! call, so the hook runs once per edge.
//!
//! [`CommandSink::flush_idle`]: crate::aggregation::CommandSink::flush_idle

use std::time::Duration;

/// Idle passes that only yield the CPU before the thread starts sleeping.
const YIELD_PASSES: u32 = 64;

/// Sleep per idle pass once the yields are used up.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// Counts consecutive idle passes of one polling loop.
#[derive(Default)]
pub struct IdleBackoff {
    idle: u32,
}

impl IdleBackoff {
    /// The pass made progress: the next idle pass is an idle edge again.
    #[inline]
    pub fn reset(&mut self) {
        self.idle = 0;
    }

    /// The pass made no progress. Runs `on_idle_edge` if the previous pass
    /// was busy, then yields or, after [`YIELD_PASSES`] idle passes in a
    /// row, sleeps [`IDLE_SLEEP`] so an idle node does not burn a core.
    pub fn wait(&mut self, on_idle_edge: impl FnOnce()) {
        if self.idle == 0 {
            on_idle_edge();
        }
        self.idle = self.idle.saturating_add(1);
        if self.idle < YIELD_PASSES {
            std::thread::yield_now();
        } else {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hook_runs_on_the_idle_edge_only() {
        let mut backoff = IdleBackoff::default();
        let mut edges = 0;
        for _ in 0..3 {
            backoff.wait(|| edges += 1);
        }
        assert_eq!(edges, 1, "consecutive idle passes share one edge");
        backoff.reset();
        backoff.wait(|| edges += 1);
        assert_eq!(edges, 2, "progress re-arms the edge");
    }
}
