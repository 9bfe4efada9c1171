//! What a runtime thread does when a pass of its main loop found no work.
//!
//! Workers, helpers and the communication server all poll: a pass that
//! moved nothing ends in [`IdleBackoff::wait`], one that moved something
//! in [`IdleBackoff::reset`]. The first idle pass after a busy one — the
//! *idle edge* — runs a hook before backing off: that is where workers
//! and helpers flush what they hold ([`CommandSink::flush_idle`]), because
//! "this thread just ran out of work" is a fact the loop observes, not a
//! timeout somebody has to tune. The hook reports whether it is done: a
//! flush that the pacing of sparse blocks held back is retried on every idle
//! pass, and the thread does not start its way to sleep before it left.
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
    /// The idle-edge hook has reported that nothing is left to do.
    settled: bool,
}

impl IdleBackoff {
    /// The pass made progress: the next idle pass is an idle edge again.
    #[inline]
    pub fn reset(&mut self) {
        self.idle = 0;
        self.settled = false;
    }

    /// The pass made no progress. Runs `on_idle_edge` if the previous pass
    /// was busy, and again on every idle pass until it returns `true`:
    /// the flush it tries may be paced
    /// ([`CommandSink::flush_idle`](crate::aggregation::CommandSink::flush_idle)),
    /// and a thread that still owes a flush only yields — the flush falls
    /// due sooner than a sleep would return. Once settled the pass yields
    /// or, after [`YIELD_PASSES`] settled idle passes in a row, sleeps
    /// [`IDLE_SLEEP`] so an idle node does not burn a core.
    pub fn wait(&mut self, on_idle_edge: impl FnOnce() -> bool) {
        if !self.settled {
            self.settled = on_idle_edge();
            if !self.settled {
                std::thread::yield_now();
                return;
            }
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
            backoff.wait(|| {
                edges += 1;
                true
            });
        }
        assert_eq!(edges, 1, "consecutive idle passes share one edge");
        backoff.reset();
        backoff.wait(|| {
            edges += 1;
            true
        });
        assert_eq!(edges, 2, "progress re-arms the edge");
    }

    #[test]
    fn unsettled_hook_is_retried_and_does_not_count_toward_the_sleep() {
        let mut backoff = IdleBackoff::default();
        let mut calls = 0;
        for _ in 0..4 * YIELD_PASSES {
            backoff.wait(|| {
                calls += 1;
                false
            });
        }
        assert_eq!(calls, 4 * YIELD_PASSES, "retried on every idle pass");
        assert_eq!(backoff.idle, 0, "a thread that owes a flush keeps polling");
        backoff.wait(|| {
            calls += 1;
            true
        });
        backoff.wait(|| unreachable!("settled: no further retry"));
    }
}
