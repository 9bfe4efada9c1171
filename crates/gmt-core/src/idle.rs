//! What a runtime thread does when a pass of its main loop found no work:
//! it sleeps until somebody hands it some.
//!
//! Each worker, helper and communication server owns a [`Sleeper`]. A
//! pass that moved nothing ends in [`Sleeper::sleep`]: the thread raises
//! its flag, issues a `SeqCst` fence, rechecks its work sources, and only
//! then parks (`std::thread::park`, futex-backed). A producer makes its
//! work visible first and then calls [`Sleeper::wake`] (or
//! [`SleeperSet::wake_all`]): a fence, a load of the flag, and an
//! `unpark` only if the flag was up. The two fences order "flag up, then
//! look" against "publish, then look at the flag": either the sleeper's
//! recheck sees the work, or the producer sees the flag and its `unpark`
//! leaves a token that makes the `park` return at once. No wakeup is
//! lost (`tests::no_wakeup_is_lost` hammers exactly this).
//!
//! Producers wake at batch boundaries, not per item: once per processed
//! buffer, once per sweep that delivered something, once per idle edge.
//! A wake costs a fence and a load when nobody sleeps, so a loaded path
//! pays that per batch and no syscall at all; a per-item wake costs
//! measurably more (see `commserver`'s module docs for who wakes whom).
//!
//! The first idle pass after a busy one — the *idle edge* — runs a hook
//! before sleeping: that is where workers and helpers flush what they
//! hold ([`CommandSink::flush_idle`]), because "this thread just ran out
//! of work" is a fact the loop observes, not a timeout somebody has to
//! tune. [`IdleEdge`] keeps that one bit.
//!
//! [`CommandSink::flush_idle`]: crate::aggregation::CommandSink::flush_idle

use crate::runtime::NodeShared;
use crate::tls;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Wake, Waker};
use std::thread::Thread;
use std::time::Duration;

/// One thread's sleep flag and the handle that unparks it.
#[derive(Default)]
pub struct Sleeper {
    thread: OnceLock<Thread>,
    asleep: AtomicBool,
}

impl Sleeper {
    /// Binds this sleeper to the calling thread, the only one that may
    /// [`sleep`](Self::sleep) on it. Wakes before the binding find no
    /// flag raised and do nothing, which is right: nobody sleeps yet.
    pub fn register(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Parks the calling thread until a [`wake`](Self::wake) or, with a
    /// `timeout`, until it passes — unless `has_work`, asked after the
    /// flag is up, finds work already there. Returns whether the thread
    /// parked. A park may also end spuriously or on a stale token; the
    /// caller's next pass finds out which, so neither matters.
    pub fn sleep(&self, timeout: Option<Duration>, has_work: impl FnOnce() -> bool) -> bool {
        debug_assert!(
            self.thread.get().is_some_and(|t| t.id() == std::thread::current().id()),
            "a sleeper sleeps on the thread it was registered to"
        );
        self.asleep.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let park = !has_work();
        if park {
            match timeout {
                Some(t) => std::thread::park_timeout(t),
                None => std::thread::park(),
            }
        }
        self.asleep.store(false, Ordering::Relaxed);
        park
    }

    /// Whether the thread has raised its flag, by a plain load: a hint
    /// for a producer that looks again on its next pass anyway, and so
    /// need not pay [`wake`](Self::wake)'s fence while nobody sleeps.
    #[inline]
    pub fn is_asleep(&self) -> bool {
        self.asleep.load(Ordering::Relaxed)
    }

    /// Wakes the thread if it sleeps. Call after the work is visible.
    #[inline]
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        self.wake_fenced();
    }

    /// The half of [`wake`](Self::wake) after its fence. The swap lets
    /// one of several concurrent producers do the `unpark`.
    #[inline]
    fn wake_fenced(&self) {
        if self.asleep.load(Ordering::Relaxed) && self.asleep.swap(false, Ordering::Relaxed) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// This sleeper as a [`Waker`], for layers that must not name it: the
    /// transport's arrival hook and the channel pools' return hook.
    pub fn waker(self: &Arc<Self>) -> Waker {
        Waker::from(Arc::new(SleeperWaker(Arc::clone(self))))
    }
}

/// [`Sleeper::wake`] behind the [`Wake`] trait.
struct SleeperWaker(Arc<Sleeper>);

impl Wake for SleeperWaker {
    fn wake(self: Arc<Self>) {
        self.0.wake();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.wake();
    }
}

/// The sleepers of one role (a node's workers, or its helpers): one
/// fence wakes every one that sleeps.
pub struct SleeperSet {
    sleepers: Box<[Arc<Sleeper>]>,
}

impl SleeperSet {
    pub fn new(n: usize) -> Self {
        SleeperSet { sleepers: (0..n).map(|_| Arc::default()).collect() }
    }

    /// The sleeper of the role's `i`-th thread.
    pub fn get(&self, i: usize) -> &Arc<Sleeper> {
        &self.sleepers[i]
    }

    /// Wakes every sleeping thread of the role. Call after the work is
    /// visible.
    #[inline]
    pub fn wake_all(&self) {
        fence(Ordering::SeqCst);
        for s in self.sleepers.iter() {
            s.wake_fenced();
        }
    }
}

/// The idle-edge bit of a main loop: a pass that made progress arms it,
/// the first idle pass after that disarms it and runs the edge hook. It
/// also remembers whether the last idle pass left blocks stranded.
#[derive(Default)]
pub struct IdleEdge {
    armed: bool,
    stranded: bool,
}

impl IdleEdge {
    /// The pass made progress: the next idle pass is an edge.
    #[inline]
    pub fn busy(&mut self) {
        self.armed = true;
    }

    /// The pass made no progress; `true` if it is the first such pass.
    #[inline]
    pub fn take(&mut self) -> bool {
        std::mem::take(&mut self.armed)
    }
}

/// Wakes the communication server when this thread's channel holds two
/// filled buffers: it is not keeping up, or it sleeps. A hint, looked at
/// every pass, so it spares the fence while the server is awake.
pub(crate) fn wake_comm_on_backlog(node: &NodeShared, chan: usize) {
    if node.agg.channel(chan).backlog() >= 2 && node.sleepers.comm.is_asleep() {
        node.sleepers.comm.wake();
    }
}

/// The idle pass of a worker or helper. On the idle edge — and while
/// blocks are stranded by a dry pool — it flushes what the thread holds
/// and wakes the communication server for what that filled. Then it
/// sleeps until `has_work`, a stop, or (while stranded) a buffer coming
/// back to its pool. Returns whether it parked.
///
/// The aggregation queues are the node's, and any thread's pool may ship
/// them: a thread that becomes stranded wakes the node's other workers
/// and helpers once, so their idle passes pack what is left into their
/// own pools, as their pumps would if they were busy.
pub(crate) fn sleep_idle(
    node: &NodeShared,
    chan: usize,
    me: &Sleeper,
    edge: &mut IdleEdge,
    has_work: impl FnOnce() -> bool,
) -> bool {
    let was_stranded = edge.stranded;
    let stranded = tls::with_sink(|s| {
        if edge.take() || was_stranded || s.stranded() {
            s.flush_idle();
        }
        s.stranded()
    });
    edge.stranded = stranded;
    if stranded && !was_stranded {
        node.sleepers.workers.wake_all();
        node.sleepers.helpers.wake_all();
    }
    let channel = node.agg.channel(chan);
    if channel.backlog() > 0 {
        node.sleepers.comm.wake();
    }
    me.sleep(None, || has_work() || node.stopping() || (stranded && channel.free_buffers() > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    #[test]
    fn the_edge_fires_once_per_busy_stretch() {
        let mut edge = IdleEdge::default();
        assert!(!edge.take(), "a loop that never worked has no edge");
        edge.busy();
        edge.busy();
        assert!(edge.take(), "the first idle pass after work is the edge");
        assert!(!edge.take(), "consecutive idle passes share one edge");
        edge.busy();
        assert!(edge.take(), "progress re-arms the edge");
    }

    #[test]
    fn work_seen_by_the_recheck_skips_the_park() {
        let s = Sleeper::default();
        s.register();
        let t0 = Instant::now();
        assert!(!s.sleep(None, || true), "the recheck found work: no park");
        assert!(s.sleep(Some(Duration::from_millis(1)), || false), "nothing to do: parks");
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// The handshake as a store-buffering race, round after round: the
    /// sleeper raises its flag and rechecks while the producer publishes
    /// and looks at the flag, the producer's start staggered across
    /// rounds so the two meet at every distance. A lost wakeup leaves the
    /// sleeper parked with the round's item published until its
    /// `LOST_AFTER` timeout; one such round fails the test. Without the
    /// recheck rounds are lost in any build; without the sleeper's fence
    /// they are lost in an optimized one (`cargo test --release -p
    /// gmt-core --lib idle`), whose race window is the runtime's — debug
    /// code rarely lines the two threads up that closely.
    #[test]
    fn no_wakeup_is_lost() {
        const ROUNDS: u64 = 100_000;
        const LOST_AFTER: Duration = Duration::from_secs(1);
        let sleeper = Arc::new(Sleeper::default());
        let start = Arc::new(AtomicU64::new(0));
        let published = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let consumer = {
            let (sleeper, start, published, done) = (
                Arc::clone(&sleeper),
                Arc::clone(&start),
                Arc::clone(&published),
                Arc::clone(&done),
            );
            std::thread::spawn(move || {
                sleeper.register();
                let mut parks = 0u64;
                for r in 1..=ROUNDS {
                    // Drop a token a late wake of the last round left, so
                    // it cannot mask a lost wake of this one.
                    std::thread::park_timeout(Duration::ZERO);
                    while start.load(Ordering::Acquire) < r {
                        std::hint::spin_loop();
                    }
                    let t0 = Instant::now();
                    if sleeper.sleep(Some(LOST_AFTER), || published.load(Ordering::Relaxed) >= r) {
                        parks += 1;
                        if t0.elapsed() >= LOST_AFTER {
                            return Err(r);
                        }
                    }
                    done.store(r, Ordering::Release);
                }
                Ok(parks)
            })
        };
        for r in 1..=ROUNDS {
            start.store(r, Ordering::Release);
            for i in 0..r % 64 {
                std::hint::black_box(i);
            }
            published.store(r, Ordering::Relaxed);
            sleeper.wake();
            while done.load(Ordering::Acquire) < r {
                if consumer.is_finished() {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        match consumer.join().expect("consumer") {
            Ok(parks) => assert!(parks > 0, "the sleeper never parked, so nothing was tested"),
            Err(round) => panic!("lost wakeup in round {round}: parked past {LOST_AFTER:?}"),
        }
    }

    #[test]
    fn a_set_wakes_every_sleeper() {
        let set = Arc::new(SleeperSet::new(3));
        let go = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (0..3)
            .map(|i| {
                let (set, go) = (Arc::clone(&set), Arc::clone(&go));
                std::thread::spawn(move || {
                    set.get(i).register();
                    while !go.load(Ordering::Relaxed) {
                        set.get(i).sleep(None, || go.load(Ordering::Relaxed));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        go.store(true, Ordering::Relaxed);
        set.wake_all();
        for t in threads {
            t.join().expect("every sleeper woke");
        }
    }
}
