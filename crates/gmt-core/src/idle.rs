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

use crate::runtime::{NodeShared, NodeSleepers};
use crate::tls;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
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

/// The deadlines a TCP reader's step leaves owed while the communication
/// server sleeps past them — almost always an ack owed in `ACK_DELAY_NS` —
/// and the thread that wakes the server for them.
///
/// A reader [`lower`](Self::lower)s the earliest such deadline; the
/// server, at the start of every sweep, [`clear`](Self::clear)s it, since
/// its sweeps serve every timer and its next sleep counts what readers
/// stepped. In between, the ticker thread ([`run`](Self::run)) wakes the
/// server once the deadline has passed, parked until it at most a period
/// at a time (a deadline lowered meanwhile wakes nobody); with nothing
/// owed it parks untimed until [`wake`](Self::wake)d — the
/// flag-and-recheck handshake of [`Sleeper`].
///
/// Who wakes it. A read that handed frames to the helpers does not: the
/// helpers it woke, and the workers they wake, usually send next — a
/// reply, the next request — and the server's sweep for that serves the
/// deadline. So the last of the node's workers and helpers to go to sleep
/// without having woken the server wakes the ticker ([`sleep_idle`]). A
/// read that handed the helpers nothing wakes it itself, and so does any
/// read that finds a deadline still owed past its time.
pub struct Ticker {
    /// The earliest owed deadline on the node's clock, `u64::MAX` with
    /// none.
    due: AtomicU64,
    sleeper: Sleeper,
}

impl Default for Ticker {
    fn default() -> Self {
        Ticker { due: AtomicU64::new(u64::MAX), sleeper: Sleeper::default() }
    }
}

impl Ticker {
    /// A reader left `due` owed: whether it is the first owed deadline,
    /// which may find the ticker parked untimed and needs a
    /// [`wake`](Self::wake). A later one finds it parked at most a period.
    pub fn lower(&self, due: u64) -> bool {
        self.due.fetch_min(due, Ordering::Relaxed) == u64::MAX
    }

    /// The earliest owed deadline, `u64::MAX` with none.
    pub fn owed(&self) -> u64 {
        self.due.load(Ordering::Relaxed)
    }

    /// The server sweeps: nothing is owed past it any more.
    pub fn clear(&self) {
        if self.owed() != u64::MAX {
            self.due.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Wakes the ticker thread if it parks untimed. Call after the
    /// deadline is owed (or the stop is set).
    pub fn wake(&self) {
        self.sleeper.wake();
    }

    /// The ticker thread: wakes `server` once `now_ns()` has passed the
    /// owed deadline, parked until it at most `period` at a time, and
    /// parks untimed while none is owed. Returns once `stopping()` holds.
    pub fn run(
        &self,
        period: Duration,
        now_ns: impl Fn() -> u64,
        server: &Sleeper,
        stopping: impl Fn() -> bool,
    ) {
        self.sleeper.register();
        while !stopping() {
            let (due, now) = (self.owed(), now_ns());
            if due == u64::MAX {
                self.sleeper.sleep(None, || self.owed() != u64::MAX || stopping());
            } else if now >= due {
                self.due.store(u64::MAX, Ordering::Relaxed);
                server.wake();
            } else {
                std::thread::park_timeout(Duration::from_nanos(due - now).min(period));
            }
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
/// back to its pool; if it woke no server and is the node's last worker
/// or helper to sleep, it wakes the ticker for what a TCP reader left
/// owed. Returns whether it parked.
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
    // The server's sweep for what this pass filled also serves whatever
    // the TCP readers left owed.
    let woke_comm = channel.backlog() > 0;
    if woke_comm {
        node.sleepers.comm.wake();
    }
    me.sleep(None, || {
        let work = has_work() || node.stopping() || (stranded && channel.free_buffers() > 0);
        if !work && !woke_comm {
            cover_owed(&node.sleepers, me);
        }
        work
    })
}

/// Wakes the ticker for a deadline a TCP reader left owed ([`Ticker`]) if
/// every other worker and helper of the node sleeps too: none of them is
/// left to send, so nothing else would wake the server. Called from a
/// sleep's recheck, with `me`'s flag up and fenced: of two threads that
/// go to sleep together, one sees the other's flag.
fn cover_owed(sleepers: &NodeSleepers, me: &Sleeper) {
    let asleep =
        |set: &SleeperSet| set.sleepers.iter().all(|s| std::ptr::eq(&**s, me) || s.is_asleep());
    if sleepers.ticker.owed() != u64::MAX && asleep(&sleepers.workers) && asleep(&sleepers.helpers)
    {
        sleepers.ticker.wake();
    }
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
    ///
    /// On a fast host the consumer's recheck may find every staggered
    /// round already published and never park, which would test nothing.
    /// So every `PARKED_EVERY`-th round the producer publishes only once
    /// the sleeper's recheck, which it makes with its flag up, has come
    /// back empty: that round parks for certain, and its wake must still
    /// arrive.
    #[test]
    fn no_wakeup_is_lost() {
        const ROUNDS: u64 = 100_000;
        const PARKED_EVERY: u64 = 1000;
        const LOST_AFTER: Duration = Duration::from_secs(1);
        let sleeper = Arc::new(Sleeper::default());
        let start = Arc::new(AtomicU64::new(0));
        let published = Arc::new(AtomicU64::new(0));
        let rechecked = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let consumer = {
            let (sleeper, start, published, rechecked, done) = (
                Arc::clone(&sleeper),
                Arc::clone(&start),
                Arc::clone(&published),
                Arc::clone(&rechecked),
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
                    let has_work = || {
                        let work = published.load(Ordering::Relaxed) >= r;
                        if !work {
                            rechecked.store(r, Ordering::Release);
                        }
                        work
                    };
                    if sleeper.sleep(Some(LOST_AFTER), has_work) {
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
            if r % PARKED_EVERY == 0 {
                // The recheck runs with the flag up, and came back empty:
                // the sleeper parks whatever happens next.
                while rechecked.load(Ordering::Acquire) < r {
                    if consumer.is_finished() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            } else {
                for i in 0..r % 64 {
                    std::hint::black_box(i);
                }
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

    /// A ticker thread over `ticker`, waking `server`, timing against a
    /// clock that starts with the test; it stops once `stop` is set.
    fn spawn_ticker(
        ticker: &Arc<Ticker>,
        server: &Arc<Sleeper>,
        period: Duration,
        stop: &Arc<AtomicBool>,
    ) -> std::thread::JoinHandle<()> {
        let (ticker, server, stop) = (Arc::clone(ticker), Arc::clone(server), Arc::clone(stop));
        let start = Instant::now();
        std::thread::spawn(move || {
            let now_ns = || start.elapsed().as_nanos() as u64;
            ticker.run(period, now_ns, &server, || stop.load(Ordering::Relaxed));
        })
    }

    /// What a reader whose read delivered nothing does with a deadline it
    /// leaves owed.
    fn owe(ticker: &Ticker, due: u64) {
        if ticker.lower(due) {
            ticker.wake();
        }
    }

    fn stop_ticker(ticker: &Ticker, stop: &AtomicBool, thread: std::thread::JoinHandle<()>) {
        stop.store(true, Ordering::Relaxed);
        ticker.wake();
        thread.join().expect("ticker");
    }

    /// A deadline a reader lowers while the server sleeps untimed wakes
    /// the server once it has passed — not at the first look, which comes
    /// before it — and within a period of it.
    #[test]
    fn an_owed_deadline_wakes_the_sleeping_server_within_a_period() {
        const PERIOD: Duration = Duration::from_millis(10);
        const OWED_IN: Duration = Duration::from_millis(25);
        let (ticker, server) = (Arc::new(Ticker::default()), Arc::new(Sleeper::default()));
        server.register();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = spawn_ticker(&ticker, &server, PERIOD, &stop);
        let t0 = Instant::now();
        owe(&ticker, OWED_IN.as_nanos() as u64);
        let fired = || ticker.due.load(Ordering::Relaxed) == u64::MAX;
        while !fired() && t0.elapsed() < Duration::from_secs(5) {
            server.sleep(Some(Duration::from_secs(5)), fired);
        }
        let woke = t0.elapsed();
        stop_ticker(&ticker, &stop, thread);
        assert!(fired(), "the server was never woken for the owed deadline");
        assert!(woke >= OWED_IN, "woken {woke:?} in, before the deadline");
        // One period past the deadline, and two more for a loaded host.
        assert!(woke < OWED_IN + 3 * PERIOD, "woken {woke:?} in, past a period");
    }

    /// A reader's owed deadline against the ticker's untimed park, round after
    /// round, as `no_wakeup_is_lost` hammers the plain sleeper. Each round
    /// owes a deadline already past; the ticker fires it and heads for its
    /// untimed park, and the reader lowers the next one the moment it sees
    /// the fire, its start staggered across rounds so the lower meets the
    /// ticker at every distance from its flag. A lost wake leaves the
    /// ticker parked with the deadline owed until `LOST_AFTER`; one such
    /// round fails the test. Without the ticker's recheck a debug build
    /// loses one within the first rounds, an optimized one in some runs.
    /// (With no fire seen the reader lowers nothing, so the server's side
    /// is `an_owed_deadline_wakes_the_sleeping_server_within_a_period`.)
    #[test]
    fn no_owed_deadline_is_lost_against_the_tickers_park() {
        const ROUNDS: u64 = 20_000;
        const LOST_AFTER: Duration = Duration::from_secs(1);
        let (ticker, server) = (Arc::new(Ticker::default()), Arc::new(Sleeper::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = spawn_ticker(&ticker, &server, Duration::from_micros(1), &stop);
        let fired = || ticker.due.load(Ordering::Relaxed) == u64::MAX;
        let (mut met_parked, mut lost) = (0u64, None);
        for r in 1..=ROUNDS {
            let t0 = Instant::now();
            while !fired() {
                if t0.elapsed() >= LOST_AFTER {
                    lost = Some(r);
                    break;
                }
                std::hint::spin_loop();
            }
            if lost.is_some() {
                break;
            }
            for i in 0..r % 128 {
                std::hint::black_box(i);
            }
            met_parked += ticker.sleeper.is_asleep() as u64;
            owe(&ticker, 0);
        }
        stop_ticker(&ticker, &stop, thread);
        if let Some(round) = lost {
            panic!("lost wakeup in round {round}: the deadline stayed owed for {LOST_AFTER:?}");
        }
        assert!(met_parked > 0, "no lower met the ticker parked, so nothing was tested");
    }

    /// While a deadline is owed the ticker looks once a period; once the
    /// server's sweep has cleared it, the ticker parks untimed — an idle
    /// node's ticker costs nothing.
    #[test]
    fn the_ticker_parks_untimed_after_an_awake_period() {
        let (ticker, server) = (Arc::new(Ticker::default()), Arc::new(Sleeper::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = spawn_ticker(&ticker, &server, Duration::from_millis(1), &stop);
        let untimed = |for_ns: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_nanos(for_ns) {
                if ticker.sleeper.is_asleep() {
                    return true;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            false
        };
        assert!(untimed(5_000_000_000), "with nothing owed the ticker parks untimed");
        owe(&ticker, u64::MAX - 1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!untimed(20_000_000), "an owed deadline keeps the ticker looking");
        ticker.clear();
        assert!(untimed(5_000_000_000), "after the server's sweep the ticker parks untimed");
        stop_ticker(&ticker, &stop, thread);
    }

    /// Who wakes the ticker for a deadline a TCP read left owed, in every
    /// interleaving.
    ///
    /// The reader hands a buffer to the helper, lowers the deadline, then
    /// wakes the helper (`SharedLink::arrived`). The helper applies
    /// the buffer and — the case a ticker is for — sends nothing; the
    /// worker has nothing to do. Each goes to sleep the way `sleep_idle`
    /// does: raise its flag, recheck its work, and, finding none, wake the
    /// ticker if a deadline is owed and the other thread sleeps too; then
    /// park until a token. A run may end only with the ticker woken. The
    /// accesses are sequentially consistent here; the fences are what
    /// `no_wakeup_is_lost` checks.
    mod cover_model {
        use std::collections::HashSet;

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Reader {
            Deliver,
            Lower,
            WakeAll,
            Done,
        }

        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Thread {
            Run,
            Raise,
            /// Flag up: recheck the work, then the deadline, then the
            /// other thread's flag.
            Recheck,
            Owed,
            Other,
            Parked,
        }

        /// The protocol and the mutations the test checks it against.
        #[derive(Clone, Copy)]
        struct Rules {
            /// A thread looks at the other's flag after raising its own.
            raise_first: bool,
            /// The reader wakes the helper after lowering the deadline.
            lower_first: bool,
        }

        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct World {
            reader: Reader,
            /// The helper's, then the worker's.
            threads: [Thread; 2],
            asleep: [bool; 2],
            token: [bool; 2],
            work: bool,
            owed: bool,
            ticker_woken: bool,
        }

        impl World {
            fn step(&self, actor: usize, rules: Rules) -> Option<World> {
                let mut w = self.clone();
                if actor == 2 {
                    w.reader = match self.reader {
                        Reader::Deliver => {
                            w.work = true;
                            if rules.lower_first {
                                Reader::Lower
                            } else {
                                Reader::WakeAll
                            }
                        }
                        Reader::Lower => {
                            w.owed = true;
                            if rules.lower_first {
                                Reader::WakeAll
                            } else {
                                Reader::Done
                            }
                        }
                        Reader::WakeAll => {
                            if w.asleep[0] {
                                (w.asleep[0], w.token[0]) = (false, true);
                            }
                            if rules.lower_first {
                                Reader::Done
                            } else {
                                Reader::Lower
                            }
                        }
                        Reader::Done => return None,
                    };
                    return Some(w);
                }
                let (me, other) = (actor, 1 - actor);
                w.threads[me] = match self.threads[me] {
                    // Only the helper is handed work.
                    Thread::Run if me == 0 && self.work => {
                        w.work = false;
                        Thread::Run
                    }
                    Thread::Run if rules.raise_first => Thread::Raise,
                    Thread::Run => Thread::Owed,
                    Thread::Raise => {
                        w.asleep[me] = true;
                        if rules.raise_first {
                            Thread::Recheck
                        } else {
                            Thread::Parked
                        }
                    }
                    Thread::Recheck if me == 0 && self.work => {
                        w.asleep[me] = false;
                        Thread::Run
                    }
                    Thread::Recheck => Thread::Owed,
                    Thread::Owed if self.owed => Thread::Other,
                    Thread::Owed | Thread::Other => {
                        if self.threads[me] == Thread::Other && self.asleep[other] {
                            w.ticker_woken = true;
                        }
                        if rules.raise_first {
                            Thread::Parked
                        } else {
                            Thread::Raise
                        }
                    }
                    Thread::Parked if !self.token[me] => return None,
                    Thread::Parked => {
                        w.token[me] = false;
                        Thread::Run
                    }
                };
                Some(w)
            }
        }

        /// Every interleaving under `rules`: the first end state with the
        /// deadline owed and the ticker never woken, if any.
        fn explore(rules: Rules) -> Result<(), String> {
            let start = World {
                reader: Reader::Deliver,
                threads: [Thread::Run; 2],
                asleep: [false; 2],
                token: [false; 2],
                work: false,
                owed: false,
                ticker_woken: false,
            };
            let mut seen = HashSet::new();
            let mut stack = vec![start];
            while let Some(w) = stack.pop() {
                if !seen.insert(w.clone()) {
                    continue;
                }
                let next: Vec<World> = (0..3).filter_map(|a| w.step(a, rules)).collect();
                if next.is_empty() && !w.ticker_woken {
                    return Err(format!("every thread sleeps and the deadline is owed: {w:?}"));
                }
                stack.extend(next);
            }
            Ok(())
        }

        #[test]
        fn the_last_thread_to_sleep_wakes_the_ticker() {
            explore(Rules { raise_first: true, lower_first: true })
                .unwrap_or_else(|e| panic!("{e}"));
        }

        #[test]
        fn looking_before_raising_the_flag_loses_the_deadline() {
            let err = explore(Rules { raise_first: false, lower_first: true });
            assert!(err.is_err(), "two threads that look first can both miss each other");
        }

        #[test]
        fn waking_the_helper_before_lowering_loses_the_deadline() {
            let err = explore(Rules { raise_first: true, lower_first: false });
            assert!(err.is_err(), "a helper asleep before the lower is never told of it");
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
