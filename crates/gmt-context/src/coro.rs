//! Safe stackful coroutines on top of [`crate::arch`].
//!
//! A [`Coroutine`] owns a [`Stack`] and a suspended
//! execution context. The owner drives it with [`Coroutine::resume`]; the
//! coroutine body receives a [`Yielder`] and suspends itself with
//! [`Yielder::yield_now`]. This is exactly the shape the GMT worker
//! scheduler needs: a task yields whenever it issues a blocking remote
//! operation and is resumed once the reply arrives.
//!
//! Dropping a suspended coroutine *cancels* it: the coroutine is resumed
//! one final time with a cancellation flag set, `yield_now` raises a
//! private unwind payload, and every live frame on the coroutine stack runs
//! its destructors before the stack is freed.

use crate::arch::{self, StackPointer};
use crate::stack::{Stack, StackError};
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};

/// Observable state of a coroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoroutineState {
    /// Created or suspended in `yield_now`; can be resumed.
    Suspended,
    /// Currently executing (only observable from inside the coroutine).
    Running,
    /// Ran to completion (or was cancelled); cannot be resumed.
    Finished,
}

/// Result of a [`Coroutine::resume`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// The coroutine suspended itself with [`Yielder::yield_now`].
    Yielded,
    /// The coroutine body returned; its result is available via
    /// [`Coroutine::take_result`].
    Finished,
}

/// Private unwind payload used to cancel a coroutine from `drop`.
struct ForcedUnwind;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Yielded,
    Finished,
    Panicked,
}

/// State shared between the owner side and the coroutine side.
///
/// Boxed so its address is stable across moves of the [`Coroutine`].
struct Shared {
    /// Where the coroutine saves the owner's context during `resume`.
    caller_sp: Cell<StackPointer>,
    /// Where `yield_now` saves the coroutine's context.
    coro_sp: Cell<StackPointer>,
    /// Set by the coroutine side right before switching back.
    status: Cell<Status>,
    /// Panic payload captured from the coroutine body.
    panic: Cell<Option<Box<dyn Any + Send>>>,
    /// Owner requests cancellation (drop of a suspended coroutine).
    cancelling: Cell<bool>,
}

/// Handle passed to the coroutine body for suspending itself.
pub struct Yielder {
    shared: *const Shared,
}

impl Yielder {
    /// Suspends the coroutine; control returns to the `resume` caller.
    ///
    /// When the owner drops the coroutine instead of resuming it normally,
    /// this call does not return — it unwinds the coroutine stack so that
    /// destructors run.
    pub fn yield_now(&self) {
        let shared = unsafe { &*self.shared };
        shared.status.set(Status::Yielded);
        unsafe {
            arch::switch(shared.coro_sp.as_ptr(), shared.caller_sp.get());
        }
        if shared.cancelling.get() {
            // `resume_unwind`, not `panic_any`: cancellation must not run
            // the global panic hook (which would print, and may capture a
            // backtrace using more stack than a small coroutine has).
            panic::resume_unwind(Box::new(ForcedUnwind));
        }
    }
}

/// Start-up package handed to the type-erased entry function.
struct StartPack<F, T> {
    f: Option<F>,
    result: *mut Option<T>,
}

/// A lightweight stackful coroutine producing a `T`.
pub struct Coroutine<T = ()> {
    stack: Stack,
    shared: Box<Shared>,
    /// Keeps the `StartPack` allocation alive until the body consumes it.
    _start: Option<Box<dyn Any>>,
    result: Box<Option<T>>,
    state: CoroutineState,
}

// Safety: construction requires `F: Send + 'static`; while suspended all of
// the coroutine's state lives in owned allocations (`stack`, `shared`,
// `result`) that move with the `Coroutine`. Resuming from a different
// thread is therefore sound for `Send` closures — the GMT runtime still
// keeps every task on its creating worker, as the paper's runtime does.
unsafe impl<T: Send> Send for Coroutine<T> {}

impl<T: 'static> Coroutine<T> {
    /// Creates a coroutine with a dedicated stack of `stack_size` bytes.
    ///
    /// The body does not start executing until the first [`resume`].
    ///
    /// [`resume`]: Coroutine::resume
    pub fn new<F>(stack_size: usize, f: F) -> Result<Self, StackError>
    where
        F: FnOnce(&Yielder) -> T + Send + 'static,
    {
        let stack = Stack::new(stack_size)?;
        Ok(Self::with_stack(stack, f))
    }

    /// Creates a coroutine on a caller-provided (possibly recycled) stack.
    pub fn with_stack<F>(stack: Stack, f: F) -> Self
    where
        F: FnOnce(&Yielder) -> T + Send + 'static,
    {
        let shared = Box::new(Shared {
            caller_sp: Cell::new(core::ptr::null_mut()),
            coro_sp: Cell::new(core::ptr::null_mut()),
            status: Cell::new(Status::Yielded),
            panic: Cell::new(None),
            cancelling: Cell::new(false),
        });
        let mut result: Box<Option<T>> = Box::new(None);
        let mut start: Box<StartPack<F, T>> =
            Box::new(StartPack { f: Some(f), result: &mut *result as *mut Option<T> });
        let init_sp = unsafe {
            arch::init_stack(
                stack.top(),
                entry_thunk::<F, T>,
                (&mut *start as *mut StartPack<F, T>).cast(),
                (&*shared as *const Shared as *mut Shared).cast(),
            )
        };
        shared.coro_sp.set(init_sp);
        Coroutine { stack, shared, _start: Some(start), result, state: CoroutineState::Suspended }
    }

    /// Runs the coroutine until it yields or finishes.
    ///
    /// Panics raised by the coroutine body are re-raised here (like
    /// `JoinHandle::join` followed by `resume_unwind`).
    ///
    /// # Panics
    ///
    /// Panics if the coroutine has already finished.
    pub fn resume(&mut self) -> Resume {
        assert_eq!(
            self.state,
            CoroutineState::Suspended,
            "resume called on a coroutine that is not suspended"
        );
        self.state = CoroutineState::Running;
        unsafe {
            arch::switch(self.shared.caller_sp.as_ptr(), self.shared.coro_sp.get());
        }
        match self.shared.status.get() {
            Status::Yielded => {
                self.state = CoroutineState::Suspended;
                Resume::Yielded
            }
            Status::Finished => {
                self.state = CoroutineState::Finished;
                self._start = None;
                Resume::Finished
            }
            Status::Panicked => {
                self.state = CoroutineState::Finished;
                self._start = None;
                let payload = self.shared.panic.take().expect("panicked coroutine without payload");
                panic::resume_unwind(payload);
            }
        }
    }

    /// Current state as seen by the owner.
    pub fn state(&self) -> CoroutineState {
        self.state
    }

    /// `true` once the body has returned (or the coroutine was cancelled).
    pub fn is_finished(&self) -> bool {
        self.state == CoroutineState::Finished
    }

    /// Takes the value returned by the body, if it finished normally.
    pub fn take_result(&mut self) -> Option<T> {
        self.result.take()
    }

    /// Consumes a finished coroutine and returns its stack for reuse.
    ///
    /// Recycling stacks is how the GMT runtime keeps task creation cheap
    /// (the paper pre-allocates and recycles all task contexts).
    ///
    /// # Panics
    ///
    /// Panics if the coroutine has not finished.
    pub fn into_stack(mut self) -> Stack {
        assert!(self.is_finished(), "cannot recycle the stack of an unfinished coroutine");
        self.state = CoroutineState::Finished; // keep drop from cancelling
        std::mem::replace(&mut self.stack, Stack::new(crate::MIN_STACK_SIZE).unwrap())
    }
}

impl<T> Drop for Coroutine<T> {
    fn drop(&mut self) {
        if self.state != CoroutineState::Suspended {
            return;
        }
        // Cancel: resume once with the cancellation flag set; `yield_now`
        // unwinds the coroutine stack and the entry thunk reports Finished.
        self.shared.cancelling.set(true);
        unsafe {
            arch::switch(self.shared.caller_sp.as_ptr(), self.shared.coro_sp.get());
        }
        match self.shared.status.get() {
            Status::Finished => {}
            Status::Panicked => {
                // A destructor (or pre-first-resume body) panicked during
                // cancellation. Don't double-panic; drop the payload.
                drop(self.shared.panic.take());
            }
            Status::Yielded => {
                unreachable!("coroutine yielded while being cancelled")
            }
        }
        self.state = CoroutineState::Finished;
    }
}

/// Type-erased first function executed on the coroutine stack.
unsafe extern "sysv64" fn entry_thunk<F, T>(start: *mut u8, shared: *mut u8) -> !
where
    F: FnOnce(&Yielder) -> T + Send + 'static,
    T: 'static,
{
    let shared = unsafe { &*(shared as *const Shared) };
    let start = unsafe { &mut *(start as *mut StartPack<F, T>) };
    let yielder = Yielder { shared };

    // A coroutine created and then immediately dropped is cancelled before
    // its body ever ran; skip the body entirely in that case.
    if !shared.cancelling.get() {
        let f = start.f.take().expect("coroutine body already taken");
        let result_slot = start.result;
        match panic::catch_unwind(AssertUnwindSafe(|| f(&yielder))) {
            Ok(value) => {
                unsafe { *result_slot = Some(value) };
                shared.status.set(Status::Finished);
            }
            Err(payload) => {
                if payload.is::<ForcedUnwind>() {
                    shared.status.set(Status::Finished);
                } else {
                    shared.panic.set(Some(payload));
                    shared.status.set(Status::Panicked);
                }
            }
        }
    } else {
        shared.status.set(Status::Finished);
    }

    // Final switch back to the owner; this context must never run again.
    let mut dead: StackPointer = core::ptr::null_mut();
    unsafe {
        arch::switch(&mut dead, shared.caller_sp.get());
    }
    unreachable!("finished coroutine was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_to_completion_without_yield() {
        let mut co = Coroutine::new(16 * 1024, |_y| 123u32).unwrap();
        assert_eq!(co.resume(), Resume::Finished);
        assert_eq!(co.take_result(), Some(123));
        assert!(co.is_finished());
    }

    #[test]
    fn yields_roundtrip_preserve_locals() {
        let mut co = Coroutine::new(32 * 1024, |y| {
            let mut v = vec![1u64];
            for i in 2..=5 {
                y.yield_now();
                v.push(i);
            }
            v.iter().sum::<u64>()
        })
        .unwrap();
        for _ in 0..4 {
            assert_eq!(co.resume(), Resume::Yielded);
        }
        assert_eq!(co.resume(), Resume::Finished);
        assert_eq!(co.take_result(), Some(1 + 2 + 3 + 4 + 5));
    }

    #[test]
    fn interleaves_many_coroutines() {
        const N: usize = 64;
        const ROUNDS: usize = 10;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut coros: Vec<Coroutine<usize>> = (0..N)
            .map(|i| {
                let counter = Arc::clone(&counter);
                Coroutine::new(16 * 1024, move |y| {
                    let mut mine = 0;
                    for _ in 0..ROUNDS {
                        mine += 1;
                        counter.fetch_add(1, Ordering::Relaxed);
                        y.yield_now();
                    }
                    mine * (i + 1)
                })
                .unwrap()
            })
            .collect();
        // Round-robin scheduling, exactly like a GMT worker.
        for _ in 0..ROUNDS {
            for co in &mut coros {
                assert_eq!(co.resume(), Resume::Yielded);
            }
        }
        for (i, co) in coros.iter_mut().enumerate() {
            assert_eq!(co.resume(), Resume::Finished);
            assert_eq!(co.take_result(), Some(ROUNDS * (i + 1)));
        }
        assert_eq!(counter.load(Ordering::Relaxed), N * ROUNDS);
    }

    #[test]
    fn panic_propagates_to_resumer() {
        // The runtime's default, not the 16 KiB the other tests use: the
        // first panic of a process unwinds through more than 16 KiB, and
        // with no guard page under the stack that ran into the
        // neighbouring heap block (see `MIN_STACK_SIZE`).
        let mut co = Coroutine::new(crate::DEFAULT_STACK_SIZE, |y| {
            y.yield_now();
            panic!("boom from coroutine");
        })
        .unwrap();
        assert_eq!(co.resume(), Resume::Yielded);
        let err = panic::catch_unwind(AssertUnwindSafe(|| co.resume())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom from coroutine");
        assert!(co.is_finished());
        assert_eq!(co.take_result(), None::<()>);
    }

    #[test]
    fn drop_before_first_resume_is_clean() {
        let dropped = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&dropped);
        let co = Coroutine::new(16 * 1024, move |_y| {
            // Body never runs; the capture must still be dropped.
            d.fetch_add(100, Ordering::Relaxed);
        })
        .unwrap();
        drop(co);
        // The closure never ran...
        assert_eq!(dropped.load(Ordering::Relaxed), 0);
        // ...and its captured Arc was released (strong count back to 1).
        assert_eq!(Arc::strong_count(&dropped), 1);
    }

    #[test]
    fn drop_while_suspended_runs_destructors() {
        struct Tracker(Arc<AtomicUsize>);
        impl Drop for Tracker {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&drops);
        let mut co = Coroutine::new(64 * 1024, move |y| {
            let _t1 = Tracker(Arc::clone(&d));
            let _t2 = Tracker(Arc::clone(&d));
            y.yield_now();
            y.yield_now(); // never reached: cancelled at first suspend point
            drop(d);
        })
        .unwrap();
        assert_eq!(co.resume(), Resume::Yielded);
        drop(co);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn results_are_per_coroutine() {
        // Rc inside the coroutine exercises non-Send internals; only the
        // closure itself must be Send.
        let mut a = Coroutine::new(16 * 1024, |y| {
            let local = Rc::new(7u64);
            y.yield_now();
            *local * 2
        })
        .unwrap();
        let mut b = Coroutine::new(16 * 1024, |y| {
            let local = Rc::new(9u64);
            y.yield_now();
            *local * 3
        })
        .unwrap();
        assert_eq!(a.resume(), Resume::Yielded);
        assert_eq!(b.resume(), Resume::Yielded);
        assert_eq!(b.resume(), Resume::Finished);
        assert_eq!(a.resume(), Resume::Finished);
        assert_eq!(a.take_result(), Some(14));
        assert_eq!(b.take_result(), Some(27));
    }

    #[test]
    fn stack_recycling() {
        let mut co = Coroutine::new(64 * 1024, |_y| ()).unwrap();
        assert_eq!(co.resume(), Resume::Finished);
        let stack = co.into_stack();
        assert_eq!(stack.size(), 64 * 1024);
        let mut co2 = Coroutine::with_stack(stack, |y| {
            y.yield_now();
            5u8
        });
        assert_eq!(co2.resume(), Resume::Yielded);
        assert_eq!(co2.resume(), Resume::Finished);
        assert_eq!(co2.take_result(), Some(5));
    }

    #[test]
    #[should_panic(expected = "not suspended")]
    fn resume_after_finish_panics() {
        let mut co = Coroutine::new(16 * 1024, |_y| ()).unwrap();
        assert_eq!(co.resume(), Resume::Finished);
        let _ = co.resume();
    }

    #[test]
    fn deep_yield_from_nested_calls() {
        fn recurse(y: &Yielder, depth: u32) -> u64 {
            if depth == 0 {
                y.yield_now();
                1
            } else {
                recurse(y, depth - 1) + 1
            }
        }
        let mut co = Coroutine::new(128 * 1024, |y| recurse(y, 64)).unwrap();
        assert_eq!(co.resume(), Resume::Yielded);
        assert_eq!(co.resume(), Resume::Finished);
        assert_eq!(co.take_result(), Some(65));
    }

    #[test]
    fn resume_from_another_thread() {
        let mut co = Coroutine::new(32 * 1024, |y| {
            let mut sum = 0u64;
            for i in 0..4 {
                sum += i;
                y.yield_now();
            }
            sum
        })
        .unwrap();
        assert_eq!(co.resume(), Resume::Yielded);
        let mut co = std::thread::spawn(move || {
            assert_eq!(co.resume(), Resume::Yielded);
            co
        })
        .join()
        .unwrap();
        assert_eq!(co.resume(), Resume::Yielded);
        assert_eq!(co.resume(), Resume::Yielded);
        assert_eq!(co.resume(), Resume::Finished);
        assert_eq!(co.take_result(), Some(1 + 2 + 3));
    }
}
