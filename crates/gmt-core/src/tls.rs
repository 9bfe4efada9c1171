//! Thread-local command sinks.
//!
//! Every worker and helper thread owns exactly one [`CommandSink`]
//! (its pre-aggregation front end). Task code runs *on* the worker's
//! thread (inside a coroutine), so API primitives reach the sink through
//! this thread-local without any synchronization — mirroring the paper,
//! where command blocks are strictly thread-private.

use crate::aggregation::CommandSink;
use std::cell::RefCell;

thread_local! {
    static SINK: RefCell<Option<CommandSink>> = const { RefCell::new(None) };
}

/// Installs the sink for the current thread (worker/helper startup).
pub fn install(sink: CommandSink) {
    SINK.with(|s| {
        let mut slot = s.borrow_mut();
        assert!(slot.is_none(), "thread already has a command sink");
        *slot = Some(sink);
    });
}

/// Removes and returns the current thread's sink (thread teardown).
pub fn uninstall() -> Option<CommandSink> {
    SINK.with(|s| s.borrow_mut().take())
}

/// Runs `f` with the current thread's sink.
///
/// # Panics
///
/// Panics if the thread has no sink (i.e. it is not a GMT worker/helper).
pub fn with_sink<R>(f: impl FnOnce(&mut CommandSink) -> R) -> R {
    SINK.with(|s| {
        let mut slot = s.borrow_mut();
        let sink = slot.as_mut().expect("GMT primitives may only be called from runtime threads");
        f(sink)
    })
}
