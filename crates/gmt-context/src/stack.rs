//! Coroutine stacks.
//!
//! Stacks are plain heap allocations (16-byte aligned). The real GMT uses
//! `mmap`ed stacks; we avoid a `libc` dependency, so there is no guard
//! page — instead debug builds write a canary pattern at the low end of
//! every stack and verify it on drop and on demand, which catches the
//! overflows that a guard page would have trapped.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;

/// Stack alignment required by the x86_64 System V ABI.
pub const STACK_ALIGN: usize = 16;

/// Smallest stack this crate will hand out. Below this even the bootstrap
/// frame plus one Rust call frame may not fit.
///
/// This is the floor for a body that never panics. Stacks are plain heap
/// blocks with no guard page, and the first panic of a process unwinds
/// through more than 16 KiB: a body that panics on a stack under 32 KiB
/// writes past it into the neighbouring allocation (measured, debug
/// build: `panic_propagates_to_resumer` run alone crashed 150/150 on
/// 16 KiB and 0/100 on 32, 64 and 256 KiB). Use [`DEFAULT_STACK_SIZE`]
/// for anything that may panic.
pub const MIN_STACK_SIZE: usize = 4 * 1024;

/// Default stack size for GMT tasks. Irregular-application tasks are tiny
/// (a few nested calls around get/put/atomic primitives), but generated
/// user code may use formatting or recursion, so the default is generous.
pub const DEFAULT_STACK_SIZE: usize = 64 * 1024;

/// Number of canary words stamped at the low end of the stack in debug
/// builds.
const CANARY_WORDS: usize = 8;
const CANARY: usize = 0xDEAD_57AC_CAFE_F00D;

/// Errors from stack allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackError {
    /// Requested size was below [`MIN_STACK_SIZE`].
    TooSmall { requested: usize },
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::TooSmall { requested } => write!(
                f,
                "requested stack of {requested} bytes is below the minimum of {MIN_STACK_SIZE}"
            ),
        }
    }
}

impl std::error::Error for StackError {}

/// An owned, aligned coroutine stack.
pub struct Stack {
    base: *mut u8,
    size: usize,
}

// The stack is exclusively owned memory; moving it between threads is fine
// as long as no coroutine is currently executing on it, which the owning
// `Coroutine` guarantees.
unsafe impl Send for Stack {}

impl Stack {
    /// Allocates a stack of `size` bytes (rounded up to [`STACK_ALIGN`]).
    pub fn new(size: usize) -> Result<Self, StackError> {
        if size < MIN_STACK_SIZE {
            return Err(StackError::TooSmall { requested: size });
        }
        let size = size.next_multiple_of(STACK_ALIGN);
        let layout = Layout::from_size_align(size, STACK_ALIGN).expect("valid stack layout");
        let base = unsafe { alloc(layout) };
        if base.is_null() {
            handle_alloc_error(layout);
        }
        let stack = Stack { base, size };
        if cfg!(debug_assertions) {
            unsafe {
                let words = stack.base.cast::<usize>();
                for i in 0..CANARY_WORDS {
                    words.add(i).write(CANARY);
                }
            }
        }
        Ok(stack)
    }

    /// One-past-the-end address of the stack: the initial stack pointer.
    pub fn top(&self) -> *mut u8 {
        unsafe { self.base.add(self.size) }
    }

    /// Lowest address of the stack allocation.
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Usable size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Returns `true` if the debug canary at the low end of the stack is
    /// intact. Always `true` in release builds (no canary is written).
    pub fn canary_intact(&self) -> bool {
        if !cfg!(debug_assertions) {
            return true;
        }
        unsafe {
            let words = self.base.cast::<usize>();
            (0..CANARY_WORDS).all(|i| words.add(i).read() == CANARY)
        }
    }

    /// Panics if the canary was clobbered (debug builds only).
    pub fn check_canary(&self) {
        assert!(
            self.canary_intact(),
            "coroutine stack overflow detected: canary at {:p} clobbered (stack size {})",
            self.base,
            self.size
        );
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if cfg!(debug_assertions) && !std::thread::panicking() {
            self.check_canary();
        }
        let layout = Layout::from_size_align(self.size, STACK_ALIGN).expect("valid stack layout");
        unsafe { dealloc(self.base, layout) };
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack").field("base", &self.base).field("size", &self.size).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_tiny_stacks() {
        assert!(matches!(Stack::new(128), Err(StackError::TooSmall { requested: 128 })));
        assert!(matches!(Stack::new(MIN_STACK_SIZE - 1), Err(StackError::TooSmall { .. })));
    }

    #[test]
    fn alignment_and_bounds() {
        let s = Stack::new(MIN_STACK_SIZE).unwrap();
        assert_eq!(s.top() as usize % STACK_ALIGN, 0);
        assert_eq!(s.base() as usize % STACK_ALIGN, 0);
        assert_eq!(s.top() as usize - s.base() as usize, s.size());
        assert!(s.size() >= MIN_STACK_SIZE);
    }

    #[test]
    fn size_rounds_up_to_alignment() {
        let s = Stack::new(MIN_STACK_SIZE + 1).unwrap();
        assert_eq!(s.size() % STACK_ALIGN, 0);
        assert!(s.size() > MIN_STACK_SIZE);
    }

    #[test]
    fn canary_detects_clobber() {
        if !cfg!(debug_assertions) {
            return;
        }
        let s = Stack::new(MIN_STACK_SIZE).unwrap();
        assert!(s.canary_intact());
        unsafe { s.base().write(0xAA) };
        assert!(!s.canary_intact());
        // Restore so drop does not panic.
        unsafe { s.base().cast::<usize>().write(super::CANARY) };
        assert!(s.canary_intact());
    }
}
