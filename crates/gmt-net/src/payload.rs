//! Pooled, zero-copy message payloads.
//!
//! A [`Payload`] owns the bytes of one message. Three representations:
//!
//! * *plain* — a `Vec<u8>` the fabric frees normally;
//! * *pooled* — the buffer came from a fixed sender-side pool and carries
//!   a [`BufRelease`] hook. When the payload is dropped — after the
//!   receiver processed it, or on a failed send — the buffer flows back to
//!   its pool instead of the allocator, the in-process equivalent of a NIC
//!   completing its read of a registered send buffer;
//! * *shared* — the bytes (and the pool obligation, if any) live behind an
//!   `Arc`, so several payload handles can reference one buffer without
//!   copying. [`Payload::share`] converts in place and hands back a second
//!   handle. This is what a reliability layer needs: one handle travels to
//!   the receiver, the other sits in the retransmit queue keeping the
//!   buffer alive (and out of its pool) until the transfer is acked.
//!   The pool sees the buffer exactly once, when the *last* handle drops.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Receives spent pooled buffers back (typically: clears and re-pools).
pub trait BufRelease: Send + Sync {
    /// Called exactly once with the buffer when its [`Payload`] drops.
    fn release(&self, buf: Vec<u8>);
}

/// Shared backing store of a [`Payload::share`]d payload. Releases the
/// pool obligation when the last handle drops.
struct SharedBuf {
    buf: Vec<u8>,
    release: Option<Arc<dyn BufRelease>>,
}

impl Drop for SharedBuf {
    fn drop(&mut self) {
        if let Some(hook) = self.release.take() {
            hook.release(std::mem::take(&mut self.buf));
        }
    }
}

enum Repr {
    Plain(Vec<u8>),
    Pooled(Vec<u8>, Arc<dyn BufRelease>),
    Shared(Arc<SharedBuf>),
}

/// The bytes of one message, with an optional return-to-pool obligation.
pub struct Payload {
    repr: Repr,
}

impl Payload {
    /// Wraps a pooled buffer; `hook.release(buf)` runs on drop.
    pub fn pooled(buf: Vec<u8>, hook: Arc<dyn BufRelease>) -> Self {
        Payload { repr: Repr::Pooled(buf, hook) }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Plain(b) => b,
            Repr::Pooled(b, _) => b,
            Repr::Shared(s) => &s.buf,
        }
    }

    /// `true` if this payload returns its buffer to a pool on drop (either
    /// directly or through the last shared handle).
    pub fn is_pooled(&self) -> bool {
        match &self.repr {
            Repr::Plain(_) => false,
            Repr::Pooled(..) => true,
            Repr::Shared(s) => s.release.is_some(),
        }
    }

    /// `true` if this payload shares its bytes with other handles.
    pub fn is_shared(&self) -> bool {
        matches!(self.repr, Repr::Shared(_))
    }

    /// Copies the bytes out into an owned, unpooled `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Overwrites `self[offset..offset + bytes.len()]` in place.
    ///
    /// Only valid on exclusively-owned payloads (plain or pooled): a
    /// reliability layer patches its header *before* sharing the buffer
    /// with the fabric.
    ///
    /// # Panics
    ///
    /// Panics on a shared payload or an out-of-range patch.
    pub fn patch(&mut self, offset: usize, bytes: &[u8]) {
        let buf = match &mut self.repr {
            Repr::Plain(b) => b,
            Repr::Pooled(b, _) => b,
            Repr::Shared(_) => panic!("cannot patch a shared payload"),
        };
        buf[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Converts this payload to the shared representation (a no-op if it
    /// already is) and returns a second handle to the same bytes. No copy
    /// is made; a pooled buffer returns to its pool when the *last* handle
    /// drops.
    pub fn share(&mut self) -> Payload {
        let repr = std::mem::replace(&mut self.repr, Repr::Plain(Vec::new()));
        let shared = match repr {
            Repr::Plain(buf) => Arc::new(SharedBuf { buf, release: None }),
            Repr::Pooled(buf, hook) => Arc::new(SharedBuf { buf, release: Some(hook) }),
            Repr::Shared(s) => s,
        };
        self.repr = Repr::Shared(Arc::clone(&shared));
        Payload { repr: Repr::Shared(shared) }
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        if let Repr::Pooled(buf, hook) = std::mem::replace(&mut self.repr, Repr::Plain(Vec::new()))
        {
            hook.release(buf);
        }
        // Plain: freed normally. Shared: SharedBuf's drop releases once,
        // when the last handle goes.
    }
}

impl From<Vec<u8>> for Payload {
    fn from(buf: Vec<u8>) -> Self {
        Payload { repr: Repr::Plain(buf) }
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Cloning a *shared* payload is a cheap handle copy (same bytes, pool
/// released once, by the last handle). Cloning a plain or pooled payload
/// clones the bytes into a plain payload — releasing one pooled buffer
/// twice would corrupt the pool accounting.
impl Clone for Payload {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Shared(s) => Payload { repr: Repr::Shared(Arc::clone(s)) },
            other => Payload {
                repr: Repr::Plain(match other {
                    Repr::Plain(b) => b.clone(),
                    Repr::Pooled(b, _) => b.clone(),
                    Repr::Shared(_) => unreachable!(),
                }),
            },
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.as_slice().len())
            .field("pooled", &self.is_pooled())
            .field("shared", &self.is_shared())
            .finish()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Recorder {
        returned: Mutex<Vec<Vec<u8>>>,
    }

    impl Recorder {
        fn arc() -> Arc<Self> {
            Arc::new(Recorder { returned: Mutex::new(Vec::new()) })
        }

        fn count(&self) -> usize {
            self.returned.lock().unwrap().len()
        }
    }

    impl BufRelease for Recorder {
        fn release(&self, buf: Vec<u8>) {
            self.returned.lock().unwrap().push(buf);
        }
    }

    #[test]
    fn plain_payload_has_no_hook() {
        let p: Payload = vec![1, 2, 3].into();
        assert!(!p.is_pooled());
        assert_eq!(p, vec![1, 2, 3]);
        assert_eq!(&p[..2], &[1, 2]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn pooled_payload_releases_on_drop() {
        let rec = Recorder::arc();
        let p = Payload::pooled(vec![7, 8], Arc::clone(&rec) as Arc<dyn BufRelease>);
        assert!(p.is_pooled());
        drop(p);
        let returned = rec.returned.lock().unwrap();
        assert_eq!(returned.as_slice(), &[vec![7, 8]]);
    }

    #[test]
    fn clone_is_plain_and_releases_once() {
        let rec = Recorder::arc();
        let p = Payload::pooled(vec![9], Arc::clone(&rec) as Arc<dyn BufRelease>);
        let c = p.clone();
        assert!(!c.is_pooled());
        assert_eq!(p, c);
        drop(c);
        assert_eq!(rec.count(), 0);
        drop(p);
        assert_eq!(rec.count(), 1);
    }

    #[test]
    fn shared_handles_release_exactly_once_at_the_last_drop() {
        let rec = Recorder::arc();
        let mut p = Payload::pooled(vec![1, 2, 3], Arc::clone(&rec) as Arc<dyn BufRelease>);
        let wire = p.share();
        assert!(p.is_shared() && wire.is_shared());
        assert!(p.is_pooled() && wire.is_pooled());
        assert_eq!(wire, vec![1, 2, 3]);
        drop(wire);
        assert_eq!(rec.count(), 0, "released while a handle was live");
        drop(p);
        assert_eq!(rec.count(), 1);
    }

    #[test]
    fn shared_clone_is_another_cheap_handle() {
        let rec = Recorder::arc();
        let mut p = Payload::pooled(vec![5], Arc::clone(&rec) as Arc<dyn BufRelease>);
        let a = p.share();
        let b = a.clone();
        assert!(b.is_shared());
        drop(p);
        drop(a);
        assert_eq!(rec.count(), 0);
        drop(b);
        assert_eq!(rec.count(), 1);
    }

    #[test]
    fn patch_edits_exclusive_payloads_in_place() {
        let mut p: Payload = vec![0u8; 4].into();
        p.patch(1, &[9, 8]);
        assert_eq!(p, vec![0, 9, 8, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot patch a shared payload")]
    fn patch_rejects_shared_payloads() {
        let mut p: Payload = vec![0u8; 4].into();
        let _other = p.share();
        p.patch(0, &[1]);
    }

    #[test]
    fn share_of_plain_payload_works() {
        let mut p: Payload = vec![1, 2].into();
        let q = p.share();
        assert_eq!(p, q);
        assert!(!p.is_pooled());
    }
}
