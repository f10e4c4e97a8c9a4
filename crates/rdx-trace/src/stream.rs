//! Pull-based access streams.

use crate::chunk::Chunked;
use crate::event::Access;

/// A pull-based stream of memory accesses.
///
/// This is the interface every trace producer (workload generators, trace
/// files, replayers) implements and every consumer (the simulated machine,
/// ground-truth measurement, baselines) drives. It is deliberately not
/// `Iterator`: streams are commonly trait objects threaded through the
/// machine model, and the narrower contract (no `size_hint`, no adapter zoo)
/// keeps implementations simple. Use [`AccessStream::by_ref`]-style mutable
/// borrows to compose, and [`iter`](AccessStream::iter) to bridge into
/// iterator land when convenient.
pub trait AccessStream {
    /// Produces the next access, or `None` when the workload has finished.
    fn next_access(&mut self) -> Option<Access>;

    /// A lower/upper bound on remaining accesses, if cheaply known.
    ///
    /// Used only for progress reporting and preallocation; `None` means
    /// unknown.
    fn remaining_hint(&self) -> Option<u64> {
        None
    }

    /// Caps the stream at `n` accesses.
    fn take(self, n: u64) -> Take<Self>
    where
        Self: Sized,
    {
        Take {
            inner: self,
            left: n,
        }
    }

    /// Bridges this stream into a standard [`Iterator`].
    fn iter(&mut self) -> Iter<'_, Self>
    where
        Self: Sized,
    {
        Iter { stream: self }
    }

    /// Drains the stream, counting accesses. Useful in tests.
    fn count_remaining(&mut self) -> u64 {
        let mut n = 0;
        while self.next_access().is_some() {
            n += 1;
        }
        n
    }

    /// Whether [`next_chunk`](AccessStream::next_chunk) can ever return
    /// a slice for this stream.
    ///
    /// A `false` answer lets consumers and adapters skip per-iteration
    /// chunk probes (and lets wrappers pick a pass-through vs. buffering
    /// strategy up front). Capability is a property of the stream's
    /// construction, not its position: implementations must return a
    /// constant for the lifetime of the stream.
    fn chunk_capable(&self) -> bool {
        false
    }

    /// Peeks at the next contiguous run of pending accesses as a slice,
    /// or `None` when the stream is exhausted (or cannot expose slices —
    /// see [`chunk_capable`](AccessStream::chunk_capable)).
    ///
    /// This does **not** advance the stream: after inspecting the slice,
    /// call [`consume_chunk`](AccessStream::consume_chunk) with the
    /// number of leading accesses actually processed. The split mirrors
    /// `BufRead::fill_buf`/`consume` and keeps the trait object-safe
    /// while letting wrappers update their own state outside the
    /// borrow's lifetime. A returned slice is never empty, and repeated
    /// peeks without an intervening consume return the same accesses.
    fn next_chunk(&mut self) -> Option<&[Access]> {
        None
    }

    /// Advances the stream past the first `n` accesses of the slice
    /// last returned by [`next_chunk`](AccessStream::next_chunk).
    ///
    /// Calling this with `n` larger than that slice's length, or without
    /// a preceding `next_chunk`, is a contract violation; implementations
    /// may panic or desynchronize. The default (for streams that never
    /// produce chunks) accepts only `n == 0`.
    fn consume_chunk(&mut self, n: usize) {
        debug_assert_eq!(n, 0, "consume_chunk without a chunk to consume");
    }

    /// Re-exposes this stream through a buffering adapter whose
    /// [`next_chunk`](AccessStream::next_chunk) always works: streaming
    /// sources are batched into slices of at most `capacity` accesses,
    /// while already chunk-capable sources pass straight through.
    fn into_chunks(self, capacity: usize) -> Chunked<Self>
    where
        Self: Sized,
    {
        Chunked::with_capacity(self, capacity)
    }
}

impl<S: AccessStream + ?Sized> AccessStream for &mut S {
    fn next_access(&mut self) -> Option<Access> {
        (**self).next_access()
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }

    fn chunk_capable(&self) -> bool {
        (**self).chunk_capable()
    }

    fn next_chunk(&mut self) -> Option<&[Access]> {
        (**self).next_chunk()
    }

    fn consume_chunk(&mut self, n: usize) {
        (**self).consume_chunk(n);
    }
}

impl<S: AccessStream + ?Sized> AccessStream for Box<S> {
    fn next_access(&mut self) -> Option<Access> {
        (**self).next_access()
    }

    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }

    fn chunk_capable(&self) -> bool {
        (**self).chunk_capable()
    }

    fn next_chunk(&mut self) -> Option<&[Access]> {
        (**self).next_chunk()
    }

    fn consume_chunk(&mut self, n: usize) {
        (**self).consume_chunk(n);
    }
}

/// A borrowed slice replays as a chunk-capable stream, shrinking from
/// the front as accesses are consumed (the way `&[u8]` implements
/// `Read`): the whole unread remainder is one zero-copy chunk.
impl AccessStream for &[Access] {
    fn next_access(&mut self) -> Option<Access> {
        let (&first, rest) = self.split_first()?;
        *self = rest;
        Some(first)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.len() as u64)
    }

    fn chunk_capable(&self) -> bool {
        true
    }

    fn next_chunk(&mut self) -> Option<&[Access]> {
        (!self.is_empty()).then_some(*self)
    }

    fn consume_chunk(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        *self = self.get(n..).unwrap_or_default();
    }
}

/// Stream adapter limiting the number of accesses; created by
/// [`AccessStream::take`].
#[derive(Debug, Clone)]
pub struct Take<S> {
    inner: S,
    left: u64,
}

impl<S: AccessStream> AccessStream for Take<S> {
    fn next_access(&mut self) -> Option<Access> {
        if self.left == 0 {
            return None;
        }
        let a = self.inner.next_access()?;
        self.left -= 1;
        Some(a)
    }

    fn remaining_hint(&self) -> Option<u64> {
        match self.inner.remaining_hint() {
            Some(r) => Some(r.min(self.left)),
            None => Some(self.left),
        }
    }

    fn chunk_capable(&self) -> bool {
        self.inner.chunk_capable()
    }

    fn next_chunk(&mut self) -> Option<&[Access]> {
        let left = usize::try_from(self.left).unwrap_or(usize::MAX);
        if left == 0 {
            return None;
        }
        let chunk = self.inner.next_chunk()?;
        let visible = chunk.len().min(left);
        Some(&chunk[..visible])
    }

    fn consume_chunk(&mut self, n: usize) {
        self.inner.consume_chunk(n);
        self.left -= n as u64;
    }
}

/// Adapter that hides a stream's chunk capability; created by
/// [`Opaque::new`].
///
/// Exists so benchmarks and equivalence tests can force consumers onto
/// their per-access slow path (or force [`Chunked`] into buffering mode)
/// while replaying the exact same accesses.
#[derive(Debug, Clone)]
pub struct Opaque<S>(S);

impl<S: AccessStream> Opaque<S> {
    /// Wraps `stream`, forwarding accesses but never exposing chunks.
    pub fn new(stream: S) -> Self {
        Opaque(stream)
    }
}

impl<S: AccessStream> AccessStream for Opaque<S> {
    fn next_access(&mut self) -> Option<Access> {
        self.0.next_access()
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.0.remaining_hint()
    }
}

/// Iterator bridge over a borrowed stream; created by
/// [`AccessStream::iter`].
#[derive(Debug)]
pub struct Iter<'a, S> {
    stream: &'a mut S,
}

impl<S: AccessStream> Iterator for Iter<'_, S> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        self.stream.next_access()
    }
}

/// An [`AccessStream`] produced by a closure; handy in tests and examples.
///
/// The closure is called once per access and returns `None` to finish.
pub struct FnStream<F>(F);

impl<F: FnMut() -> Option<Access>> FnStream<F> {
    /// Wraps a closure as a stream.
    pub fn new(f: F) -> Self {
        FnStream(f)
    }
}

impl<F: FnMut() -> Option<Access>> AccessStream for FnStream<F> {
    fn next_access(&mut self) -> Option<Access> {
        (self.0)()
    }
}

impl<F> std::fmt::Debug for FnStream<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnStream(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Access;

    fn counting_stream(n: u64) -> impl AccessStream {
        let mut i = 0;
        FnStream::new(move || {
            if i < n {
                i += 1;
                Some(Access::load(i * 64))
            } else {
                None
            }
        })
    }

    #[test]
    fn fn_stream_produces() {
        let mut s = counting_stream(3);
        assert_eq!(s.next_access().unwrap().addr.raw(), 64);
        assert_eq!(s.next_access().unwrap().addr.raw(), 128);
        assert_eq!(s.next_access().unwrap().addr.raw(), 192);
        assert!(s.next_access().is_none());
        // streams are fused by construction here
        assert!(s.next_access().is_none());
    }

    #[test]
    fn slice_stream_serves_its_remainder_as_one_chunk() {
        let accesses = [Access::load(8), Access::store(16), Access::load(24)];
        let mut s: &[Access] = &accesses;
        assert!(s.chunk_capable());
        assert_eq!(s.next_access(), Some(accesses[0]));
        assert_eq!(s.next_chunk(), Some(&accesses[1..]));
        s.consume_chunk(1);
        assert_eq!(s.remaining_hint(), Some(1));
        assert_eq!(s.next_access(), Some(accesses[2]));
        assert_eq!(s.next_chunk(), None);
        assert_eq!(s.next_access(), None);
    }

    #[test]
    fn take_caps_stream() {
        let mut s = counting_stream(100).take(5);
        assert_eq!(s.remaining_hint(), Some(5));
        assert_eq!(s.count_remaining(), 5);
        assert_eq!(s.remaining_hint(), Some(0));
        assert!(s.next_access().is_none());
    }

    #[test]
    fn take_shorter_stream() {
        let mut s = counting_stream(2).take(10);
        assert_eq!(s.count_remaining(), 2);
    }

    #[test]
    fn iter_bridge() {
        let mut s = counting_stream(4);
        let addrs: Vec<u64> = s.iter().map(|a| a.addr.raw()).collect();
        assert_eq!(addrs, vec![64, 128, 192, 256]);
    }

    #[test]
    fn default_streams_are_not_chunk_capable() {
        let mut s = counting_stream(3);
        assert!(!s.chunk_capable());
        assert!(s.next_chunk().is_none());
        s.consume_chunk(0); // n == 0 is always allowed
        assert_eq!(s.count_remaining(), 3);
    }

    #[test]
    fn take_caps_chunks_at_budget() {
        let t = crate::Trace::from_addresses("t", (0..10u64).map(|i| i * 8));
        let mut s = t.stream().take(4);
        assert!(s.chunk_capable());
        let chunk = s.next_chunk().expect("chunk available");
        assert_eq!(chunk.len(), 4, "peek must not exceed the take budget");
        s.consume_chunk(3);
        let chunk = s.next_chunk().expect("one access left");
        assert_eq!(chunk.len(), 1);
        s.consume_chunk(1);
        assert!(s.next_chunk().is_none());
        assert!(s.next_access().is_none());
    }

    #[test]
    fn take_mixes_chunk_and_scalar_consumption() {
        let t = crate::Trace::from_addresses("t", (0..10u64).map(|i| i * 8));
        let mut s = t.stream().take(6);
        assert_eq!(s.next_access().unwrap().addr.raw(), 0);
        let chunk = s.next_chunk().expect("five left");
        assert_eq!(chunk.len(), 5);
        assert_eq!(chunk[0].addr.raw(), 8);
        s.consume_chunk(2);
        assert_eq!(s.next_access().unwrap().addr.raw(), 24);
        assert_eq!(s.count_remaining(), 2);
    }

    #[test]
    fn opaque_hides_chunk_capability() {
        let t = crate::Trace::from_addresses("t", (0..5u64).map(|i| i * 8));
        let mut s = Opaque::new(t.stream());
        assert!(!s.chunk_capable());
        assert!(s.next_chunk().is_none());
        assert_eq!(s.remaining_hint(), Some(5));
        assert_eq!(s.count_remaining(), 5);
    }

    #[test]
    fn chunk_forwarding_through_mut_ref_and_box() {
        let t = crate::Trace::from_addresses("t", (0..8u64).map(|i| i * 8));
        let mut s = t.stream();
        {
            let r: &mut dyn AccessStream = &mut s;
            assert!(r.chunk_capable());
            let len = r.next_chunk().expect("chunk").len();
            assert_eq!(len, 8);
            r.consume_chunk(5);
        }
        let mut b: Box<dyn AccessStream + '_> = Box::new(s);
        assert!(b.chunk_capable());
        assert_eq!(b.next_chunk().expect("tail chunk").len(), 3);
        b.consume_chunk(3);
        assert!(b.next_chunk().is_none());
    }

    #[test]
    fn stream_through_mut_ref_and_box() {
        let mut s = counting_stream(3);
        {
            // &mut S forwards the trait implementation
            let r: &mut dyn AccessStream = &mut s;
            assert!(r.next_access().is_some());
        }
        let mut b: Box<dyn AccessStream> = Box::new(s);
        assert_eq!(b.count_remaining(), 2);
    }
}
