//! Materialized traces.

use crate::event::{Access, AccessKind, Address};
use crate::stream::AccessStream;

/// A materialized memory access trace.
///
/// Accesses are stored packed (address plus a kind bit folded into a `u64`
/// pair) to keep large traces affordable; tests and small experiments use
/// this form, while long-running workloads stream instead (see
/// [`AccessStream`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    accesses: Vec<Access>,
}

impl Trace {
    /// Names are clamped to [`crate::io::MAX_NAME_LEN`] bytes at
    /// construction so serialization can never see a name whose length
    /// overflows the header's `u32` length field.
    fn checked_name(name: impl Into<String>) -> String {
        let name = name.into();
        if name.len() <= crate::io::MAX_NAME_LEN {
            return name;
        }
        crate::io::clamp_name(&name).to_owned()
    }

    /// Creates an empty trace with the given name (clamped to
    /// [`crate::io::MAX_NAME_LEN`] bytes).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: Self::checked_name(name),
            accesses: Vec::new(),
        }
    }

    /// Builds a trace of loads from raw addresses.
    #[must_use]
    pub fn from_addresses(name: impl Into<String>, addrs: impl IntoIterator<Item = u64>) -> Self {
        Trace {
            name: Self::checked_name(name),
            accesses: addrs.into_iter().map(Access::load).collect(),
        }
    }

    /// Accesses pre-reserved from a stream's `remaining_hint` before the
    /// `Vec` falls back to growth-by-doubling. A corrupt trace header can
    /// declare up to `u64::MAX` records; trusting that hint verbatim
    /// would abort in the allocator, so cap the up-front reservation
    /// (16Mi accesses = 256 MiB) and let honest oversized streams grow
    /// normally from there.
    const MAX_HINT_RESERVE: usize = 1 << 24;

    /// Materializes a stream into a trace.
    #[must_use]
    pub fn from_stream(name: impl Into<String>, mut stream: impl AccessStream) -> Self {
        let mut accesses = Vec::with_capacity(
            stream
                .remaining_hint()
                .map_or(0, |h| usize::try_from(h).unwrap_or(usize::MAX))
                .min(Self::MAX_HINT_RESERVE),
        );
        while let Some(a) = stream.next_access() {
            accesses.push(a);
        }
        Trace {
            name: Self::checked_name(name),
            accesses,
        }
    }

    /// Test-only: bypasses the construction-time name clamp so the
    /// serializer's own oversized-name rejection stays testable.
    #[cfg(test)]
    pub(crate) fn with_unchecked_name(name: String) -> Self {
        Trace {
            name,
            accesses: Vec::new(),
        }
    }

    /// The trace's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Returns true if the trace holds no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Appends an access.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(access);
    }

    /// The accesses as a slice.
    #[must_use]
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// Creates a replaying stream borrowing this trace: the slice of
    /// its accesses, a chunk-capable [`AccessStream`].
    #[must_use]
    pub fn stream(&self) -> &[Access] {
        &self.accesses
    }

    /// The distinct block numbers touched, at the given address shift
    /// (0 = byte granularity). Mostly used by trace statistics and tests.
    #[must_use]
    pub fn distinct_blocks(&self, shift: u32) -> u64 {
        // Sort + dedup instead of a hash set: deterministic and free of
        // SipHash's per-process seed (rdx-trace is a hot crate).
        let mut blocks: Vec<u64> = self
            .accesses
            .iter()
            .map(|a| a.addr.raw() >> shift)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks.len() as u64
    }
}

impl Extend<Access> for Trace {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        Trace {
            name: String::new(),
            accesses: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

/// Convenience: build a load/store trace from `(addr, is_store)` pairs.
impl FromIterator<(u64, bool)> for Trace {
    fn from_iter<T: IntoIterator<Item = (u64, bool)>>(iter: T) -> Self {
        Trace {
            name: String::new(),
            accesses: iter
                .into_iter()
                .map(|(addr, is_store)| Access {
                    addr: Address::new(addr),
                    kind: if is_store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_replay() {
        let t = Trace::from_addresses("t", [1u64, 2, 1]);
        assert_eq!(t.name(), "t");
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let mut s = t.stream();
        assert_eq!(s.remaining_hint(), Some(3));
        assert_eq!(s.next_access().unwrap().addr.raw(), 1);
        assert_eq!(s.remaining_hint(), Some(2));
        let rest: Vec<u64> = s.iter().map(|a| a.addr.raw()).collect();
        assert_eq!(rest, vec![2, 1]);
    }

    #[test]
    fn from_stream_roundtrip() {
        let t = Trace::from_addresses("src", 0..100u64);
        let t2 = Trace::from_stream("copy", t.stream());
        assert_eq!(t2.len(), 100);
        assert_eq!(t.accesses(), t2.accesses());
    }

    #[test]
    fn collect_from_pairs() {
        let t: Trace = [(0x40u64, false), (0x80, true)].into_iter().collect();
        assert_eq!(t.accesses()[0].kind, AccessKind::Load);
        assert_eq!(t.accesses()[1].kind, AccessKind::Store);
    }

    #[test]
    fn extend_and_push() {
        let mut t = Trace::new("x");
        t.push(Access::load(1u64));
        t.extend([Access::store(2u64), Access::load(3u64)]);
        assert_eq!(t.len(), 3);
        let kinds: Vec<bool> = t.iter().map(|a| a.kind.is_store()).collect();
        assert_eq!(kinds, vec![false, true, false]);
    }

    #[test]
    fn distinct_blocks_by_shift() {
        // 0, 8, 64: 3 distinct bytes, 2 distinct 64B lines (0 and 1)
        let t = Trace::from_addresses("d", [0u64, 8, 64]);
        assert_eq!(t.distinct_blocks(0), 3);
        assert_eq!(t.distinct_blocks(6), 2);
        assert_eq!(t.distinct_blocks(12), 1);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("e");
        assert!(t.is_empty());
        assert_eq!(t.stream().count_remaining(), 0);
        assert_eq!(t.distinct_blocks(0), 0);
    }

    #[test]
    fn oversized_names_clamped_at_construction() {
        let max = crate::io::MAX_NAME_LEN;
        let long = "n".repeat(max + 100);
        for t in [
            Trace::new(long.clone()),
            Trace::from_addresses(long.clone(), [1u64, 2]),
            Trace::from_stream(long.clone(), Trace::new("x").stream()),
        ] {
            assert_eq!(t.name().len(), max, "clamped to the serializable bound");
        }
        // Clamping lands on a char boundary, never mid-codepoint.
        let unicode = "é".repeat(max); // 2 bytes per char -> 2*max bytes
        let t = Trace::new(unicode);
        assert!(t.name().len() <= max);
        assert!(t.name().chars().all(|c| c == 'é'));
    }
}
