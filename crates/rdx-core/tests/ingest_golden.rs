//! File-backed ingestion must be invisible in the output: profiling an
//! RDXT-serialized workload through the bulk-decoding reader reproduces
//! the exact registry golden digest that `metrics_determinism.rs` recorded from in-memory
//! generator streams and `fastpath_equivalence.rs` reproduced through
//! the chunk fast path. Same constant, third execution shape.

use rdx_core::{IngestOptions, RdxConfig, RdxRunner, RdxtInput};
use rdx_histogram::Histogram;
use rdx_trace::{io, Trace};
use rdx_workloads::{suite, Params};

/// FNV-1a over u64 words — the same digest as `metrics_determinism.rs`
/// and `fastpath_equivalence.rs`, so all three tests pin one baseline.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_histogram(&mut self, h: &Histogram) {
        for b in h.buckets() {
            self.push(b.range.lo);
            self.push(b.range.hi);
            self.push(b.weight.to_bits());
        }
        self.push(h.infinite_weight().to_bits());
    }
}

/// Must match `GOLDEN` in `metrics_determinism.rs` and
/// `fastpath_equivalence.rs`.
const GOLDEN: u64 = 0x17ea_4869_2cad_4966;

fn registry_digest_through_files(opts: &IngestOptions) -> u64 {
    let params = Params::default().with_accesses(60_000).with_elements(800);
    let config = RdxConfig::default().with_period(512).with_seed(7);
    let runner = RdxRunner::new(config);
    let mut digest = Digest::new();
    for w in suite() {
        // Serialize the workload to RDXT bytes and profile it back
        // through the file-backed ingestion path.
        let trace = Trace::from_stream(w.name, w.stream(&params));
        let raw = io::to_bytes(&trace);
        let input = RdxtInput::from_bytes(w.name, raw).expect("valid RDXT bytes");
        let (p, verdict) = runner.profile_rdxt(input, opts);
        assert!(verdict.is_ok(), "{}: clean decode expected", w.name);
        digest.push_histogram(p.rd.as_histogram());
        digest.push_histogram(p.rt.as_histogram());
        digest.push(p.samples);
        digest.push(p.traps);
        digest.push(p.evictions);
        digest.push(p.m_estimate.to_bits());
    }
    digest.0
}

#[test]
fn bulk_ingestion_reproduces_registry_golden_digest() {
    let got = registry_digest_through_files(&IngestOptions::default());
    assert_eq!(
        got, GOLDEN,
        "bulk file-backed registry digest {got:#018x} deviates from the \
         in-memory baseline — the bulk decoder must be bit-identical",
    );
}

#[test]
fn odd_chunk_capacity_reproduces_the_digest() {
    // Chunk borders must never matter: a tiny odd capacity forces PMU
    // overflow gaps and armed-watchpoint lifetimes to straddle chunks.
    let got = registry_digest_through_files(&IngestOptions::default().with_chunk_capacity(777));
    assert_eq!(got, GOLDEN, "capacity 777 digest {got:#018x}");
}

#[test]
fn every_decode_kernel_reproduces_the_digest() {
    // Kernel dispatch must be invisible: forcing each decode kernel
    // (simd degrades to SWAR by table rule — still a distinct path)
    // lands on the same bits.
    use rdx_trace::KernelChoice;
    for kernel in [
        KernelChoice::Auto,
        KernelChoice::Scalar,
        KernelChoice::Swar,
        KernelChoice::Simd,
    ] {
        let got =
            registry_digest_through_files(&IngestOptions::default().with_decode_kernel(kernel));
        assert_eq!(
            got,
            GOLDEN,
            "decode kernel '{}' digest {got:#018x} deviates — every kernel \
             must be bit-identical",
            kernel.name(),
        );
    }
}
