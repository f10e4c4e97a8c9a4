//! The chunk-scanning fast path must be invisible in the output: a
//! profile computed from a chunk-capable stream (bulk scans between PMU
//! overflows) is bit-identical to one computed by single-stepping every
//! access — histograms, event counts, and every floating-point estimate.
//!
//! Two layers of evidence:
//!
//! * a property test over random traces, periods, jitter, register
//!   counts, and deliberately tiny chunk capacities (so overflow gaps
//!   and armed-watchpoint lifetimes straddle chunk borders), and
//! * the registry golden digest from `metrics_determinism.rs`, re-run
//!   with every workload materialized and profiled through the fast
//!   path: the digest recorded from the slow loop must reproduce.

use memsim::KernelChoice;
use proptest::prelude::*;
use rdx_core::{RdxConfig, RdxProfile, RdxRunner};
use rdx_histogram::Histogram;
use rdx_trace::{Chunked, Opaque, Trace};
use rdx_workloads::{suite, Params};

/// Every scan-kernel selection the golden digest must survive. `Swar`
/// (no scan kernel of its own) and `Simd` on hosts without AVX2 resolve
/// by table rule — still distinct dispatch paths worth pinning.
const KERNELS: [KernelChoice; 4] = [
    KernelChoice::Auto,
    KernelChoice::Scalar,
    KernelChoice::Swar,
    KernelChoice::Simd,
];

/// Field-by-field bit equality of two profiles (floats by bit pattern:
/// "close" is not good enough — the fast path claims identity).
fn assert_profiles_identical(label: &str, a: &RdxProfile, b: &RdxProfile) {
    assert_eq!(a.rd, b.rd, "{label}: rd histogram");
    assert_eq!(a.rt, b.rt, "{label}: rt histogram");
    assert_eq!(a.accesses, b.accesses, "{label}: accesses");
    assert_eq!(a.samples, b.samples, "{label}: samples");
    assert_eq!(a.traps, b.traps, "{label}: traps");
    assert_eq!(a.evictions, b.evictions, "{label}: evictions");
    assert_eq!(a.end_censored, b.end_censored, "{label}: end_censored");
    assert_eq!(
        a.dropped_samples, b.dropped_samples,
        "{label}: dropped_samples"
    );
    assert_eq!(
        a.duplicate_samples, b.duplicate_samples,
        "{label}: duplicate_samples"
    );
    assert_eq!(
        a.m_estimate.to_bits(),
        b.m_estimate.to_bits(),
        "{label}: m_estimate {} vs {}",
        a.m_estimate,
        b.m_estimate
    );
    assert_eq!(
        a.time_overhead.to_bits(),
        b.time_overhead.to_bits(),
        "{label}: time_overhead {} vs {}",
        a.time_overhead,
        b.time_overhead
    );
    assert_eq!(
        a.profiler_bytes, b.profiler_bytes,
        "{label}: profiler_bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end profile equality: slow loop vs zero-copy fast path vs
    /// buffered small chunks, over arbitrary load/store traces and
    /// machine configurations.
    #[test]
    fn profiles_identical_across_execution_paths(
        accesses in prop::collection::vec((0u64..512, any::<bool>()), 300..3000),
        period in 8u64..300,
        jittered in any::<bool>(),
        registers in 1usize..6,
        chunk_capacity in 3usize..160,
        seed in any::<u64>(),
        kernel_idx in 0usize..KERNELS.len(),
    ) {
        let trace: Trace = accesses.iter().map(|&(a, s)| (a * 8, s)).collect();
        let mut config = RdxConfig::default()
            .with_period(period)
            .with_registers(registers)
            .with_seed(seed)
            .with_scan_kernel(KERNELS[kernel_idx]);
        config.machine.sampling.jitter = if jittered { period / 8 } else { 0 };
        let runner = RdxRunner::new(config);

        // Slow loop: chunk capability hidden behind Opaque.
        let slow = runner.profile(Opaque::new(trace.stream()));
        // Fast path: the materialized trace is one zero-copy chunk.
        let fast = runner.profile(trace.stream());
        // Fast path over tiny buffered chunks: every overflow gap spans
        // several refills.
        let chunked = runner.profile(Chunked::with_capacity(
            Opaque::new(trace.stream()),
            chunk_capacity,
        ));

        assert_profiles_identical("fast vs slow", &fast, &slow);
        assert_profiles_identical("chunked vs slow", &chunked, &slow);
    }
}

/// FNV-1a over u64 words — the same digest as `metrics_determinism.rs`,
/// so the two tests pin the same baseline.
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

/// Must match `GOLDEN` in `metrics_determinism.rs`, which profiles the
/// same registry point through generator streams (the slow loop).
const GOLDEN: u64 = 0x17ea_4869_2cad_4966;

/// The registry digest through the fast path with one kernel forced.
fn registry_digest_with_kernel(kernel: KernelChoice) -> u64 {
    let params = Params::default().with_accesses(60_000).with_elements(800);
    let config = RdxConfig::default()
        .with_period(512)
        .with_seed(7)
        .with_scan_kernel(kernel);
    let mut digest = Digest::new();
    for w in suite() {
        // Materializing forces the zero-copy chunk fast path (generator
        // streams are not chunk-capable and would single-step).
        let trace = Trace::from_stream(w.name, w.stream(&params));
        let p = RdxRunner::new(config).profile(trace.stream());
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
fn fast_path_reproduces_registry_golden_digest() {
    for kernel in KERNELS {
        let got = registry_digest_with_kernel(kernel);
        assert_eq!(
            got,
            GOLDEN,
            "fast-path registry digest {got:#018x} with scan kernel '{}' \
             deviates from the slow-loop baseline — every kernel must be \
             bit-identical",
            kernel.name(),
        );
    }
}
