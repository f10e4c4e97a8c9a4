//! Property tests for the profiler pipeline: mass conservation, bounded
//! estimates, and Kaplan–Meier sanity under arbitrary observations.

use proptest::prelude::*;
use rdx_core::km::{KaplanMeier, Observation};
use rdx_core::{RdxConfig, RdxRun, RdxRunner, ReplacementPolicy};
use rdx_trace::Trace;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any trace, the profile's histogram mass equals the access
    /// count, the cold estimate is within [0, n], and overheads are
    /// non-negative.
    #[test]
    fn profile_mass_and_bounds(
        addrs in prop::collection::vec(0u64..256, 200..3000),
        period in 20u64..300,
    ) {
        let trace = Trace::from_addresses("p", addrs.iter().map(|a| a * 8));
        let profile = RdxRunner::new(RdxConfig::default().with_period(period))
            .profile(trace.stream());
        let n = profile.accesses as f64;
        if profile.samples == 0 {
            // a run shorter than one sampling period observes nothing —
            // the histogram is honestly empty rather than fabricated
            prop_assert_eq!(profile.rd.total_weight(), 0.0);
        } else {
            prop_assert!((profile.rd.total_weight() - n).abs() < 1e-6 * n.max(1.0));
            prop_assert!((profile.rt.total_weight() - n).abs() < 1e-6 * n.max(1.0));
        }
        prop_assert!(profile.m_estimate >= 0.0 && profile.m_estimate <= n + 1e-9);
        prop_assert!(profile.time_overhead >= 0.0);
        prop_assert!(profile.profiler_bytes > 0);
    }

    /// A run fed in pieces snapshots, after every piece, exactly the
    /// profile of the prefix fed so far — every field, memory
    /// accounting included — and finishes to the profile of the whole.
    #[test]
    fn snapshots_equal_prefix_profiles(
        addrs in prop::collection::vec(0u64..512, 1..4000),
        cuts in prop::collection::vec(any::<u64>(), 0..6),
        period in 20u64..300,
        evict_random in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let trace = Trace::from_addresses("s", addrs.iter().map(|a| a * 8));
        let policy = if evict_random {
            ReplacementPolicy::EvictRandom
        } else {
            ReplacementPolicy::EvictOldest
        };
        let config = RdxConfig::default()
            .with_period(period)
            .with_seed(seed)
            .with_replacement(policy);
        let runner = RdxRunner::new(config);
        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| (c % (trace.len() as u64 + 1)) as usize)
            .collect();
        points.sort_unstable();
        points.push(trace.len());
        let mut run = RdxRun::new(&config);
        let mut at = 0;
        for &to in &points {
            run.feed(&trace.accesses()[at..to]);
            at = to;
            prop_assert_eq!(run.snapshot(), runner.profile(&trace.accesses()[..to]));
        }
        prop_assert_eq!(run.finish(), runner.profile(trace.stream()));
    }

    /// Kaplan–Meier survival is in [0,1], non-increasing, and IPCW weights
    /// are ≥ 1 and capped by the floor.
    #[test]
    fn km_shape(obs in prop::collection::vec((1u64..1000, any::<bool>()), 0..200)) {
        let observations: Vec<Observation> = obs
            .iter()
            .map(|&(duration, evicted)| Observation { duration, evicted })
            .collect();
        let km = KaplanMeier::fit(&observations);
        let mut last = 1.0f64;
        for t in (0..1100).step_by(37) {
            let s = km.survival(t);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(s <= last + 1e-12);
            last = s;
            let w = km.inverse_weight(t);
            prop_assert!(w >= 1.0 - 1e-12);
            prop_assert!(w <= 1.0 / KaplanMeier::DEFAULT_FLOOR + 1e-9);
        }
    }
}

/// Historical shrink from `proptests.proptest-regressions`, pinned as an
/// explicit case because the vendored proptest shim does not replay that
/// file: 200 accesses profiled with period 258. The run is shorter than
/// one (jittered) sampling period, so the profiler takes zero samples and
/// the profile must be honestly empty — not scaled up from nothing — while
/// the estimates stay in bounds.
#[test]
fn regression_short_run_period_258_yields_empty_profile() {
    const ADDRS: [u64; 200] = [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 47, 123, 75, 131, 151, 150, 89, 27, 81, 90, 116,
        109, 171, 43, 211, 56, 183, 50, 74, 42, 9, 132, 162, 20, 221, 63, 32, 127, 137, 50, 115,
        133, 26, 253, 193, 135, 168, 189, 142, 59, 193, 255, 234, 51, 52, 77, 111, 204, 111, 166,
        154, 69, 116, 1, 217, 193, 130, 95, 54, 62, 174, 50, 108, 224, 184, 174, 220, 89, 203, 202,
        103, 50, 73, 157, 172, 58, 123, 108, 154, 158, 223, 169, 177, 53, 199, 71, 0, 154, 206,
        228, 173, 187, 159, 116, 64, 42, 47, 32, 89, 119, 73, 105, 190, 20, 201, 98, 213, 29, 129,
        39, 114, 59, 124, 85, 99, 60, 247, 81, 194, 92, 31, 222, 250, 61, 101, 158, 100, 158, 207,
        38, 158, 103, 169, 241, 128, 145, 137, 55, 157, 207, 29, 169, 107, 105, 12, 57, 234, 41,
        135, 143, 124, 98, 146, 151, 12, 3, 196, 196, 43, 139, 222, 17, 209, 168, 26, 85, 60, 207,
        47, 73, 46, 13, 211, 70, 150, 10, 202, 52, 69, 184, 197, 153, 47, 207, 183, 145, 152,
    ];
    let trace = Trace::from_addresses("p", ADDRS.iter().map(|a| a * 8));
    let profile = RdxRunner::new(RdxConfig::default().with_period(258)).profile(trace.stream());
    let n = profile.accesses as f64;
    if profile.samples == 0 {
        assert_eq!(profile.rd.total_weight(), 0.0);
    } else {
        assert!((profile.rd.total_weight() - n).abs() < 1e-6 * n.max(1.0));
        assert!((profile.rt.total_weight() - n).abs() < 1e-6 * n.max(1.0));
    }
    assert!(profile.m_estimate >= 0.0 && profile.m_estimate <= n + 1e-9);
    assert!(profile.time_overhead >= 0.0);
    assert!(profile.profiler_bytes > 0);
}
