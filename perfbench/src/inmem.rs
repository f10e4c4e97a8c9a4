//! `inmem_accuracy`: all 18 registry kernels as in-memory `Trace`s,
//! profiled with `RdxRunner::profile` at period 2048 (the F5 accuracy
//! operating point) and scored against exact Olken histograms.
//!
//! *Why this workload:* decode does no work here and the machine does
//! almost all of it, so a decode change must show no change on it,
//! while a scan or profiler-handler change shows in full. It is also
//! the workload that shows any accuracy a change loses.
//!
//! It is not in `BENCHMARK.json`: whole runs slow down with the host by
//! up to 30 % on its profile calls and 45 % on its snapshot merges,
//! twice what the host-speed probe sees, so its wall-time metrics
//! spread past their bounds. Its accuracy and modeled overheads are
//! deterministic; run it by hand for those, and for wall times compare
//! runs made back to back.
//!
//! Set-up builds the traces at the registry's default 60 k-element
//! footprint and profiles each under every sampler seed of the
//! rotation: the bit-identity references. The traces are kept small
//! (each fits a core's L2, which also keeps the host's memory bandwidth
//! out of the numbers) and every pass profiles each kernel once per
//! sampler seed, back to back:
//!
//! * **close** — one `RdxRunner::profile` call (trace → histogram);
//! * **snapshot** — after each kernel, one read of the suite estimate
//!   so far: `merge_batch` over every profile of the pass so far
//!   (`rdx suite --merge`).
//!
//! `rd_accuracy` scores every profile, one per kernel and sampler seed,
//! against exact ground truth: the geo-mean over kernels × seeds of
//! single period-2048 profiles, as on the other workloads.
//!
//! Layer map: `memsim.machine_s` (timed with a bare `Machine::run` on
//! the same trace) and `rdx-core.runner.post_s` (censor + convert =
//! profile − machine) move `accesses_per_s` and `close_ms_p50`;
//! `rdx-core.merge_s` moves `snapshot_ms_*`; `rdx-core.rt_accuracy`
//! against `rd_accuracy` separates sampling loss from conversion loss.

use crate::common::{
    accuracy, exact_all, geo_mean, lap, repeat_setup, same_bits, secs, timed, timed_phase, Args,
    LayerClock, Outcome, Pass, Scale, SAMPLER_SEEDS,
};
use memsim::Machine;
use rdx_core::{encode_profile, merge_batch, RdxConfig, RdxProfile, RdxProfiler, RdxRunner};
use rdx_groundtruth::ExactProfile;
use rdx_trace::Trace;
use rdx_workloads::{suite, Params};
use std::time::Instant;

/// The F5 operating point.
const PERIOD: u64 = 2048;

/// (accesses, footprint elements) per kernel. A full-size trace
/// (16 bytes per access) fits a core's L2, so the repeated profile runs
/// measure the machine model rather than the host's memory bandwidth.
fn sizes(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (120_000, Params::default().elements),
        Scale::Tiny => (20_000, 2_000),
    }
}

struct Kernel {
    trace: Trace,
    app_bytes: u64,
    /// Reference profile under each sampler seed; every timed profile
    /// must equal its reference bit for bit.
    references: Vec<RdxProfile>,
}

struct Setup {
    runners: Vec<RdxRunner>,
    kernels: Vec<Kernel>,
    /// RDXP bytes of the merge of every reference, in pass order.
    suite_bytes: Vec<u8>,
}

fn setup(args: &Args) -> Setup {
    let (accesses, elements) = sizes(args.scale);
    let runners: Vec<RdxRunner> = (0..SAMPLER_SEEDS)
        .map(|k| {
            RdxRunner::new(
                RdxConfig::default()
                    .with_period(PERIOD)
                    .with_seed(args.sampler_seed(k)),
            )
        })
        .collect();
    let kernels = suite()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let params = Params::default()
                .with_accesses(accesses)
                .with_elements(elements)
                .with_seed(args.sub_seed(i as u64));
            let trace = Trace::from_stream(spec.name, spec.stream(&params));
            let references: Vec<RdxProfile> =
                runners.iter().map(|r| r.profile(trace.stream())).collect();
            Kernel {
                trace,
                app_bytes: params.footprint_bytes(),
                references,
            }
        })
        .collect::<Vec<_>>();
    let all: Vec<RdxProfile> = kernels.iter().flat_map(|k| k.references.clone()).collect();
    let suite_bytes = merge_batch(all, 1)
        .ok()
        .flatten()
        .map(|p| encode_profile(&p))
        .unwrap_or_default();
    Setup {
        runners,
        kernels,
        suite_bytes,
    }
}

/// One pass: every kernel profiled once per sampler seed, back to back;
/// after each kernel, a snapshot of the suite estimate so far.
fn pass(s: &Setup, o: &mut Outcome, mut clock: Option<&mut LayerClock>) -> f64 {
    let t_pass = Instant::now();
    let mut runs: Vec<RdxProfile> = Vec::with_capacity(s.kernels.len() * s.runners.len());
    let mut suite = Ok(None);
    for k in &s.kernels {
        for (runner, reference) in s.runners.iter().zip(&k.references) {
            let t0 = Instant::now();
            let p = lap(&mut clock, "rdx-core.runner.profile_s", || {
                runner.profile(k.trace.stream())
            });
            o.samples.close_ms.push(1e3 * secs(t0));
            o.checks.record(same_bits(&p, reference), || {
                format!(
                    "{}: profile differs from the set-up reference",
                    k.trace.name()
                )
            });
            runs.push(p);
        }
        let t1 = Instant::now();
        suite = lap(&mut clock, "rdx-core.merge_s", || {
            merge_batch(runs.clone(), 1)
        });
        o.samples.snapshot_ms.push(1e3 * secs(t1));
    }
    match suite {
        Ok(Some(m)) => o.checks.record(encode_profile(&m) == s.suite_bytes, || {
            "the suite estimate differs from the merge of the references".into()
        }),
        other => o.checks.fail(format!("suite merge: {other:?}")),
    }
    secs(t_pass)
}

/// The traced run's isolated machine calls, outside the end-to-end time.
fn isolate(s: &Setup, clock: &mut LayerClock) {
    for k in &s.kernels {
        for runner in &s.runners {
            let config = *runner.config();
            let mut profiler = RdxProfiler::new(&config);
            let machine = Machine::new(config.machine);
            let (_, m) = timed(|| machine.run(k.trace.stream(), &mut profiler));
            clock.add("memsim.machine_s", m);
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let (accesses, _) = sizes(args.scale);
    let mut o = Outcome {
        round_label: format!(
            "18 in-memory kernels of {accesses} accesses x {SAMPLER_SEEDS} sampler seeds"
        ),
        ..Outcome::default()
    };
    let mut s = repeat_setup(args.setups(), &mut o, || setup(args));
    if args.corrupt {
        // A lost record: the first kernel's trace without its last access.
        let t = &s.kernels[0].trace;
        let mut cut = Trace::new(t.name());
        for a in t.iter().take(t.len().saturating_sub(1)) {
            cut.push(*a);
        }
        s.kernels[0].trace = cut;
    }

    let tracing = args.trace;
    pass(&s, &mut o, None);

    let accesses: u64 = s
        .kernels
        .iter()
        .map(|k| k.trace.len() as u64 * s.runners.len() as u64)
        .sum();
    // One class: every pass profiles the whole suite, about 40 ms.
    let (clock, e2e) = timed_phase(args.seconds, 1, &mut o, |o, clock| {
        let seconds = pass(&s, o, tracing.then_some(&mut *clock));
        if tracing {
            isolate(&s, clock);
        }
        Some(Pass {
            class: 0,
            accesses,
            seconds,
        })
    });

    if tracing {
        let machine = clock.get("memsim.machine_s");
        let profile = clock.get("rdx-core.runner.profile_s");
        let mut rows = LayerClock::default();
        rows.add("memsim.machine_s", machine);
        rows.add("rdx-core.runner.post_s", profile - machine);
        rows.add("rdx-core.merge_s", clock.get("rdx-core.merge_s"));
        rows.add_signed("rdx-core.runner.profile_s", profile, 0.0);
        o.layers = rows.finish(o.rounds_kept, e2e);
    }

    // Scoring against exact ground truth. Every timed profile was
    // checked bit-identical to its reference, so the references stand
    // for them.
    let config = *s.runners[0].config();
    let exact = exact_all(s.kernels.len(), |i| {
        ExactProfile::measure(
            s.kernels[i].trace.stream(),
            config.granularity,
            config.binning,
        )
    });
    let (mut rd, mut rt, mut time, mut mem) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (k, ex) in s.kernels.iter().zip(&exact) {
        for p in &k.references {
            let (a, r) = accuracy(p, ex);
            rd.push(a);
            rt.push(r);
            time.push(p.time_overhead);
            mem.push(p.memory_overhead(k.app_bytes));
            o.counts.add(p);
        }
    }
    o.rd_accuracy = geo_mean(&rd);
    o.rt_accuracy = geo_mean(&rt);
    o.time_overhead = geo_mean(&time);
    o.mem_overhead = geo_mean(&mem);
    o
}
