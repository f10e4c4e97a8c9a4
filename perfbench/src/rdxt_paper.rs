//! `rdxt_paper`: RDXT file in, RDXP file out, at the paper's 64 Ki
//! sampling period — the `rdx profile --save` path, then `rdx merge`.
//!
//! *Why this workload:* decode does most of the work here, so it is the
//! workload the decode path (pipelined decode-ahead, the varint codecs)
//! is judged on. In-memory profiling, by contrast, is judged on
//! `inmem_accuracy`, where decode does no work at all.
//!
//! Set-up writes a fixed mix of large-footprint registry kernels
//! (streaming, strided, random, hashing, pointer chasing, phased) to
//! RDXT files and profiles each trace in memory under every sampler
//! seed of the rotation: the bit-identity references. One timed round
//! takes every file in turn, with the next sampler seed; one pass is
//! one file:
//!
//! * **close** — `load_rdxt` → `RdxRunner::profile_rdxt` (default
//!   `IngestOptions`) → `encode_profile` → write the `.rdxp` file;
//! * **snapshot** — one read of the fleet so far: read and
//!   `decode_profile` every `.rdxp` saved in this round, `merge_batch`
//!   them and encode the fleet RDXP (what `rdx merge` does per read).
//!
//! Layer map: `rdx-trace.decode_s` and `rdx-core.ingest.*` move
//! `accesses_per_s` and `close_ms_p50` here; `memsim.machine_s` is
//! about a quarter of it; `rdx-core.wire.*` and `rdx-core.merge_s`
//! move `snapshot_ms_*`. The traced run splits `profile_rdxt_s` with
//! isolated calls on the same input: a decode-only
//! `TraceReader::decode_chunk` loop, a bare `Machine::run` with an
//! `RdxProfiler`, and an in-memory `RdxRunner::profile`;
//! `overlap_s` = decode + profile − profile_rdxt is the time
//! decode-ahead hides.

use crate::common::{
    accuracy, exact_all, geo_mean, lap, repeat_setup, secs, timed, timed_phase, Args, Checks,
    LayerClock, Outcome, Pass, Scale, SAMPLER_SEEDS,
};
use memsim::Machine;
use rdx_core::{
    decode_profile, encode_profile, load_rdxt, merge_batch, IngestOptions, RdxConfig, RdxProfile,
    RdxProfiler, RdxRunner,
};
use rdx_groundtruth::ExactProfile;
use rdx_trace::{io, Chunk, Trace, TraceReader, DEFAULT_CHUNK_CAPACITY};
use rdx_workloads::{by_name, Params};
use std::path::PathBuf;
use std::time::Instant;

/// The input mix: streaming, strided, random, hashing, pointer
/// chasing and phased locality.
const KERNELS: [&str; 6] = [
    "stream_triad",
    "strided",
    "random_uniform",
    "hash_probe",
    "pointer_chase",
    "phased",
];

/// (accesses, footprint elements) per input.
fn sizes(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Full => (4_000_000, 1_000_000),
        Scale::Tiny => (40_000, 8_000),
    }
}

struct Input {
    name: &'static str,
    params: Params,
    path: PathBuf,
    out: PathBuf,
}

impl Input {
    fn trace(&self) -> Trace {
        let spec = by_name(self.name).expect("registry kernel");
        Trace::from_stream(self.name, spec.stream(&self.params))
    }
}

/// One sampler seed of the rotation: its runner and the in-memory
/// reference profiles every RDXT-path result must equal bit for bit.
struct Slot {
    runner: RdxRunner,
    references: Vec<RdxProfile>,
    reference_bytes: Vec<Vec<u8>>,
    /// RDXP bytes of `merge_batch` over the references.
    fleet_reference: Vec<u8>,
}

struct Setup {
    inputs: Vec<Input>,
    slots: Vec<Slot>,
}

/// Field-wise left fold of profiles: the monoid definition the merged
/// fleet must agree with.
fn fold(parts: &[RdxProfile]) -> Option<RdxProfile> {
    let mut acc = parts.first()?.empty_like();
    for p in parts {
        acc.rd.merge(&p.rd).ok()?;
        acc.rt.merge(&p.rt).ok()?;
        acc.accesses += p.accesses;
        acc.samples += p.samples;
        acc.traps += p.traps;
        acc.evictions += p.evictions;
        acc.end_censored += p.end_censored;
        acc.dropped_samples += p.dropped_samples;
        acc.duplicate_samples += p.duplicate_samples;
        acc.m_estimate += p.m_estimate;
    }
    Some(acc)
}

fn fold_matches(fleet: &RdxProfile, parts: &[RdxProfile]) -> bool {
    fold(parts).is_some_and(|f| {
        f.rd == fleet.rd
            && f.rt == fleet.rt
            && (f.accesses, f.samples, f.traps, f.evictions, f.end_censored)
                == (
                    fleet.accesses,
                    fleet.samples,
                    fleet.traps,
                    fleet.evictions,
                    fleet.end_censored,
                )
            && (f.dropped_samples, f.duplicate_samples)
                == (fleet.dropped_samples, fleet.duplicate_samples)
            && f.m_estimate.to_bits() == fleet.m_estimate.to_bits()
    })
}

fn config(args: &Args, slot: u64) -> RdxConfig {
    let config = RdxConfig::default().with_seed(args.sampler_seed(slot));
    match args.scale {
        Scale::Full => config,
        // The tiny inputs are far shorter than one 64 Ki period.
        Scale::Tiny => config.with_period(256),
    }
}

fn setup(args: &Args, checks: &mut Checks) -> Setup {
    let dir = args.workdir.join("rdxt_paper");
    let _ = std::fs::create_dir_all(&dir);
    let (accesses, elements) = sizes(args.scale);
    let inputs: Vec<Input> = KERNELS
        .iter()
        .enumerate()
        .map(|(i, &name)| Input {
            name,
            params: Params::default()
                .with_accesses(accesses)
                .with_elements(elements)
                .with_seed(args.sub_seed(i as u64)),
            path: dir.join(format!("{name}.rdxt")),
            out: dir.join(format!("{name}.rdxp")),
        })
        .collect();
    let mut slots: Vec<Slot> = (0..SAMPLER_SEEDS)
        .map(|k| Slot {
            runner: RdxRunner::new(config(args, k)),
            references: Vec::new(),
            reference_bytes: Vec::new(),
            fleet_reference: Vec::new(),
        })
        .collect();
    for inp in &inputs {
        let trace = inp.trace();
        let written = std::fs::write(&inp.path, io::to_bytes(&trace));
        checks.record(written.is_ok(), || {
            format!("writing {}", inp.path.display())
        });
        for slot in &mut slots {
            let p = slot.runner.profile(trace.stream());
            slot.reference_bytes.push(encode_profile(&p));
            slot.references.push(p);
        }
    }
    for slot in &mut slots {
        let fleet = merge_batch(slot.references.clone(), 1).ok().flatten();
        slot.fleet_reference = fleet.as_ref().map(encode_profile).unwrap_or_default();
        checks.record(
            fleet
                .as_ref()
                .is_some_and(|f| fold_matches(f, &slot.references)),
            || "merge_batch of the in-memory profiles differs from their fold".into(),
        );
    }
    Setup { inputs, slots }
}

/// One read of the fleet: every saved `.rdxp` part read and decoded,
/// merged, and encoded as the fleet RDXP a monitor receives.
fn fleet_read(parts: &[Input], o: &mut Outcome, clock: &mut Option<&mut LayerClock>) -> Vec<u8> {
    let mut decoded = Vec::with_capacity(parts.len());
    for part in parts {
        let Ok(raw) = std::fs::read(&part.out) else {
            o.checks.fail(format!("reading {}", part.out.display()));
            continue;
        };
        match lap(clock, "rdx-core.wire.decode_s", || decode_profile(&raw)) {
            Ok(p) => decoded.push(p),
            Err(e) => o.checks.fail(format!("{}: {e}", part.out.display())),
        }
    }
    match lap(clock, "rdx-core.merge_s", || merge_batch(decoded, 1)) {
        Ok(Some(f)) => lap(clock, "rdx-core.wire.encode_s", || encode_profile(&f)),
        other => {
            o.checks.fail(format!("fleet merge: {other:?}"));
            Vec::new()
        }
    }
}

/// One closed-loop pass: input `i` with the runner of `slot`, then a
/// read of the fleet saved so far in this round. Returns the pass's
/// wall seconds.
fn pass(
    s: &Setup,
    slot: &Slot,
    i: usize,
    o: &mut Outcome,
    mut clock: Option<&mut LayerClock>,
) -> f64 {
    let opts = IngestOptions::default();
    let t_pass = Instant::now();
    let inp = &s.inputs[i];
    // close: RDXT file → RDXP file
    let t0 = Instant::now();
    let input = match lap(&mut clock, "rdx-core.ingest.load_s", || {
        load_rdxt(&inp.path)
    }) {
        Ok(input) => input,
        Err(e) => {
            o.checks
                .fail(format!("load_rdxt {}: {e}", inp.path.display()));
            return secs(t_pass);
        }
    };
    let (profile, verdict) = lap(&mut clock, "rdx-core.ingest.profile_rdxt_s", || {
        slot.runner.profile_rdxt(input, &opts)
    });
    let bytes = lap(&mut clock, "rdx-core.wire.encode_s", || {
        encode_profile(&profile)
    });
    let saved = std::fs::write(&inp.out, &bytes);
    o.samples.close_ms.push(1e3 * secs(t0));
    o.checks.record(verdict.is_ok() && saved.is_ok(), || {
        format!(
            "{}: decode verdict {verdict:?}, save {saved:?}",
            inp.path.display()
        )
    });
    o.checks.record(bytes == slot.reference_bytes[i], || {
        format!(
            "{}: RDXT-path profile differs from the in-memory profile",
            inp.path.display()
        )
    });
    let round_trip = decode_profile(&bytes);
    o.checks.record(
        round_trip.is_ok_and(|p| p == profile && encode_profile(&p) == bytes),
        || {
            format!(
                "{}: RDXP round trip changed the profile",
                inp.path.display()
            )
        },
    );

    // snapshot: the fleet RDXP over every file saved so far
    let t1 = Instant::now();
    let fleet_bytes = fleet_read(&s.inputs[..=i], o, &mut clock);
    o.samples.snapshot_ms.push(1e3 * secs(t1));
    if i + 1 == s.inputs.len() {
        o.checks.record(fleet_bytes == slot.fleet_reference, || {
            "the merged fleet RDXP differs from the fold of its parts".into()
        });
    }
    secs(t_pass)
}

/// The traced run's isolated calls on input `i`, outside the
/// end-to-end time: decode only, machine only, in-memory profile.
fn isolate(s: &Setup, slot: &Slot, i: usize, o: &mut Outcome, clock: &mut LayerClock) {
    let config = *slot.runner.config();
    let inp = &s.inputs[i];
    let Ok(raw) = std::fs::read(&inp.path) else {
        o.checks.fail(format!("reading {}", inp.path.display()));
        return;
    };
    let raw = bytes::Bytes::from(raw);
    let Ok(mut reader) = TraceReader::new(raw.clone()) else {
        o.checks.fail(format!("{}: bad header", inp.path.display()));
        return;
    };
    let mut chunk = Chunk::default();
    let t = Instant::now();
    loop {
        match reader.decode_chunk(&mut chunk, DEFAULT_CHUNK_CAPACITY) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                o.checks.fail(format!("{}: decode {e}", inp.path.display()));
                break;
            }
        }
    }
    clock.add("rdx-trace.decode_s", secs(t));
    // The in-memory copy for the machine-only and profile-only
    // calls, built from a second (untimed) bulk decode.
    let mut trace = Trace::new(inp.name);
    if let Ok(mut reader) = TraceReader::new(raw) {
        while let Ok(n) = reader.decode_chunk(&mut chunk, DEFAULT_CHUNK_CAPACITY) {
            if n == 0 {
                break;
            }
            chunk.accesses.iter().for_each(|a| trace.push(*a));
        }
    }
    let mut profiler = RdxProfiler::new(&config);
    let machine = Machine::new(config.machine);
    let (_, m) = timed(|| machine.run(trace.stream(), &mut profiler));
    clock.add("memsim.machine_s", m);
    let (_, p) = timed(|| slot.runner.profile(trace.stream()));
    clock.add_signed("rdx-core.runner.profile_s", p, 0.0);
}

pub fn run(args: &Args) -> Outcome {
    let (accesses, _) = sizes(args.scale);
    let mut o = Outcome {
        round_label: format!("{} RDXT files of {accesses} accesses", KERNELS.len()),
        ..Outcome::default()
    };
    let mut checks = Checks::default();
    let s = repeat_setup(args.setups(), &mut o, || setup(args, &mut checks));
    o.checks = checks;
    if args.corrupt {
        // A truncated file: the last record of the first input is cut.
        if let Ok(raw) = std::fs::read(&s.inputs[0].path) {
            let _ = std::fs::write(&s.inputs[0].path, &raw[..raw.len().saturating_sub(3)]);
        }
    }

    let tracing = args.trace;
    // Warm-up round: page cache, allocator and kernel dispatch settle.
    let n = s.inputs.len();
    for i in 0..n {
        pass(&s, &s.slots[0], i, &mut o, None);
    }

    // One class per input; a round takes every input in turn, all with
    // the next sampler seed.
    let mut p = 0;
    let (clock, e2e) = timed_phase(args.seconds, n, &mut o, |o, clock| {
        let (i, slot) = (p % n, &s.slots[(p / n) % s.slots.len()]);
        p += 1;
        let seconds = pass(&s, slot, i, o, tracing.then_some(&mut *clock));
        if tracing {
            isolate(&s, slot, i, o, clock);
        }
        Some(Pass {
            class: i,
            accesses,
            seconds,
        })
    });

    if tracing {
        let decode = clock.get("rdx-trace.decode_s");
        let machine = clock.get("memsim.machine_s");
        let profile = clock.get("rdx-core.runner.profile_s");
        let profile_rdxt = clock.get("rdx-core.ingest.profile_rdxt_s");
        let mut rows = LayerClock::default();
        for name in [
            "rdx-core.ingest.load_s",
            "rdx-trace.decode_s",
            "memsim.machine_s",
            "rdx-core.wire.encode_s",
            "rdx-core.wire.decode_s",
            "rdx-core.merge_s",
        ] {
            rows.add(name, clock.get(name));
        }
        rows.add("rdx-core.runner.post_s", profile - machine);
        rows.add_signed(
            "rdx-core.ingest.overlap_s",
            decode + profile - profile_rdxt,
            -1.0,
        );
        rows.add_signed("rdx-core.ingest.profile_rdxt_s", profile_rdxt, 0.0);
        rows.add_signed("rdx-core.runner.profile_s", profile, 0.0);
        o.layers = rows.finish(o.rounds_kept, e2e);
    }

    // Scoring against exact ground truth. Every timed profile was
    // checked bit-identical to its slot's reference, so the references
    // stand for them.
    let g = s.slots[0].runner.config().granularity;
    let b = s.slots[0].runner.config().binning;
    let exact = exact_all(s.inputs.len(), |i| {
        ExactProfile::measure(s.inputs[i].trace().stream(), g, b)
    });
    let (mut rd, mut rt, mut time, mut mem) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for slot in &s.slots {
        for ((p, inp), ex) in slot.references.iter().zip(&s.inputs).zip(&exact) {
            let (a, r) = accuracy(p, ex);
            rd.push(a);
            rt.push(r);
            time.push(p.time_overhead);
            mem.push(p.memory_overhead(inp.params.footprint_bytes()));
        }
    }
    for p in &s.slots[0].references {
        o.counts.add(p);
    }
    o.rd_accuracy = geo_mean(&rd);
    o.rt_accuracy = geo_mean(&rt);
    o.time_overhead = geo_mean(&time);
    o.mem_overhead = geo_mean(&mem);
    o
}
