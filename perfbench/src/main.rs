//! The RDX repository benchmark: one command, three closed-loop
//! workloads, end-to-end metrics from the untraced build and per-layer
//! metrics from the traced build (`--features traced`).
//!
//! Usage (normally through `perfbench/run.py`, which builds both
//! variants):
//!
//! ```text
//! rdx-perfbench --workload <rdxt_paper|inmem_accuracy|serve_monitor>
//!               --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//!               [--scale tiny] [--corrupt] [--baseline-rate <accesses/s>]
//! ```
//!
//! Every run sets its inputs up from `--seed` (untraced runs repeat
//! set-up and report the median as `setup_s`), warms up with one
//! untimed pass, then repeats timed passes over the inputs for
//! `--seconds`; only the fastest quarter of each input's passes is
//! reported on (see `common::KEPT_SHARE`), and wall times are scaled to
//! the reference host's speed (see `common::host_probe`). Each pass is
//! closed-loop: one caller, each request issued after the previous
//! answer. Layers are timed from outside, around calls into
//! each crate's public functions; the traced build additionally reads
//! the existing `rdx.profile/*` spans and server counters.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every operation and every correctness check passed.
//!
//! Metric map (which layer metric should move which end-to-end metric,
//! on which workload) — later changes name their claims against it:
//!
//! | per-layer metric | moves | on |
//! |---|---|---|
//! | `rdx-trace.decode_s` | `accesses_per_s` | `rdxt_paper` (zero on `inmem_accuracy`; part of `close_ms_p50`/`snapshot_ms_*` on `serve_monitor`) |
//! | `memsim.machine_s` | `accesses_per_s` | `inmem_accuracy` (almost all of it), about a quarter of `rdxt_paper` |
//! | `rdx-core.ingest.{load,profile_rdxt,overlap}_s` | `accesses_per_s` | `rdxt_paper` |
//! | `rdx-core.runner.{profile,post}_s` | `accesses_per_s` | `inmem_accuracy` |
//! | `rdx-core.wire.{encode,decode}_s`, `rdx-core.merge_s` | `accesses_per_s`, `snapshot_ms_*` | `rdxt_paper` |
//! | `unattributed_s`, `tracing_overhead` | (bookkeeping) | every workload |
//! | `memsim.{samples,traps}`, `rdx-core.profiler.*`, `rdx-core.profiler_bytes` | `modeled_time_overhead`, `modeled_mem_overhead` | every workload |
//! | `rdx-core.rt_accuracy` | `rd_accuracy` (the gap is conversion loss) | `inmem_accuracy` |
//! | `rdx-server.{send,flush}_s`, `rdx-server.{send,flush}_ms_p50`, `rdx-server.{frames,bytes}_sent` | `close_ms_p50`, `accesses_per_s` | `serve_monitor` |
//! | `rdx-server.decoded_accesses` | `snapshot_ms_p90`, `peak_rss_mib` | `serve_monitor` |

#![forbid(unsafe_code)]

mod common;
mod inmem;
mod rdxt_paper;
mod serve;

use common::{median, percentile, Args, Outcome, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names. `BENCHMARK.json` lists `rdxt_paper` and
/// `serve_monitor`; `inmem_accuracy` runs by hand, because its wall
/// times move with the host by more than the benchmark's bounds even
/// after scaling (see README.md).
const WORKLOADS: [&str; 3] = ["rdxt_paper", "inmem_accuracy", "serve_monitor"];

fn usage(msg: &str) -> ExitCode {
    eprintln!("rdx-perfbench: {msg}");
    eprintln!(
        "usage: rdx-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --workdir <dir> [--scale tiny] [--corrupt] [--baseline-rate <r>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        corrupt: false,
        baseline_rate: None,
        workdir: PathBuf::from(".perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--workdir" => args.workdir = PathBuf::from(value()?),
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not {other}")),
                }
            }
            "--corrupt" => args.corrupt = true,
            "--baseline-rate" => {
                let r: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--baseline-rate: {e}"))?;
                args.baseline_rate = Some(r);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The end-to-end metrics; wall times and rates in reference-host
/// seconds when `scale` is `o.host_scale()`, as measured when it is 1.
fn end_to_end(o: &Outcome, scale: f64) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let snapshot = &o.samples.snapshot_ms;
    vec![
        m("setup_s", scale * median(&o.setup_s), "s"),
        m("accesses_per_s", o.rate / scale, "1/s"),
        m("snapshot_ms_p50", scale * percentile(snapshot, 0.5), "ms"),
        m("snapshot_ms_p90", scale * percentile(snapshot, 0.9), "ms"),
        m(
            "close_ms_p50",
            scale * percentile(&o.samples.close_ms, 0.5),
            "ms",
        ),
        m("rd_accuracy", o.rd_accuracy, "ratio"),
        m("peak_rss_mib", o.peak_rss_mib, "MiB"),
        m("modeled_time_overhead", o.time_overhead, "ratio"),
        m("modeled_mem_overhead", o.mem_overhead, "ratio"),
    ]
}

/// Names of the time layers, in the order the layer table prints them.
const TIME_LAYERS: [&str; 13] = [
    "rdx-core.ingest.load_s",
    "rdx-server.send_s",
    "rdx-server.flush_s",
    "rdx-trace.decode_s",
    "memsim.machine_s",
    "rdx-core.runner.post_s",
    "rdx-core.ingest.overlap_s",
    "rdx-core.wire.encode_s",
    "rdx-core.wire.decode_s",
    "rdx-core.merge_s",
    "rdx-core.ingest.profile_rdxt_s",
    "rdx-core.runner.profile_s",
    "unattributed_s",
];

fn per_layer(o: &Outcome, tracing_overhead: f64) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    let mut out: Vec<Metric> = TIME_LAYERS
        .iter()
        .map(|&name| m(name, o.layer(name), "s"))
        .collect();
    let c = &o.counts;
    let trap_ratio = if c.samples == 0 {
        0.0
    } else {
        c.traps as f64 / c.samples as f64
    };
    let s = &o.server;
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let (send_ms, flush_ms) = (&o.samples.send_ms, &o.samples.flush_ms);
    out.extend([
        m("tracing_overhead", tracing_overhead, "ratio"),
        m("memsim.samples", c.samples as f64, "count"),
        m("memsim.traps", c.traps as f64, "count"),
        m("rdx-core.profiler.evictions", c.evictions as f64, "count"),
        m(
            "rdx-core.profiler.end_censored",
            c.end_censored as f64,
            "count",
        ),
        m(
            "rdx-core.profiler.dropped_samples",
            c.dropped_samples as f64,
            "count",
        ),
        m(
            "rdx-core.profiler.duplicate_samples",
            c.duplicate_samples as f64,
            "count",
        ),
        m("rdx-core.profiler.trap_ratio", trap_ratio, "ratio"),
        m("rdx-core.profiler_bytes", c.profiler_bytes as f64, "bytes"),
        m("rdx-core.rt_accuracy", o.rt_accuracy, "ratio"),
        m("rdx-server.send_ms_p50", p50(send_ms), "ms"),
        m("rdx-server.flush_ms_p50", p50(flush_ms), "ms"),
        m("rdx-server.frames_sent", s.frames_per_round, "count"),
        m("rdx-server.bytes_sent", s.bytes_per_round, "bytes"),
        m("rdx-server.decoded_accesses", s.decoded_per_round, "count"),
    ]);
    out
}

/// The traced run's layer table: rows that add up to the end-to-end
/// time of one round, then the composite and derived numbers.
fn print_layer_table(o: &Outcome, tracing_overhead: f64) {
    let mean_e2e: f64 = o.layers.iter().map(|l| l.sign * l.seconds).sum();
    println!(
        "layer table (seconds per round; one round = {}):",
        o.round_label
    );
    let mut sum = 0.0;
    for l in o.layers.iter().filter(|l| l.sign != 0.0) {
        let signed = l.sign * l.seconds;
        sum += signed;
        let share = if mean_e2e > 0.0 {
            100.0 * signed / mean_e2e
        } else {
            0.0
        };
        println!("  {:<34} {:>+12.6}  {:>6.1} %", l.name, signed, share);
    }
    println!(
        "  {:<34} {:>+12.6}  (mean round; median round {:.6})",
        "= end to end", sum, o.round_s
    );
    for l in o.layers.iter().filter(|l| l.sign == 0.0) {
        println!(
            "  {:<34} {:>12.6}  (composite, not summed)",
            l.name, l.seconds
        );
    }
    println!(
        "  {:<34} {:>12.6}",
        "unattributed_s",
        o.layer("unattributed_s")
    );
    println!(
        "  {:<34} {:>12.6}  (traced / untraced accesses_per_s)",
        "tracing_overhead", tracing_overhead
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!(
            "rdx-perfbench: cannot create {}: {e}",
            args.workdir.display()
        );
        return ExitCode::from(2);
    }
    let traced_build = rdx_metrics::enabled();
    if args.trace != traced_build {
        eprintln!(
            "rdx-perfbench: --trace {} needs the {} build",
            u8::from(args.trace),
            if args.trace { "traced" } else { "untraced" }
        );
        return ExitCode::from(2);
    }

    let mut o = match args.workload.as_str() {
        "rdxt_paper" => rdxt_paper::run(&args),
        "inmem_accuracy" => inmem::run(&args),
        _ => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.workdir);

    // The untraced baseline rate is in reference-host seconds too.
    let tracing_overhead = args
        .baseline_rate
        .map_or(1.0, |b| o.rate / o.host_scale() / b);
    let metrics = if args.trace {
        per_layer(&o, tracing_overhead)
    } else {
        end_to_end(&o, o.host_scale())
    };
    for m in &metrics {
        let ok = m.value.is_finite();
        o.checks
            .record(ok, || format!("metric {} is not a finite number", m.name));
    }

    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "workload {}  seed {}  trace {}  available parallelism {cores}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "rounds kept {} ({}), passes run {}, snapshot samples {}, close samples {}",
        o.rounds_kept,
        o.round_label,
        o.passes_run,
        o.samples.snapshot_ms.len(),
        o.samples.close_ms.len()
    );
    println!(
        "set-up repetitions kept {} of {}",
        o.setup_s.len(),
        o.setups_run
    );
    if !o.samples.first_snapshot_ms.is_empty() {
        println!(
            "snapshot ms after the first chunk {:.3}, after the last chunk {:.3} (medians)",
            median(&o.samples.first_snapshot_ms),
            median(&o.samples.last_snapshot_ms)
        );
    }
    let q = |p| percentile(&o.relative_pass_s, p);
    println!(
        "pass time / its class median, every timed pass: quartiles {:.3} {:.3} {:.3} \
         (min {:.3}, max {:.3})",
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.0),
        q(1.0)
    );
    println!(
        "host steal during the timed phase: {:.2} s of CPU over {:.1} s wall",
        o.steal.0, o.steal.1
    );
    println!(
        "host-speed probe {:.4} ms (reference {:.4} ms): wall times scaled by {:.4}",
        1e3 * o.probe_s,
        1e3 * common::PROBE_REF_S,
        o.host_scale()
    );
    if !args.trace {
        println!("as measured, unscaled:");
        for m in end_to_end(&o, 1.0).iter().take(5) {
            println!("  {:<38} {:>18.6} {}", m.name, m.value, m.unit);
        }
    }
    if !o.peak_rss_reset {
        println!("peak RSS includes set-up: the kernel's peak mark could not be reset");
    }
    for m in &metrics {
        println!("  {:<38} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let error_rate = o.checks.failed as f64 / o.checks.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} failed of {} attempted)",
        o.checks.failed, o.checks.attempted
    );
    for note in &o.checks.notes {
        println!("  FAILED: {note}");
    }
    if args.trace {
        print_layer_table(&o, tracing_overhead);
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Rust's shortest round-trip formatting: all the digits and
            // never an exponent, so every value is a plain JSON number.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = o.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checks.attempted.max(1),
        o.checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
