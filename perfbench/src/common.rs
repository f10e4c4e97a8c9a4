//! Shared plumbing: arguments, statistics, correctness bookkeeping,
//! peak-RSS probes and the per-run outcome every workload fills in.

use rdx_core::{encode_profile, RdxProfile};
use rdx_groundtruth::ExactProfile;
use rdx_histogram::accuracy::{geometric_mean, histogram_intersection};
use std::path::PathBuf;
use std::time::Instant;

/// How big the generated inputs are. `Tiny` exists for the self-test
/// only: it exercises every code path in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt one input after set-up (self-test of the checks).
    pub corrupt: bool,
    /// Untraced `accesses_per_s` of the same seed, for
    /// `tracing_overhead` (passed in by `run.py` on traced runs).
    pub baseline_rate: Option<f64>,
    /// Scratch directory for the run's files (removed at exit).
    pub workdir: PathBuf,
}

/// Sampler seeds every workload rotates its profiler through, so
/// accuracy is averaged over this many independent sampling draws.
pub const SAMPLER_SEEDS: u64 = 8;

/// A set-up repetition counts as undisturbed when the host took at
/// most this much vCPU time from the VM per wall second of it
/// (`/proc/stat` steal, summed over every vCPU).
pub const STEAL_MAX: f64 = 0.05;

/// Fewest set-up repetitions, and fewest passes of each class, a run
/// reports on.
pub const MIN_KEPT: usize = 3;

/// Share of each class's timed passes a run reports on: the fastest
/// quarter. The host slows passes in episodes, by steal and also
/// without it, and only ever adds time. A class's median pass moves
/// with how much of the run such an episode covered, by up to 25 %
/// from run to run; its fastest quarter moves less than half as much.
pub const KEPT_SHARE: f64 = 0.25;

/// Steps of the host-speed probe (`host_probe`), about 2 ms of work.
const PROBE_STEPS: usize = 200_000;

/// The probe's time, in seconds, on the reference host: a 2-vCPU Xeon
/// VM at 2.0 GHz when the host leaves it alone (the fastest quarter of
/// its probes). Wall times are reported in seconds of that host.
pub const PROBE_REF_S: f64 = 0.0016;

impl Args {
    /// How many times set-up runs: repeated only on untraced runs,
    /// the ones that report `setup_s`.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            5
        }
    }

    /// The profiler seed of rotation slot `slot` (0..SAMPLER_SEEDS).
    pub fn sampler_seed(&self, slot: u64) -> u64 {
        self.sub_seed(1000 + slot)
    }

    /// A per-input seed: distinct inputs of one run get distinct but
    /// reproducible seeds (SplitMix64 of the run seed and the index).
    pub fn sub_seed(&self, index: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f`, returning its result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn geo_mean(values: &[f64]) -> f64 {
    geometric_mean(values).unwrap_or(f64::NAN)
}

/// Histogram intersection of an estimate against exact ground truth,
/// for reuse distance and reuse time.
pub fn accuracy(est: &RdxProfile, exact: &ExactProfile) -> (f64, f64) {
    let rd = histogram_intersection(est.rd.as_histogram(), exact.rd.as_histogram());
    let rt = histogram_intersection(est.rt.as_histogram(), exact.rt.as_histogram());
    (rd.unwrap_or(0.0), rt.unwrap_or(0.0))
}

/// Bit identity of two profiles: their RDXP encodings carry every
/// field, floats as raw bit patterns.
pub fn same_bits(a: &RdxProfile, b: &RdxProfile) -> bool {
    encode_profile(a) == encode_profile(b)
}

/// Operations attempted and failed, plus the first few failure notes.
/// A failed correctness check counts as a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one operation or check; `what` describes a failure.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Counts a failure that happened outside a per-operation check
    /// (for example an operation that returned an error).
    pub fn fail(&mut self, what: String) {
        self.record(false, || what);
    }
}

/// Profiler event counts of one round over a workload's inputs; these
/// drive the modeled time and memory overheads.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub samples: u64,
    pub traps: u64,
    pub evictions: u64,
    pub end_censored: u64,
    pub dropped_samples: u64,
    pub duplicate_samples: u64,
    pub profiler_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, p: &RdxProfile) {
        self.samples += p.samples;
        self.traps += p.traps;
        self.evictions += p.evictions;
        self.end_censored += p.end_censored;
        self.dropped_samples += p.dropped_samples;
        self.duplicate_samples += p.duplicate_samples;
        self.profiler_bytes += p.profiler_bytes;
    }
}

/// Latency samples, in milliseconds, of the operations of one pass
/// (or of every kept pass).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Histogram reads of everything ingested so far, per read.
    pub snapshot_ms: Vec<f64>,
    /// Final-profile latency of each complete input, per input.
    pub close_ms: Vec<f64>,
    /// `serve_monitor` only: client sends and flushes, and the snapshot
    /// latency after the first and after the last chunk of each
    /// monitored session (the growth shows the re-profiling cost).
    pub send_ms: Vec<f64>,
    pub flush_ms: Vec<f64>,
    pub first_snapshot_ms: Vec<f64>,
    pub last_snapshot_ms: Vec<f64>,
}

impl Samples {
    fn append(&mut self, mut other: Samples) {
        self.snapshot_ms.append(&mut other.snapshot_ms);
        self.close_ms.append(&mut other.close_ms);
        self.send_ms.append(&mut other.send_ms);
        self.flush_ms.append(&mut other.flush_ms);
        self.first_snapshot_ms.append(&mut other.first_snapshot_ms);
        self.last_snapshot_ms.append(&mut other.last_snapshot_ms);
    }
}

/// Per-round server counts (`serve_monitor` only): client frames sent,
/// trace bytes sent, and accesses the server decoded (read through
/// `SnapshotMetrics`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    pub frames_per_round: f64,
    pub bytes_per_round: f64,
    pub decoded_per_round: f64,
}

/// One layer's time, in seconds per round, and whether it counts
/// towards the end-to-end sum (`sign` +1) or is time hidden by
/// overlap (`sign` -1).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub seconds: f64,
    pub sign: f64,
}

/// Everything one run measured. Timings are collected in the timed
/// phase only; set-up is reported separately as `setup_s`. Only the
/// fastest passes of each class (see `KEPT_SHARE`) are kept.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each kept set-up repetition.
    pub setup_s: Vec<f64>,
    /// Set-up repetitions run.
    pub setups_run: usize,
    /// Accesses per wall second of a round: a round is one pass of
    /// every class, and its time is the sum of each class's median
    /// kept pass time.
    pub rate: f64,
    /// That round time, in seconds.
    pub round_s: f64,
    /// Passes kept of each class; the kept passes make this many rounds.
    pub rounds_kept: usize,
    /// Timed passes run, kept or not.
    pub passes_run: usize,
    /// Each timed pass's time relative to its class median: the run's
    /// own pass-to-pass noise.
    pub relative_pass_s: Vec<f64>,
    /// The host-speed probe's time in the timed phase: the median of
    /// the fastest quarter of the probes, one after every pass.
    pub probe_s: f64,
    /// Latency samples of the kept passes; a pass in progress writes
    /// its own into here.
    pub samples: Samples,
    pub rd_accuracy: f64,
    pub rt_accuracy: f64,
    pub time_overhead: f64,
    pub mem_overhead: f64,
    pub peak_rss_mib: f64,
    /// Whether the peak-RSS mark was reset after set-up.
    pub peak_rss_reset: bool,
    /// CPU time the host took from this machine's vCPUs during the
    /// timed phase, and the phase's wall time, in seconds.
    pub steal: (f64, f64),
    pub checks: Checks,
    pub counts: Counts,
    pub server: ServerStats,
    /// Traced runs: per-round layer times (sum over the kept passes
    /// divided by the rounds they make).
    pub layers: Vec<Layer>,
    /// What one round is, for the report ("6 RDXT files", ...).
    pub round_label: String,
}

impl Outcome {
    /// Reference-host seconds per wall second of this run's host: wall
    /// times are multiplied by it, rates divided.
    pub fn host_scale(&self) -> f64 {
        PROBE_REF_S / self.probe_s
    }

    /// Per-pass time of the named layer (0 when the workload does not
    /// run that layer).
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .filter(|l| l.name == name)
            .fold(0.0, |acc, l| acc + l.seconds)
    }
}

/// Sums layer times (and counts) over passes, into per-round means.
#[derive(Debug, Default)]
pub struct LayerClock {
    totals: Vec<(&'static str, f64, f64)>,
}

impl LayerClock {
    pub fn add(&mut self, name: &'static str, seconds: f64) {
        self.add_signed(name, seconds, 1.0);
    }

    pub fn add_signed(&mut self, name: &'static str, seconds: f64, sign: f64) {
        if let Some(e) = self.totals.iter_mut().find(|e| e.0 == name) {
            e.1 += seconds;
        } else {
            self.totals.push((name, seconds, sign));
        }
    }

    /// Adds every entry of `other` into this clock.
    pub fn merge(&mut self, other: &LayerClock) {
        for &(name, s, sign) in &other.totals {
            self.add_signed(name, s, sign);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.totals
            .iter()
            .find(|e| e.0 == name)
            .map_or(0.0, |e| e.1)
    }

    /// Per-round layers over `rounds` rounds whose end-to-end time
    /// totals `e2e_s`; the remainder becomes `unattributed_s`.
    pub fn finish(&self, rounds: usize, e2e_s: f64) -> Vec<Layer> {
        let n = rounds.max(1) as f64;
        let mut out: Vec<Layer> = self
            .totals
            .iter()
            .map(|&(name, s, sign)| Layer {
                name,
                seconds: s / n,
                sign,
            })
            .collect();
        let attributed: f64 = out.iter().map(|l| l.sign * l.seconds).sum();
        out.push(Layer {
            name: "unattributed_s",
            seconds: e2e_s / n - attributed,
            sign: 1.0,
        });
        out
    }
}

/// Which entries of `shares` (steal shares of set-up repetitions) to
/// keep: every one at or under `STEAL_MAX`, and when fewer than `min`
/// are, the `min` least disturbed.
pub fn undisturbed(shares: &[f64], min: usize) -> Vec<bool> {
    let mut sorted = shares.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = match min.min(sorted.len()) {
        0 => STEAL_MAX,
        n => STEAL_MAX.max(sorted[n - 1]),
    };
    shares.iter().map(|&s| s <= cut).collect()
}

/// What one timed pass did. Passes of one class do the same work on
/// the same input, so their times are comparable.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub class: usize,
    /// Trace accesses the pass delivered.
    pub accesses: u64,
    /// The pass's own wall seconds (a traced run's isolated calls stay
    /// outside).
    pub seconds: f64,
}

/// One timed pass as recorded.
struct PassRecord {
    pass: Pass,
    samples: Samples,
    clock: LayerClock,
}

/// The host-speed probe: a fixed integer computation over a 32 KiB
/// table, hashing with dependent loads and stores like the machine
/// model's hot loop but sharing no code with the workspace, so no
/// change to the program moves it. Returns its wall seconds.
///
/// The host slows the VM in episodes that can outlast a whole run (see
/// `KEPT_SHARE`); within a run, `inmem_accuracy` pass times track the
/// probe's (correlation 0.7 to 0.9). Scaling wall times by the probe
/// takes the host's speed out of the comparison between runs.
pub fn host_probe() -> f64 {
    let t = Instant::now();
    let mut table = [0u64; 4096];
    let mut x: u64 = 0x1234_5678;
    for i in 0..PROBE_STEPS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let j = ((z ^ table[i & 4095]) & 4095) as usize;
        table[j] = table[j].wrapping_add(z);
        if table[j] & 7 == 3 {
            x ^= 1;
        }
    }
    std::hint::black_box(&table);
    secs(t)
}

/// The median of the fastest `KEPT_SHARE` of `times` (at least
/// `MIN_KEPT` of them).
fn fastest_share(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    let n = ((KEPT_SHARE * v.len() as f64).round() as usize).max(MIN_KEPT);
    v.truncate(n);
    median(&v)
}

/// The timed phase over passes of `classes` classes. Resets the
/// peak-RSS mark, then runs `pass` for `seconds` of wall time, and on
/// until every class has run `MIN_KEPT` times, with a host-speed probe
/// after every pass. `pass` writes its latency samples to `o.samples`
/// and its layer times and counts to the pass's own clock, and returns
/// what it did, or `None` after recording a failure.
///
/// Checks count from every pass. Rates, samples and clocks come from
/// the same number of passes of each class, the fastest of each: a
/// `KEPT_SHARE` of the fewest any class ran, and at least `MIN_KEPT`.
/// Drops any samples recorded before it (the warm-up's). Returns the
/// kept passes' summed clock and summed time.
pub fn timed_phase(
    seconds: f64,
    classes: usize,
    o: &mut Outcome,
    mut pass: impl FnMut(&mut Outcome, &mut LayerClock) -> Option<Pass>,
) -> (LayerClock, f64) {
    o.samples = Samples::default();
    o.peak_rss_reset = reset_peak_rss();
    let phase_steal = host_steal_s();
    let start = Instant::now();
    let mut records: Vec<PassRecord> = Vec::new();
    let mut probes = Vec::new();
    while secs(start) < seconds || records.len() < classes * MIN_KEPT {
        let kept = std::mem::take(&mut o.samples);
        let mut clock = LayerClock::default();
        let result = pass(o, &mut clock);
        let samples = std::mem::replace(&mut o.samples, kept);
        let Some(done) = result else {
            break;
        };
        probes.push(host_probe());
        records.push(PassRecord {
            pass: done,
            samples,
            clock,
        });
    }
    o.peak_rss_mib = peak_rss_mib();
    o.steal = (host_steal_s() - phase_steal, secs(start));
    o.passes_run = records.len();
    o.probe_s = fastest_share(&probes);

    let mut by_class: Vec<Vec<PassRecord>> = (0..classes).map(|_| Vec::new()).collect();
    for r in records {
        if let Some(c) = by_class.get_mut(r.pass.class) {
            c.push(r);
        }
    }
    let fewest_run = by_class.iter().map(Vec::len).min().unwrap_or(0);
    let n = ((KEPT_SHARE * fewest_run as f64).round() as usize)
        .max(MIN_KEPT)
        .min(fewest_run);
    o.rounds_kept = n;
    let mut total = LayerClock::default();
    let (mut e2e, mut round_accesses) = (0.0, 0);
    for mut class in by_class {
        class.sort_by(|a, b| a.pass.seconds.total_cmp(&b.pass.seconds));
        let all: Vec<f64> = class.iter().map(|r| r.pass.seconds).collect();
        let class_median = median(&all);
        o.relative_pass_s
            .extend(all.iter().map(|s| s / class_median));
        class.truncate(n);
        let times: Vec<f64> = class.iter().map(|r| r.pass.seconds).collect();
        o.round_s += median(&times);
        round_accesses += class.first().map_or(0, |r| r.pass.accesses);
        for r in class {
            o.samples.append(r.samples);
            total.merge(&r.clock);
            e2e += r.pass.seconds;
        }
    }
    o.rate = round_accesses as f64 / o.round_s;
    (total, e2e)
}

/// Times `f` into `clock` under `name` when tracing; runs it bare
/// otherwise, so the untraced build reads no extra clocks.
pub fn lap<T>(clock: &mut Option<&mut LayerClock>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match clock {
        Some(c) => {
            let (v, s) = timed(f);
            c.add(name, s);
            v
        }
        None => f(),
    }
}

/// Exact ground truth for `n` inputs, two at a time. `measure(i)`
/// builds input `i` and measures it; this is the benchmark's oracle,
/// computed once per run after the timed phase (neither set-up nor
/// timed).
pub fn exact_all(n: usize, measure: impl Fn(usize) -> ExactProfile + Sync) -> Vec<ExactProfile> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, ExactProfile)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break mine;
                        }
                        mine.push((i, measure(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("exact worker"))
            .collect()
    });
    out.sort_by_key(|e| e.0);
    out.into_iter().map(|e| e.1).collect()
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the timed
/// phase's peak excludes set-up's. Returns false where unsupported.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Steal time of all CPUs so far (`/proc/stat`), in seconds; 0 where
/// the kernel does not report it.
fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        // USER_HZ is 100 on every Linux ABI.
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size (VmHWM) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs the set-up closure at least `reps` times, and with `reps` > 1
/// until the repetitions add up to two seconds (at most 15), so a
/// set-up of a few milliseconds is still measured over enough work.
/// With `reps` > 1 an untimed repetition comes first: the first ones
/// run up to twice as slow while the allocator settles. Keeps the last
/// result; records the wall time of each repetition `undisturbed` keeps
/// in `o.setup_s`.
pub fn repeat_setup<T>(reps: usize, o: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let (mut times, mut shares) = (Vec::new(), Vec::new());
    let mut last = (reps > 1).then(&mut setup);
    loop {
        drop(last.take());
        let steal = host_steal_s();
        let (v, s) = timed(&mut setup);
        times.push(s);
        shares.push((host_steal_s() - steal) / s);
        last = Some(v);
        let n = times.len();
        if n >= reps.max(1) && (reps <= 1 || times.iter().sum::<f64>() >= 2.0 || n >= 15) {
            break;
        }
    }
    o.setups_run = times.len();
    let keep = undisturbed(&shares, MIN_KEPT);
    o.setup_s = times
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(t, _)| t)
        .collect();
    last.expect("at least one set-up")
}
