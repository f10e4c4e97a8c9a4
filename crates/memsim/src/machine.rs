//! The machine event loop tying the PMU and debug registers to a profiler.

use crate::cost::{CostLedger, CostModel};
use crate::debug::{ArmError, ArmInfo, DebugRegisterFile, Slot, Watchpoint};
use crate::kernels::{self, KernelChoice, KernelKind};
use crate::pmu::{CounterSnapshot, Pmu, PmuEvent, PmuOutcome, SamplingConfig};
use crate::scan::NeedleSet;
use rdx_trace::{Access, AccessStream};

/// Machine configuration: register count, sampling mode, cost model, seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of hardware debug registers (x86: 4).
    pub registers: usize,
    /// PMU sampling configuration.
    pub sampling: SamplingConfig,
    /// Cycle/byte cost model for overhead accounting.
    pub cost: CostModel,
    /// Seed for the PMU's period randomization.
    pub seed: u64,
    /// Which scan kernel the fast path uses (resolved once per run).
    pub scan_kernel: KernelChoice,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            registers: 4,
            sampling: SamplingConfig::default(),
            cost: CostModel::default(),
            seed: 0x005D_1CE5,
            scan_kernel: KernelChoice::Auto,
        }
    }
}

impl MachineConfig {
    /// Sets the mean sampling period, keeping 10 % jitter.
    #[must_use]
    pub fn with_sampling_period(mut self, period: u64) -> Self {
        self.sampling = SamplingConfig {
            period,
            jitter: period / 10,
            ..self.sampling
        };
        self
    }

    /// Sets the number of debug registers.
    #[must_use]
    pub fn with_registers(mut self, registers: usize) -> Self {
        self.registers = registers;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the full sampling configuration.
    #[must_use]
    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }

    /// Selects the fast path's scan kernel (default: auto).
    #[must_use]
    pub fn with_scan_kernel(mut self, kernel: KernelChoice) -> Self {
        self.scan_kernel = kernel;
        self
    }
}

/// A delivered PMU sample: the profiler's overflow handler input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// The sampled access (PEBS gives its precise effective address).
    pub access: Access,
    /// Zero-based index of the access in the run.
    pub index: u64,
    /// Counter values *after* this access retired.
    pub counters: CounterSnapshot,
}

/// A delivered debug trap: the profiler's watchpoint handler input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// The trapping access.
    pub access: Access,
    /// Zero-based index of the access in the run.
    pub index: u64,
    /// The register that fired. The machine has already disarmed it (x86
    /// debug exceptions are delivered with the breakpoint condition
    /// recorded in DR6; profilers clear it before resuming).
    pub slot: Slot,
    /// Arm metadata recorded when the watchpoint was set.
    pub info: ArmInfo,
    /// Counter values *after* the trapping access retired.
    pub counters: CounterSnapshot,
}

/// A client of the simulated machine — the profiler under test.
///
/// Handlers receive a [`Hardware`] view giving controlled access to the
/// debug registers and counters, mirroring what a perf/signal handler can do
/// on a real kernel.
pub trait Profiler {
    /// Called when the sampling counter overflows on an access.
    fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware);

    /// Called when an access hits an armed watchpoint. The watchpoint has
    /// been disarmed before delivery.
    fn on_trap(&mut self, trap: &Trap, hw: &mut Hardware);

    /// Called once after the stream ends, with watchpoints still armed.
    /// Profilers typically drain armed registers here to account for
    /// never-reused (censored) samples.
    fn on_finish(&mut self, hw: &mut Hardware) {
        let _ = hw;
    }
}

/// The hardware interface exposed to profiler handlers.
#[derive(Debug)]
pub struct Hardware<'a> {
    drf: &'a mut DebugRegisterFile,
    ledger: &'a mut CostLedger,
    counters: CounterSnapshot,
    index: u64,
}

impl Hardware<'_> {
    /// Arms a watchpoint in the first free debug register, tagging it with
    /// profiler-chosen metadata. The arm is stamped with the current access
    /// index and counter value.
    ///
    /// # Errors
    ///
    /// Returns [`ArmError::NoFreeRegister`] when all registers are armed;
    /// the profiler must [`disarm`](Hardware::disarm) one first (its
    /// replacement policy).
    pub fn arm(&mut self, watchpoint: Watchpoint, tag: u64) -> Result<Slot, ArmError> {
        let info = ArmInfo {
            watchpoint,
            armed_at: self.index,
            accesses_at_arm: self.counters.loads + self.counters.stores,
            tag,
        };
        let slot = self.drf.arm(info)?;
        self.ledger.arms += 1;
        Ok(slot)
    }

    /// Disarms a register, returning its arm metadata if it was armed.
    pub fn disarm(&mut self, slot: Slot) -> Option<ArmInfo> {
        self.drf.disarm(slot)
    }

    /// Iterates over currently armed registers.
    pub fn armed_iter(&self) -> impl Iterator<Item = (Slot, &ArmInfo)> {
        self.drf.armed_iter()
    }

    /// Number of armed registers.
    #[must_use]
    pub fn armed_count(&self) -> usize {
        self.drf.armed_count()
    }

    /// Total number of debug registers.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.drf.len()
    }

    /// Current PMU counter values.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        self.counters
    }

    /// Total counted accesses (loads + stores) so far.
    #[must_use]
    pub fn access_count(&self) -> u64 {
        self.counters.loads + self.counters.stores
    }

    /// Zero-based index of the current access (or of the last access, in
    /// [`Profiler::on_finish`]).
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }
}

/// Summary of one machine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Number of accesses executed.
    pub accesses: u64,
    /// Final counter values.
    pub counters: CounterSnapshot,
    /// Event counts for overhead accounting.
    pub ledger: CostLedger,
    /// The cost model the machine was configured with.
    pub cost: CostModel,
}

impl RunReport {
    /// Fractional time overhead of the profiler on this run.
    #[must_use]
    pub fn time_overhead(&self) -> f64 {
        self.ledger.time_overhead(&self.cost)
    }
}

/// The simulated machine.
///
/// Drives an [`AccessStream`] through the PMU and debug-register models,
/// delivering samples and traps to a [`Profiler`]. Deterministic for a
/// given configuration (including seed).
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine with the given configuration.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        Machine { config }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Starts a resumable run: fresh PMU, registers and ledger, with the
    /// scan kernel resolved once against the host capability table.
    #[must_use]
    pub fn start(&self) -> MachineRun {
        MachineRun {
            pmu: Pmu::new(self.config.sampling, self.config.seed),
            drf: DebugRegisterFile::new(self.config.registers),
            ledger: CostLedger::default(),
            index: 0,
            kernel: kernels::resolve_scan(self.config.scan_kernel),
            eligible: self.config.sampling.max_skid == 0
                && self.config.sampling.event == PmuEvent::Accesses,
            kernel_reported: false,
            cost: self.config.cost,
        }
    }

    /// Runs the stream to completion, delivering events to `profiler`:
    /// [`start`](Machine::start), one [`feed`](MachineRun::feed), then
    /// [`finish`](MachineRun::finish).
    ///
    /// Event order on each access: counters advance first; then an armed
    /// watchpoint covering the access fires a [`Trap`] (the register is
    /// disarmed before delivery); then, if the sampling counter overflowed
    /// on this access, a [`Sample`] is delivered. A watchpoint armed inside
    /// a handler is first eligible to fire on the *next* access — hardware
    /// cannot retroactively trap the access that is already retiring.
    pub fn run(&self, stream: impl AccessStream, profiler: &mut impl Profiler) -> RunReport {
        let mut run = self.start();
        run.feed(stream, profiler);
        run.finish(profiler)
    }
}

/// A machine run in progress: the PMU, debug registers, cost ledger and
/// access index that [`Machine::run`] keeps between accesses, held
/// across calls so a stream can arrive in pieces.
///
/// Feeding a stream in any number of pieces delivers exactly the events
/// of one [`Machine::run`] over their concatenation. Cloning the run
/// together with its profiler and finishing the clones
/// ([`snapshot`](MachineRun::snapshot)) reports the stream so far
/// without disturbing the live run.
#[derive(Debug, Clone)]
pub struct MachineRun {
    pmu: Pmu,
    drf: DebugRegisterFile,
    ledger: CostLedger,
    index: u64,
    /// One kernel per run: resolved at start, never re-dispatched.
    kernel: KernelKind,
    /// The sampling mode admits the chunk fast path.
    eligible: bool,
    /// `rdx.machine.scan.kernel` counts runs, not feeds.
    kernel_reported: bool,
    cost: CostModel,
}

impl MachineRun {
    /// Runs `stream` to its end, delivering events to `profiler`.
    ///
    /// # Fast path
    ///
    /// When the stream exposes contiguous chunks
    /// ([`AccessStream::next_chunk`]) and the sampling mode is the precise
    /// all-accesses default (`event == Accesses`, `max_skid == 0`), the
    /// machine skips the per-access state machines for the quiet gaps
    /// between overflows: the PMU countdown bounds how many accesses can
    /// pass without an event, a [`NeedleSet`] scan locates the first
    /// watchpoint hit inside that gap, and counters/ledger advance in
    /// bulk. Only accesses that deliver an event (and the overflow access
    /// itself) take the ordinary step, so samples, traps, evictions, RNG
    /// consumption and cost accounting are bit-identical to the slow
    /// loop. Everything else — non-chunked streams, skidding or
    /// event-filtered sampling, stream tails — falls back per access.
    pub fn feed(&mut self, mut stream: impl AccessStream, profiler: &mut impl Profiler) {
        let mut try_chunks = self.eligible && stream.chunk_capable();
        if try_chunks && !self.kernel_reported {
            self.kernel_reported = true;
            rdx_metrics::counter("rdx.machine.scan.kernel").incr();
        }
        // Engagement counters, accumulated locally and flushed once so
        // the (feature-gated) metrics atomics stay off the hot path.
        let mut fp_chunks: u64 = 0;
        let mut fp_scanned: u64 = 0;
        let mut fp_fallbacks: u64 = 0;

        loop {
            if try_chunks {
                let consumed = match stream.next_chunk() {
                    Some(chunk) => {
                        fp_chunks += 1;
                        fp_scanned += chunk.len() as u64;
                        run_chunk(
                            chunk,
                            self.kernel,
                            &mut self.pmu,
                            &mut self.drf,
                            &mut self.ledger,
                            profiler,
                            &mut self.index,
                        );
                        chunk.len()
                    }
                    None => 0,
                };
                if consumed > 0 {
                    stream.consume_chunk(consumed);
                    continue;
                }
                // No chunk: the stream is exhausted (or lied about its
                // capability); drain whatever is left per access.
                try_chunks = false;
            }
            let Some(access) = stream.next_access() else {
                break;
            };
            fp_fallbacks += 1;
            step_access(
                access,
                &mut self.pmu,
                &mut self.drf,
                &mut self.ledger,
                profiler,
                self.index,
            );
            self.index += 1;
        }

        if fp_chunks > 0 || fp_scanned > 0 {
            rdx_metrics::counter("rdx.machine.fastpath.chunks").add(fp_chunks);
            rdx_metrics::counter("rdx.machine.fastpath.scanned_accesses").add(fp_scanned);
            // Per-kernel totals, named literally per match arm so the
            // counter-manifest lint sees every name.
            match self.kernel {
                KernelKind::Scalar | KernelKind::Swar => {
                    rdx_metrics::counter("rdx.machine.scan.scalar_accesses").add(fp_scanned);
                }
                KernelKind::Simd => {
                    rdx_metrics::counter("rdx.machine.scan.simd_accesses").add(fp_scanned);
                }
            }
        }
        if fp_fallbacks > 0 {
            rdx_metrics::counter("rdx.machine.fastpath.fallbacks").add(fp_fallbacks);
        }
    }

    /// Ends the run: [`Profiler::on_finish`] sees the registers still
    /// armed, then the report sums up the run.
    pub fn finish(mut self, profiler: &mut impl Profiler) -> RunReport {
        let counters = self.pmu.counters();
        let mut hw = Hardware {
            drf: &mut self.drf,
            ledger: &mut self.ledger,
            counters,
            index: self.index.saturating_sub(1),
        };
        profiler.on_finish(&mut hw);

        RunReport {
            accesses: self.index,
            counters,
            ledger: self.ledger,
            cost: self.cost,
        }
    }

    /// Finishes clones of the run and of `profiler`, leaving both
    /// originals live: the report and finished profiler of the stream
    /// so far, exactly as if it had ended here.
    #[must_use]
    pub fn snapshot<P: Profiler + Clone>(&self, profiler: &P) -> (P, RunReport) {
        let mut finished = profiler.clone();
        let report = self.clone().finish(&mut finished);
        (finished, report)
    }
}

/// One access through the full PMU + debug-register state machines: the
/// single stepping implementation both the slow loop and the fast path's
/// event deliveries go through.
fn step_access(
    access: Access,
    pmu: &mut Pmu,
    drf: &mut DebugRegisterFile,
    ledger: &mut CostLedger,
    profiler: &mut impl Profiler,
    index: u64,
) {
    let outcome = pmu.on_event(access.kind.is_store());
    ledger.accesses += 1;
    let counters = pmu.counters();

    if let Some(slot) = drf.matching(&access) {
        // Disarm before delivery, like a real handler clearing DR7;
        // matching() only returns armed slots, so disarm cannot miss.
        if let Some(info) = drf.disarm(slot) {
            ledger.traps += 1;
            let trap = Trap {
                access,
                index,
                slot,
                info,
                counters,
            };
            let mut hw = Hardware {
                drf,
                ledger,
                counters,
                index,
            };
            profiler.on_trap(&trap, &mut hw);
        }
    }

    if outcome == PmuOutcome::SampleHere {
        ledger.samples += 1;
        let sample = Sample {
            access,
            index,
            counters,
        };
        let mut hw = Hardware {
            drf,
            ledger,
            counters,
            index,
        };
        profiler.on_sample(&sample, &mut hw);
    }
}

/// Replays one contiguous chunk through the event-driven fast path.
///
/// Invariant on entry and exit: `pmu.countdown() ≥ 1`, no skid pending,
/// and the needle set is rebuilt after every delivered event (the only
/// points where a handler can rearrange the registers). Each iteration
/// handles one *segment*: the quiet prefix bounded by the next overflow
/// (`countdown − 1` accesses) and the chunk end, scanned in bulk, then
/// at most one single-stepped event access.
fn run_chunk(
    chunk: &[Access],
    kernel: KernelKind,
    pmu: &mut Pmu,
    drf: &mut DebugRegisterFile,
    ledger: &mut CostLedger,
    profiler: &mut impl Profiler,
    index: &mut u64,
) {
    let mut needles = NeedleSet::from_registers(drf);
    let mut pos: usize = 0;
    while pos < chunk.len() {
        let remaining = chunk.len() - pos;
        // The overflow access itself must single-step (it consumes RNG
        // and delivers the sample), so the scannable quiet run is at
        // most countdown − 1 accesses long.
        let gap = pmu.countdown() - 1;
        let quiet = remaining.min(usize::try_from(gap).unwrap_or(usize::MAX));
        let scan = kernels::run_scan(kernel, &needles, &chunk[pos..pos + quiet]);
        match scan.first_match {
            Some(off) => {
                // Trap inside the quiet run: bulk-advance the prefix,
                // then step the trapping access for real.
                let prefix = off as u64;
                pmu.advance_quiet(prefix - scan.stores_before, scan.stores_before);
                ledger.accesses += prefix;
                *index += prefix;
                step_access(chunk[pos + off], pmu, drf, ledger, profiler, *index);
                *index += 1;
                pos += off + 1;
                needles = NeedleSet::from_registers(drf);
            }
            None => {
                // Whole quiet run passes without an event.
                let run = quiet as u64;
                pmu.advance_quiet(run - scan.stores_before, scan.stores_before);
                ledger.accesses += run;
                *index += run;
                pos += quiet;
                if quiet < remaining {
                    // Next access overflows the sampling counter.
                    step_access(chunk[pos], pmu, drf, ledger, profiler, *index);
                    *index += 1;
                    pos += 1;
                    needles = NeedleSet::from_registers(drf);
                }
                // else: chunk exhausted mid-gap; the countdown carries
                // the remainder into the next chunk (or the run's end).
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::{Address, Trace};

    /// Records every event it sees; arms a watchpoint on each sample.
    #[derive(Default)]
    struct Recorder {
        samples: Vec<Sample>,
        traps: Vec<Trap>,
        finish_armed: usize,
    }

    impl Profiler for Recorder {
        fn on_sample(&mut self, sample: &Sample, hw: &mut Hardware) {
            self.samples.push(*sample);
            let wp = Watchpoint::read_write(sample.access.addr, 8);
            // Evict the oldest armed register if full (FIFO), like RDX.
            if hw.armed_count() == hw.register_count() {
                let oldest = hw
                    .armed_iter()
                    .min_by_key(|(_, info)| info.armed_at)
                    .map(|(slot, _)| slot)
                    .expect("registers are full");
                hw.disarm(oldest);
            }
            hw.arm(wp, sample.access.addr.raw()).expect("slot freed");
        }

        fn on_trap(&mut self, trap: &Trap, _hw: &mut Hardware) {
            self.traps.push(*trap);
        }

        fn on_finish(&mut self, hw: &mut Hardware) {
            self.finish_armed = hw.armed_count();
        }
    }

    fn config(period: u64) -> MachineConfig {
        let mut c = MachineConfig::default().with_sampling_period(period);
        c.sampling.jitter = 0;
        c
    }

    #[test]
    fn trap_fires_on_reuse() {
        // Period 4: sample lands on the 4th access (index 3, addr 0), which
        // repeats every 4 accesses; the next access to 0 is index 4.
        let addrs = [0u64, 8, 16, 0, 0, 8, 16, 0];
        let trace = Trace::from_addresses("t", addrs);
        let mut rec = Recorder::default();
        let report = Machine::new(config(4)).run(trace.stream(), &mut rec);
        assert_eq!(report.accesses, 8);
        assert_eq!(rec.samples.len(), 2);
        assert_eq!(rec.samples[0].index, 3);
        assert_eq!(rec.samples[0].access.addr, Address::new(0));
        // watchpoint on 0 armed at index 3 → traps at index 4
        assert_eq!(rec.traps.len(), 1);
        assert_eq!(rec.traps[0].index, 4);
        assert_eq!(rec.traps[0].info.armed_at, 3);
        // reuse time from counter snapshots: accesses strictly between = 0
        let rt = rec.traps[0].counters.value(crate::PmuEvent::Accesses)
            - rec.traps[0].info.accesses_at_arm
            - 1;
        assert_eq!(rt, 0);
    }

    #[test]
    fn armed_watchpoint_does_not_trap_its_own_access() {
        // Single address: each sample arms on the same access's address, and
        // the trap must come on a LATER access.
        let trace = Trace::from_addresses("same", std::iter::repeat_n(0x40u64, 20));
        let mut rec = Recorder::default();
        Machine::new(config(5)).run(trace.stream(), &mut rec);
        for t in &rec.traps {
            assert!(t.index > t.info.armed_at);
        }
        assert!(!rec.traps.is_empty());
    }

    #[test]
    fn no_reuse_no_traps() {
        let trace = Trace::from_addresses("stream", (0..1000u64).map(|i| i * 64));
        let mut rec = Recorder::default();
        let report = Machine::new(config(100)).run(trace.stream(), &mut rec);
        assert_eq!(rec.traps.len(), 0);
        assert_eq!(rec.samples.len(), 10);
        // on_finish saw the still-armed registers (4 at most, ≥1 armed)
        assert!(rec.finish_armed >= 1);
        assert_eq!(report.ledger.samples, 10);
        assert_eq!(report.ledger.traps, 0);
    }

    #[test]
    fn ledger_counts_arms() {
        let trace = Trace::from_addresses("a", (0..1000u64).map(|i| (i % 10) * 64));
        let mut rec = Recorder::default();
        let report = Machine::new(config(50)).run(trace.stream(), &mut rec);
        assert_eq!(report.ledger.arms as usize, rec.samples.len());
        assert_eq!(report.ledger.accesses, 1000);
    }

    #[test]
    fn overhead_reflects_event_counts() {
        let trace = Trace::from_addresses("o", (0..100_000u64).map(|i| (i % 100) * 64));
        let mut rec = Recorder::default();
        let report = Machine::new(config(10_000)).run(trace.stream(), &mut rec);
        // 10 samples + ≤10 traps at 10k cycles each vs 300k base cycles.
        let ovh = report.time_overhead();
        assert!(ovh > 0.0 && ovh < 0.5, "overhead {ovh} out of range");
    }

    #[test]
    fn deterministic_runs() {
        let trace = Trace::from_addresses("d", (0..10_000u64).map(|i| (i * 37) % 4096 * 64));
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let cfg = MachineConfig::default()
            .with_sampling_period(500)
            .with_seed(11);
        Machine::new(cfg).run(trace.stream(), &mut a);
        Machine::new(cfg).run(trace.stream(), &mut b);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.traps, b.traps);
    }

    #[test]
    fn different_seed_different_samples() {
        let trace = Trace::from_addresses("s", (0..100_000u64).map(|i| (i % 333) * 64));
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        Machine::new(
            MachineConfig::default()
                .with_sampling_period(1000)
                .with_seed(1),
        )
        .run(trace.stream(), &mut a);
        Machine::new(
            MachineConfig::default()
                .with_sampling_period(1000)
                .with_seed(2),
        )
        .run(trace.stream(), &mut b);
        assert_ne!(
            a.samples.iter().map(|s| s.index).collect::<Vec<_>>(),
            b.samples.iter().map(|s| s.index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_stream_still_calls_finish() {
        struct FinishFlag(bool);
        impl Profiler for FinishFlag {
            fn on_sample(&mut self, _: &Sample, _: &mut Hardware) {}
            fn on_trap(&mut self, _: &Trap, _: &mut Hardware) {}
            fn on_finish(&mut self, _: &mut Hardware) {
                self.0 = true;
            }
        }
        let trace = Trace::new("e");
        let mut p = FinishFlag(false);
        let report = Machine::new(MachineConfig::default()).run(trace.stream(), &mut p);
        assert!(p.0);
        assert_eq!(report.accesses, 0);
    }

    #[test]
    fn config_builders() {
        let c = MachineConfig::default()
            .with_registers(2)
            .with_sampling_period(100)
            .with_seed(5);
        assert_eq!(c.registers, 2);
        assert_eq!(c.sampling.period, 100);
        assert_eq!(c.sampling.jitter, 10);
        assert_eq!(c.seed, 5);
    }
}
