//! A streaming session counts every received access once, and its
//! snapshots count nothing: only `Close` moves the profiler and runner
//! counters, so the counter identities hold for the closed session.
//!
//! The metrics registry is process-global, so this file holds exactly
//! one test — no sibling test in the same process can add to the
//! counters it reads. It checks something only when the probes are
//! compiled in (`--features metrics`).

use rdx_server::protocol::ServerMessage;
use rdx_server::{SessionCmd, SessionEvent, SessionOptions, SessionStepper};
use rdx_trace::{io, Trace};

const COUNTERS: [&str; 9] = [
    "rdx.trace.decode.accesses",
    "rdx.profiler.samples",
    "rdx.profiler.watchpoints_armed",
    "rdx.profiler.duplicate_samples",
    "rdx.profiler.dropped_samples",
    "rdx.profiler.traps",
    "rdx.profiler.evictions",
    "rdx.profiler.end_censored",
    "rdx.runner.profiles",
];

fn read() -> [u64; 9] {
    let snap = rdx_metrics::snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

fn delta(before: &[u64; 9], name: &str) -> u64 {
    let i = COUNTERS
        .iter()
        .position(|&n| n == name)
        .expect("known counter");
    read()[i] - before[i]
}

#[test]
fn snapshots_count_nothing_and_close_counts_once() {
    if !rdx_metrics::enabled() {
        return;
    }
    let n = 20_000u64;
    let trace = Trace::from_addresses("c", (0..n).map(|i| (i * 7919 % 3001) * 64));
    let bytes = io::to_bytes(&trace);
    let opts = SessionOptions {
        period: 97,
        ..SessionOptions::default()
    };
    let start = read();
    let mut stepper = SessionStepper::new(1, opts, 1 << 24);
    for piece in bytes.chunks(bytes.len().div_ceil(8)) {
        stepper.step(SessionCmd::Chunk(piece.to_vec().into()));
        let before = read();
        stepper.step(SessionCmd::SnapshotHistogram);
        stepper.step(SessionCmd::SnapshotHistogram);
        for name in COUNTERS {
            assert_eq!(delta(&before, name), 0, "a snapshot moved {name}");
        }
    }
    assert_eq!(delta(&start, "rdx.trace.decode.accesses"), n);

    let events = stepper.step(SessionCmd::Close);
    let Some(SessionEvent::Reply(ServerMessage::SessionClosed { clean, profile, .. })) =
        events.first()
    else {
        panic!("Close answered {events:?}");
    };
    assert!(clean);
    assert_eq!(delta(&start, "rdx.trace.decode.accesses"), n);
    assert_eq!(delta(&start, "rdx.runner.profiles"), 1);
    let samples = delta(&start, "rdx.profiler.samples");
    let armed = delta(&start, "rdx.profiler.watchpoints_armed");
    assert_eq!(samples, profile.samples);
    assert_eq!(delta(&start, "rdx.profiler.traps"), profile.traps);
    assert_eq!(delta(&start, "rdx.profiler.evictions"), profile.evictions);
    assert_eq!(
        samples,
        armed
            + delta(&start, "rdx.profiler.duplicate_samples")
            + delta(&start, "rdx.profiler.dropped_samples")
    );
    assert_eq!(
        armed,
        profile.traps + profile.evictions + delta(&start, "rdx.profiler.end_censored")
    );
    assert!(delta(&start, "rdx.profiler.end_censored") > 0);
}
