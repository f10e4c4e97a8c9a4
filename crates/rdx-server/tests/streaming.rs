//! Streaming sessions: a snapshot after any prefix of the byte stream
//! is the offline profile of exactly that prefix.
//!
//! Drives the session state machine through [`SessionStepper`] (no
//! sockets, no threads) with chunk boundaries anywhere — inside the
//! header, inside a varint — and compares every `SnapshotHistogram`
//! answer against `profile_rdxt` over the bytes sent so far.

use proptest::prelude::*;
use rdx_core::{RdxRunner, RdxtInput};
use rdx_server::protocol::ServerMessage;
use rdx_server::{
    ErrorCode, Fnv64, ProfileSnapshot, SessionCmd, SessionEvent, SessionOptions, SessionStepper,
};
use rdx_trace::{io, Trace};

/// A trace with short and long reuses and multi-byte varints, so
/// samples, traps, evictions and split records all occur.
fn trace_bytes(len: u64) -> Vec<u8> {
    let t = Trace::from_addresses(
        "stream",
        (0..len).map(|i| {
            if i % 7 == 0 {
                (1 << 20) + (i / 7 % 900) * 4096
            } else {
                (i % 61) * 8
            }
        }),
    );
    io::to_bytes(&t).to_vec()
}

/// The offline answer for a prefix: `None` while its header is
/// incomplete (the session must answer `NotReady`).
fn offline(opts: &SessionOptions, prefix: &[u8]) -> Option<(ProfileSnapshot, bool)> {
    let input = RdxtInput::from_bytes("stream", prefix.to_vec()).ok()?;
    let (profile, verdict) = RdxRunner::new(opts.config()).profile_rdxt(input, &opts.ingest());
    Some((ProfileSnapshot::from_profile(&profile), verdict.is_ok()))
}

fn digest(s: &ProfileSnapshot) -> u64 {
    let mut d = Fnv64::new();
    s.fold_into(&mut d);
    d.value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_snapshot_equals_the_offline_prefix_profile(
        header_cut in 1usize..40,
        cuts in prop::collection::vec(any::<u64>(), 0..10),
        len in 200u64..4000,
        period in 16u64..256,
        chunk_capacity in 1u64..600,
        seed in any::<u64>(),
    ) {
        let bytes = trace_bytes(len);
        let opts = SessionOptions {
            period,
            seed,
            chunk_capacity,
            ..SessionOptions::default()
        };
        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| (c % (bytes.len() as u64 + 1)) as usize)
            .collect();
        points.push(header_cut);
        points.push(bytes.len());
        points.sort_unstable();
        points.dedup();

        let mut stepper = SessionStepper::new(1, opts, 1 << 24);
        let mut at = 0;
        for &to in &points {
            stepper.step(SessionCmd::Chunk(bytes[at..to].to_vec().into()));
            at = to;
            let events = stepper.step(SessionCmd::SnapshotHistogram);
            match (events.first(), offline(&opts, &bytes[..to])) {
                (Some(SessionEvent::Reply(ServerMessage::Histogram { profile, .. })), Some((want, _))) => {
                    prop_assert_eq!(digest(profile), digest(&want), "after {} bytes", to);
                    prop_assert_eq!(profile, &want);
                }
                (Some(SessionEvent::Reply(ServerMessage::Error { code: ErrorCode::NotReady, .. })), None) => {}
                (other, want) => prop_assert!(
                    false,
                    "after {} bytes: answered {:?}, offline {:?}",
                    to,
                    other,
                    want.map(|(w, _)| digest(&w))
                ),
            }
        }
        let events = stepper.step(SessionCmd::Close);
        let Some(SessionEvent::Reply(ServerMessage::SessionClosed { clean, profile, .. })) =
            events.first()
        else {
            panic!("Close answered {events:?}");
        };
        let (want, want_clean) = offline(&opts, &bytes).expect("whole trace has a header");
        prop_assert!(*clean && want_clean);
        prop_assert_eq!(profile, &want);
    }

    /// The clean-close verdict is the offline decode verdict: a
    /// truncated stream or trailing bytes close unclean, with the
    /// offline profile of the decodable records.
    #[test]
    fn close_verdict_matches_offline(
        cut in 0usize..40,
        trailing in prop::collection::vec(any::<u8>(), 0..4),
        pieces in 1usize..5,
    ) {
        let mut bytes = trace_bytes(500);
        bytes.truncate(bytes.len() - cut.min(bytes.len() - 30));
        bytes.extend_from_slice(&trailing);
        let opts = SessionOptions { period: 32, ..SessionOptions::default() };
        let mut stepper = SessionStepper::new(1, opts, 1 << 24);
        for piece in bytes.chunks(bytes.len().div_ceil(pieces)) {
            stepper.step(SessionCmd::Chunk(piece.to_vec().into()));
        }
        let events = stepper.step(SessionCmd::Close);
        let Some(SessionEvent::Reply(ServerMessage::SessionClosed { clean, profile, .. })) =
            events.first()
        else {
            panic!("Close answered {events:?}");
        };
        let (want, want_clean) = offline(&opts, &bytes).expect("header intact");
        prop_assert_eq!(*clean, want_clean);
        prop_assert_eq!(profile, &want);
    }
}
