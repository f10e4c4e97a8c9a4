//! `serve_monitor`: an in-process `rdx serve` on a Unix socket, driven
//! by one client connection in a closed loop.
//!
//! *Why this workload:* it is the only one that runs the server layers.
//! Reads (snapshots) and writes (uploads) share the session code, so a
//! session change that speeds snapshots but slows uploads shows here.
//!
//! One round streams every registry trace of `TRACES` twice, with
//! default session options (period 2048, decode-ahead) and every
//! session under the default `max_session_bytes`; one pass is one
//! session:
//!
//! * as a **monitored** session: the trace arrives in 16 fixed-size
//!   chunks with a `SnapshotHistogram` after every chunk
//!   (→ `snapshot_ms_*`);
//! * as an **upload**: the same chunks, then `Flush`, then
//!   `CloseSession` (→ `close_ms_p50`, `rdx-server.flush_ms_p50`).
//!
//! Today every snapshot re-profiles the session from byte zero, on a
//! fresh decode-ahead thread, so snapshot latency grows with the trace
//! prefix: `snapshot_ms_p90` sits well above `snapshot_ms_p50`, and the
//! report prints the latency after the first and after the last chunk.
//! The traces are sized so this stays visible.
//!
//! Layer map: `rdx-server.send_ms_p50`, `rdx-server.{frames,bytes}_sent`
//! move `close_ms_p50` and `accesses_per_s`; `rdx-server.decoded_accesses`
//! (the server's `rdx.trace.decode.accesses` counter, read through
//! `SnapshotMetrics`) counts what the server re-decodes and moves
//! `snapshot_ms_p90` and `peak_rss_mib`. The traced run reads the
//! server's `rdx.profile` span (its `profile_rdxt_s`) and the
//! `censor`/`convert` child spans (`post_s`); decode and machine shares
//! of it are estimated from isolated per-access costs measured in
//! set-up, times the accesses the server decoded.

use crate::common::{
    accuracy, exact_all, geo_mean, repeat_setup, secs, timed, timed_phase, Args, Checks,
    LayerClock, Outcome, Pass, Scale, SAMPLER_SEEDS,
};
use memsim::Machine;
use rdx_core::{RdxProfile, RdxProfiler, RdxRunner, RdxtInput};
use rdx_groundtruth::ExactProfile;
use rdx_server::{Client, Fnv64, Listen, ProfileSnapshot, Server, ServerOptions, SessionOptions};
use rdx_trace::{io, Chunk, Trace, TraceReader, DEFAULT_CHUNK_CAPACITY};
use rdx_workloads::{by_name, Params};
use std::time::Instant;

/// Registry kernels the sessions stream, in rotation.
const TRACES: [&str; 4] = ["zipf", "gauss_hotset", "spmv", "sort_merge"];

/// (accesses per session, footprint elements, chunks per session).
fn sizes(scale: Scale) -> (u64, u64, usize) {
    match scale {
        Scale::Full => (2_000_000, 200_000, 16),
        Scale::Tiny => (20_000, 2_000, 4),
    }
}

struct SessionTrace {
    name: &'static str,
    params: Params,
    bytes: Vec<u8>,
    /// Chunk size in bytes, so every session arrives in the same number
    /// of chunks.
    chunk_len: usize,
    /// Offline profile of the same bytes under each sampler seed, and
    /// its wire digest.
    references: Vec<(RdxProfile, (u64, u64))>,
}

impl SessionTrace {
    fn trace(&self) -> Trace {
        let spec = by_name(self.name).expect("registry kernel");
        Trace::from_stream(self.name, spec.stream(&self.params))
    }
}

struct Setup {
    /// Session options of each sampler seed of the rotation.
    slots: Vec<SessionOptions>,
    traces: Vec<SessionTrace>,
    /// Isolated per-access decode and machine costs (traced runs only).
    decode_s_per_access: f64,
    machine_s_per_access: f64,
}

fn digest(s: &ProfileSnapshot) -> (u64, u64) {
    let mut d = Fnv64::new();
    s.fold_into(&mut d);
    (d.value(), s.accesses)
}

fn setup(args: &Args, checks: &mut Checks) -> Setup {
    let slots: Vec<SessionOptions> = (0..SAMPLER_SEEDS)
        .map(|k| SessionOptions {
            seed: args.sampler_seed(k),
            ..SessionOptions::default()
        })
        .collect();
    let (accesses, elements, chunks) = sizes(args.scale);
    let (mut decode_s, mut machine_s, mut calibrated) = (0.0, 0.0, 0u64);
    let mut traces = Vec::new();
    for (i, &name) in TRACES.iter().enumerate() {
        let mut st = SessionTrace {
            name,
            params: Params::default()
                .with_accesses(accesses)
                .with_elements(elements)
                .with_seed(args.sub_seed(i as u64)),
            bytes: Vec::new(),
            chunk_len: 0,
            references: Vec::new(),
        };
        let trace = st.trace();
        let bytes = io::to_bytes(&trace);
        for opts in &slots {
            let runner = RdxRunner::new(opts.config());
            let reference = match RdxtInput::from_bytes(name, bytes.clone()) {
                Ok(input) => {
                    let (p, verdict) = runner.profile_rdxt(input, &opts.ingest());
                    checks.record(verdict.is_ok(), || {
                        format!("{name}: offline decode {verdict:?}")
                    });
                    p
                }
                Err(e) => {
                    checks.fail(format!("{name}: header {e}"));
                    runner.profile(trace.stream())
                }
            };
            let d = digest(&ProfileSnapshot::from_profile(&reference));
            st.references.push((reference, d));
        }
        if args.trace {
            if let Ok(mut reader) = TraceReader::new(bytes.clone()) {
                let mut chunk = Chunk::default();
                let t = Instant::now();
                while let Ok(n) = reader.decode_chunk(&mut chunk, DEFAULT_CHUNK_CAPACITY) {
                    if n == 0 {
                        break;
                    }
                }
                decode_s += secs(t);
            }
            let config = slots[0].config();
            let mut profiler = RdxProfiler::new(&config);
            let (_, m) = timed(|| Machine::new(config.machine).run(trace.stream(), &mut profiler));
            machine_s += m;
            calibrated += accesses;
        }
        st.chunk_len = bytes.len().div_ceil(chunks);
        st.bytes = bytes.to_vec();
        traces.push(st);
    }
    let per = |s: f64| {
        if calibrated == 0 {
            0.0
        } else {
            s / calibrated as f64
        }
    };
    Setup {
        slots,
        traces,
        decode_s_per_access: per(decode_s),
        machine_s_per_access: per(machine_s),
    }
}

/// Counters and span totals read from the server's registry JSON.
#[derive(Debug, Default, Clone, Copy)]
struct ServerProbe {
    decoded: f64,
    profile_s: f64,
    post_s: f64,
}

/// The number after `"key":` in `json`, or after `"key":{..."field":`.
fn json_value(json: &str, key: &str, field: Option<&str>) -> f64 {
    let pat = format!("\"{key}\":");
    let Some(at) = json.find(&pat) else {
        return 0.0;
    };
    let mut rest = &json[at + pat.len()..];
    if let Some(f) = field {
        let fpat = format!("\"{f}\":");
        let Some(fat) = rest.find(&fpat) else {
            return 0.0;
        };
        rest = &rest[fat + fpat.len()..];
    }
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0.0)
}

fn probe(client: &mut Client, session: u32) -> Result<ServerProbe, String> {
    let reply = client
        .snapshot_metrics(session)
        .map_err(|e| e.to_string())?;
    let j = &reply.registry_json;
    let ns = |key: &str| json_value(j, key, Some("total_ns")) * 1e-9;
    Ok(ServerProbe {
        decoded: json_value(j, "rdx.trace.decode.accesses", None),
        profile_s: ns("rdx.profile"),
        post_s: ns("rdx.profile/censor") + ns("rdx.profile/convert"),
    })
}

/// Client-side tallies of one round.
#[derive(Default)]
struct Tally {
    frames: u64,
    bytes: u64,
    send_s: f64,
    flush_s: f64,
}

fn stream(
    client: &mut Client,
    session: u32,
    bytes: &[u8],
    chunk_len: usize,
    o: &mut Outcome,
    t: &mut Tally,
    mut after_chunk: impl FnMut(&mut Client, &mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    for chunk in bytes.chunks(chunk_len) {
        let (sent, s) = timed(|| client.send_chunk(session, chunk));
        sent.map_err(|e| e.to_string())?;
        o.samples.send_ms.push(1e3 * s);
        t.send_s += s;
        t.frames += 1;
        t.bytes += chunk.len() as u64;
        after_chunk(client, o)?;
    }
    Ok(())
}

/// A monitored session: stream in chunks, `SnapshotHistogram` after
/// every chunk, then close.
fn monitored(
    client: &mut Client,
    st: &SessionTrace,
    slot: (SessionOptions, (u64, u64)),
    o: &mut Outcome,
    t: &mut Tally,
) -> Result<(), String> {
    let (opts, want) = slot;
    let sid = client
        .open_session(st.name, opts)
        .map_err(|e| e.to_string())?;
    let mut last = None;
    let mut latencies = Vec::new();
    stream(client, sid, &st.bytes, st.chunk_len, o, t, |c, _| {
        let (snap, sec) = timed(|| c.snapshot_histogram(sid));
        last = Some(snap.map_err(|e| e.to_string())?);
        latencies.push(1e3 * sec);
        Ok(())
    })?;
    t.frames += 2 + latencies.len() as u64;
    o.checks
        .record(last.as_ref().map(digest) == Some(want), || {
            format!(
                "{}: last snapshot differs from the offline profile",
                st.name
            )
        });
    let ack = client.close_session(sid).map_err(|e| e.to_string())?;
    o.checks
        .record(ack.clean && digest(&ack.profile) == want, || {
            format!(
                "{}: monitored close differs from the offline profile",
                st.name
            )
        });
    o.samples.first_snapshot_ms.extend(latencies.first());
    o.samples.last_snapshot_ms.extend(latencies.last());
    o.samples.snapshot_ms.extend(latencies);
    Ok(())
}

/// An upload session: stream in chunks, `Flush`, then `CloseSession`.
fn upload(
    client: &mut Client,
    st: &SessionTrace,
    slot: (SessionOptions, (u64, u64)),
    corrupt: bool,
    o: &mut Outcome,
    t: &mut Tally,
) -> Result<(), String> {
    let (opts, want) = slot;
    let sid = client
        .open_session(st.name, opts)
        .map_err(|e| e.to_string())?;
    let bytes = if corrupt {
        // A truncated upload: its last record is cut short.
        &st.bytes[..st.bytes.len() - 3]
    } else {
        &st.bytes[..]
    };
    stream(client, sid, bytes, st.chunk_len, o, t, |_, _| Ok(()))?;
    let (flushed, f) = timed(|| client.flush(sid));
    flushed.map_err(|e| e.to_string())?;
    o.samples.flush_ms.push(1e3 * f);
    t.flush_s += f;
    let (closed, c) = timed(|| client.close_session(sid));
    let ack = closed.map_err(|e| e.to_string())?;
    o.samples.close_ms.push(1e3 * c);
    t.frames += 3;
    o.checks
        .record(ack.clean && digest(&ack.profile) == want, || {
            format!(
                "{}: server close profile differs from the offline profile",
                st.name
            )
        });
    Ok(())
}

/// Session `c` of round `r`, one pass: a round is every trace once as
/// a monitored session (`c` < the number of traces), then every trace
/// once as an upload, so all rounds carry the same work. Session `c`
/// of round `r` samples with seed slot `r + c`, rotating the seeds.
/// Returns the trace accesses the session delivered.
fn session(
    s: &Setup,
    client: &mut Client,
    (r, c): (usize, usize),
    o: &mut Outcome,
    t: &mut Tally,
    corrupt: bool,
) -> Result<u64, String> {
    let st = &s.traces[c % s.traces.len()];
    let k = (r + c) % s.slots.len();
    let slot = (s.slots[k], st.references[k].1);
    if c < s.traces.len() {
        monitored(client, st, slot, o, t)?;
    } else {
        upload(client, st, slot, corrupt, o, t)?;
    }
    Ok(st.params.accesses)
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome {
        round_label: format!(
            "{n} monitored sessions ({chunks} snapshots each) + {n} uploads, {accesses} accesses each",
            n = TRACES.len(),
            chunks = sizes(args.scale).2,
            accesses = sizes(args.scale).0
        ),
        ..Outcome::default()
    };
    let mut checks = Checks::default();
    let s = repeat_setup(args.setups(), &mut o, || setup(args, &mut checks));
    o.checks = checks;

    let listen = Listen::Unix(args.workdir.join("rdx.sock"));
    let mut server = match Server::bind(&listen, ServerOptions::default()) {
        Ok(h) => h,
        Err(e) => {
            o.checks.fail(format!("Server::bind {listen}: {e}"));
            return o;
        }
    };
    let mut client = match Client::connect(server.listen()) {
        Ok(c) => c,
        Err(e) => {
            o.checks.fail(format!("Client::connect: {e}"));
            server.shutdown();
            return o;
        }
    };
    // An idle session whose only job is answering SnapshotMetrics.
    let probe_sid = client.open_session("probe", s.slots[0]);

    let sessions = 2 * s.traces.len();
    for c in 0..sessions {
        if let Err(e) = session(
            &s,
            &mut client,
            (0, c),
            &mut o,
            &mut Tally::default(),
            false,
        ) {
            o.checks.fail(format!("warm-up session {c}: {e}"));
        }
    }

    // One class per session of a round; round 0 was the warm-up.
    let mut p = sessions;
    let (clock, e2e) = timed_phase(args.seconds, sessions, &mut o, |o, clock| {
        let (r, c) = (p / sessions, p % sessions);
        p += 1;
        let before = match (&probe_sid, args.trace) {
            (Ok(p), true) => probe(&mut client, *p).ok(),
            _ => None,
        };
        let mut tally = Tally::default();
        let corrupt = args.corrupt && r == 1 && c == s.traces.len();
        let (result, seconds) = timed(|| session(&s, &mut client, (r, c), o, &mut tally, corrupt));
        let accesses = match result {
            Ok(d) => d,
            Err(e) => {
                o.checks.fail(format!("round {r}, session {c}: {e}"));
                return None;
            }
        };
        clock.add("rdx-server.frames_sent", tally.frames as f64);
        clock.add("rdx-server.bytes_sent", tally.bytes as f64);
        if let (Some(b), Ok(p)) = (before, &probe_sid) {
            match probe(&mut client, *p) {
                Ok(a) => {
                    let decoded = a.decoded - b.decoded;
                    clock.add("rdx-server.decoded_accesses", decoded);
                    clock.add("rdx-server.send_s", tally.send_s);
                    clock.add("rdx-server.flush_s", tally.flush_s);
                    clock.add("rdx-core.ingest.profile_rdxt_s", a.profile_s - b.profile_s);
                    clock.add("rdx-core.runner.post_s", a.post_s - b.post_s);
                    clock.add("rdx-trace.decode_s", decoded * s.decode_s_per_access);
                    clock.add("memsim.machine_s", decoded * s.machine_s_per_access);
                }
                Err(e) => o.checks.fail(format!("SnapshotMetrics: {e}")),
            }
        }
        Some(Pass {
            class: c,
            accesses,
            seconds,
        })
    });
    if let Err(e) = &probe_sid {
        o.checks.fail(format!("opening the metrics session: {e}"));
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(args.workdir.join("rdx.sock"));

    let rounds = o.rounds_kept.max(1) as f64;
    o.server.frames_per_round = clock.get("rdx-server.frames_sent") / rounds;
    o.server.bytes_per_round = clock.get("rdx-server.bytes_sent") / rounds;
    o.server.decoded_per_round = clock.get("rdx-server.decoded_accesses") / rounds;
    if args.trace {
        let get = |n| clock.get(n);
        let (decode, machine, post) = (
            get("rdx-trace.decode_s"),
            get("memsim.machine_s"),
            get("rdx-core.runner.post_s"),
        );
        let profile_rdxt = get("rdx-core.ingest.profile_rdxt_s");
        let mut rows = LayerClock::default();
        rows.add("rdx-server.send_s", get("rdx-server.send_s"));
        rows.add("rdx-server.flush_s", get("rdx-server.flush_s"));
        rows.add("rdx-trace.decode_s", decode);
        rows.add("memsim.machine_s", machine);
        rows.add("rdx-core.runner.post_s", post);
        rows.add_signed(
            "rdx-core.ingest.overlap_s",
            decode + machine + post - profile_rdxt,
            -1.0,
        );
        rows.add_signed("rdx-core.ingest.profile_rdxt_s", profile_rdxt, 0.0);
        o.layers = rows.finish(o.rounds_kept, e2e);
    }

    // Scoring: every server answer was checked bit-identical to its
    // offline reference, so the references stand for them.
    let config = s.slots[0].config();
    let exact = exact_all(s.traces.len(), |i| {
        ExactProfile::measure(
            s.traces[i].trace().stream(),
            config.granularity,
            config.binning,
        )
    });
    let (mut rd, mut rt, mut time, mut mem) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (st, ex) in s.traces.iter().zip(&exact) {
        for (p, _) in &st.references {
            let (a, b) = accuracy(p, ex);
            rd.push(a);
            rt.push(b);
            time.push(p.time_overhead);
            mem.push(p.memory_overhead(st.params.footprint_bytes()));
        }
    }
    // Counts of one round: round 1's monitored session and uploads.
    for j in 0..2 * s.traces.len() {
        let slot = (1 + j) % s.slots.len();
        o.counts
            .add(&s.traces[j % s.traces.len()].references[slot].0);
    }
    o.rd_accuracy = geo_mean(&rd);
    o.rt_accuracy = geo_mean(&rt);
    o.time_overhead = geo_mean(&time);
    o.mem_overhead = geo_mean(&mem);
    o
}
