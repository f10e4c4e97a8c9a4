//! File-backed trace ingestion: RDXT inputs into the profiling engine.
//!
//! The profiler consumes [`AccessStream`](rdx_trace::AccessStream)s;
//! RDXT files on disk reach it through this module as a plain
//! [`TraceReader`], whose chunk API bulk-decodes a bounded chunk of
//! varints per refill on the profiling thread, so `Machine::run`'s
//! bulk-scan fast path applies. Nothing runs beside the profiler:
//! decoding ahead on a second thread was measured slower than this path
//! on every registry workload.
//!
//! Headers are validated when an input is loaded ([`load_rdxt`]), so
//! stream construction on a batch worker cannot fail; record-level
//! corruption surfaces as the stream's parked [`TraceError`] after the
//! run, per the trace layer's chunk-granularity recovery contract.

use crate::batch::{profile_batch, BatchTask};
use crate::config::RdxConfig;
use crate::report::RdxProfile;
use crate::runner::RdxRunner;
use rdx_trace::{KernelChoice, TraceError, TraceReader, DEFAULT_CHUNK_CAPACITY};
use std::fmt;
use std::path::{Path, PathBuf};

/// How file-backed profiling decodes its input.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// Accesses per decoded chunk (default
    /// [`DEFAULT_CHUNK_CAPACITY`]).
    pub chunk_capacity: usize,
    /// Which decode kernel the reader uses (default: auto, the
    /// cheapest available in the trace layer's capability table).
    pub decode_kernel: KernelChoice,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            decode_kernel: KernelChoice::Auto,
        }
    }
}

impl IngestOptions {
    /// Sets the accesses decoded per chunk.
    #[must_use]
    pub fn with_chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity;
        self
    }

    /// Selects the decode kernel (default: auto).
    #[must_use]
    pub fn with_decode_kernel(mut self, kernel: KernelChoice) -> Self {
        self.decode_kernel = kernel;
        self
    }
}

/// Why an RDXT input could not be loaded.
#[derive(Debug)]
pub enum IngestError {
    /// Reading the file failed.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not a valid RDXT trace (bad header).
    Trace {
        /// The offending path.
        path: PathBuf,
        /// The underlying format error.
        source: TraceError,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            IngestError::Trace { path, source } => {
                write!(f, "{} is not a valid RDXT trace: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            IngestError::Trace { source, .. } => Some(source),
        }
    }
}

/// A loaded, header-validated RDXT input, ready to stream.
#[derive(Debug)]
pub struct RdxtInput {
    /// Display label: the trace's embedded name, or the file stem when
    /// the embedded name is empty.
    pub label: String,
    /// Record count declared by the header.
    pub declared: u64,
    reader: TraceReader,
}

impl RdxtInput {
    /// Wraps an already-loaded RDXT byte buffer, validating the header.
    ///
    /// `fallback_label` is used when the embedded trace name is empty.
    ///
    /// # Errors
    ///
    /// [`TraceError`] if the header is malformed.
    pub fn from_bytes(
        fallback_label: impl Into<String>,
        bytes: impl Into<bytes::Bytes>,
    ) -> Result<RdxtInput, TraceError> {
        let reader = TraceReader::new(bytes.into())?;
        let label = if reader.name().is_empty() {
            fallback_label.into()
        } else {
            reader.name().to_owned()
        };
        Ok(RdxtInput {
            label,
            declared: reader.declared_len(),
            reader,
        })
    }

    /// Turns the input into a profiler-ready, chunk-capable stream.
    #[must_use]
    pub fn into_stream(self, opts: &IngestOptions) -> TraceReader {
        self.reader
            .with_kernel(opts.decode_kernel)
            .with_chunk_capacity(opts.chunk_capacity)
    }
}

/// Loads and header-validates an RDXT file.
///
/// # Errors
///
/// [`IngestError`] when the file cannot be read or is not a valid RDXT
/// trace.
pub fn load_rdxt(path: impl AsRef<Path>) -> Result<RdxtInput, IngestError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|source| IngestError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    RdxtInput::from_bytes(stem, bytes).map_err(|source| IngestError::Trace {
        path: path.to_path_buf(),
        source,
    })
}

/// One file's profile out of [`profile_rdxt_batch`].
#[derive(Debug)]
pub struct RdxtReport {
    /// Display label of the input (embedded name or file stem).
    pub label: String,
    /// Record count the header declared.
    pub declared: u64,
    /// The profile measured over the decodable prefix.
    pub profile: RdxProfile,
}

impl RdxtReport {
    /// True when fewer accesses were profiled than the header declared —
    /// the input was truncated or corrupt past some point.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.profile.accesses != self.declared
    }
}

impl RdxRunner {
    /// Profiles one RDXT input end to end and reports both the profile
    /// and the decode verdict (clean / truncated / trailing data).
    pub fn profile_rdxt(
        &self,
        input: RdxtInput,
        opts: &IngestOptions,
    ) -> (RdxProfile, Result<(), TraceError>) {
        let mut stream = input.into_stream(opts);
        let profile = self.profile(&mut stream);
        (profile, stream.finish())
    }
}

/// Profiles a set of RDXT inputs in parallel on at most `jobs` threads
/// (via [`profile_batch`]: results in input order, worker panics
/// re-raised in task order).
///
/// Decode errors do not panic a task: each profile covers the decodable
/// prefix of its input, and [`RdxtReport::truncated`] flags inputs that
/// fell short of their declared record count.
#[must_use]
pub fn profile_rdxt_batch(
    config: RdxConfig,
    inputs: Vec<RdxtInput>,
    opts: &IngestOptions,
    jobs: usize,
) -> Vec<RdxtReport> {
    let mut labels = Vec::with_capacity(inputs.len());
    let opts = *opts;
    let tasks: Vec<BatchTask<_>> = inputs
        .into_iter()
        .map(|input| {
            labels.push((input.label.clone(), input.declared));
            BatchTask {
                config,
                make_stream: move || input.into_stream(&opts),
            }
        })
        .collect();
    let profiles = profile_batch(tasks, jobs);
    labels
        .into_iter()
        .zip(profiles)
        .map(|((label, declared), profile)| RdxtReport {
            label,
            declared,
            profile,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdx_trace::{io, Trace};

    fn sample_bytes(name: &str, n: u64) -> Vec<u8> {
        let t = Trace::from_stream(
            name,
            Trace::from_addresses(name, (0..n).map(|i| (i % 257) * 64)).stream(),
        );
        io::to_bytes(&t).to_vec()
    }

    fn both_opts() -> [IngestOptions; 2] {
        [
            IngestOptions::default(),
            IngestOptions::default().with_chunk_capacity(1024),
        ]
    }

    #[test]
    fn file_profile_matches_in_memory_both_paths() {
        let t = Trace::from_addresses("m", (0..60_000u64).map(|i| (i % 511) * 64));
        let raw = io::to_bytes(&t);
        let runner = RdxRunner::new(RdxConfig::default().with_period(512).with_seed(3));
        let want = runner.profile(t.stream());
        for opts in both_opts() {
            let input = RdxtInput::from_bytes("m", raw.clone()).expect("valid");
            let (profile, verdict) = runner.profile_rdxt(input, &opts);
            assert!(verdict.is_ok(), "capacity {}", opts.chunk_capacity);
            assert_eq!(profile.rd, want.rd, "capacity {}", opts.chunk_capacity);
            assert_eq!(profile.rt, want.rt);
            assert_eq!(profile.samples, want.samples);
            assert_eq!(profile.traps, want.traps);
            assert_eq!(profile.accesses, want.accesses);
        }
    }

    #[test]
    fn truncated_file_profiles_prefix_and_reports() {
        let mut raw = sample_bytes("cut", 30_000);
        raw.truncate(raw.len() - 11);
        for opts in both_opts() {
            let input = RdxtInput::from_bytes("cut", raw.clone()).expect("header intact");
            let declared = input.declared;
            let runner = RdxRunner::new(RdxConfig::default().with_period(256));
            let (profile, verdict) = runner.profile_rdxt(input, &opts);
            assert!(profile.accesses < declared);
            assert!(
                matches!(verdict, Err(TraceError::Truncated)),
                "capacity {}",
                opts.chunk_capacity
            );
        }
    }

    #[test]
    fn batch_over_files_matches_sequential() {
        let config = RdxConfig::default().with_period(512).with_seed(9);
        let runner = RdxRunner::new(config);
        let raws: Vec<(String, Vec<u8>)> = (0..4u64)
            .map(|k| {
                (
                    format!("w{k}"),
                    sample_bytes(&format!("w{k}"), 20_000 + 1000 * k),
                )
            })
            .collect();
        let sequential: Vec<RdxProfile> = raws
            .iter()
            .map(|(label, raw)| {
                let input = RdxtInput::from_bytes(label.clone(), raw.clone()).expect("valid");
                runner.profile_rdxt(input, &IngestOptions::default()).0
            })
            .collect();
        let inputs: Vec<RdxtInput> = raws
            .iter()
            .map(|(label, raw)| RdxtInput::from_bytes(label.clone(), raw.clone()).expect("valid"))
            .collect();
        let reports = profile_rdxt_batch(config, inputs, &IngestOptions::default(), 4);
        assert_eq!(reports.len(), 4);
        for (report, want) in reports.iter().zip(&sequential) {
            assert!(!report.truncated());
            assert_eq!(report.profile.rd, want.rd);
            assert_eq!(report.profile.samples, want.samples);
        }
    }

    #[test]
    fn batch_flags_truncated_inputs() {
        let good = sample_bytes("good", 10_000);
        let mut bad = sample_bytes("bad", 10_000);
        bad.truncate(bad.len() - 20);
        let inputs = vec![
            RdxtInput::from_bytes("good", good).expect("valid"),
            RdxtInput::from_bytes("bad", bad).expect("header intact"),
        ];
        let reports = profile_rdxt_batch(
            RdxConfig::default().with_period(128),
            inputs,
            &IngestOptions::default(),
            2,
        );
        assert!(!reports[0].truncated());
        assert!(reports[1].truncated());
    }

    #[test]
    fn load_rdxt_reports_missing_file_and_bad_header() {
        let err = load_rdxt("/nonexistent/definitely-missing.rdxt").unwrap_err();
        assert!(matches!(err, IngestError::Io { .. }), "{err}");
        let dir = std::env::temp_dir().join("rdx-ingest-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bad = dir.join("not-a-trace.rdxt");
        std::fs::write(&bad, b"definitely not RDXT").expect("write");
        let err = load_rdxt(&bad).unwrap_err();
        assert!(matches!(
            err,
            IngestError::Trace {
                source: TraceError::BadMagic,
                ..
            }
        ));
        let good = dir.join("roundtrip.rdxt");
        std::fs::write(&good, sample_bytes("roundtrip", 1000)).expect("write");
        let input = load_rdxt(&good).expect("valid trace file");
        assert_eq!(input.label, "roundtrip");
        assert_eq!(input.declared, 1000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_embedded_name_falls_back_to_label() {
        let t: Trace = (0..100u64).map(|i| (i * 64, false)).collect(); // name ""
        let input = RdxtInput::from_bytes("fallback", io::to_bytes(&t)).expect("valid");
        assert_eq!(input.label, "fallback");
    }
}
