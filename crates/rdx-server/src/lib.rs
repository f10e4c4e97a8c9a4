//! rdx-server — a long-lived framed profiling service for RDX.
//!
//! Instead of profiling one `.rdxt` file per process invocation, a
//! daemon accepts connections over TCP or a Unix domain socket and
//! multiplexes many concurrent profiling *sessions*: each session
//! receives an RDXT byte stream in arbitrary chunks and can be asked
//! for live histograms, metrics, and a final profile at close. Each
//! session decodes and profiles its bytes once, as they arrive, and
//! keeps no bytes: its state grows with the samples taken, and a live
//! histogram finishes a copy of that state. Server-side profiles are
//! bit-identical to the local `RdxtInput` → `profile_rdxt` path over
//! the same bytes — the loopback integration tests pin this against
//! the workspace's golden digest, and the streaming tests pin every
//! snapshot against the offline profile of its prefix.
//!
//! The wire protocol is length-prefixed frames ([`rdx_trace::frame`])
//! carrying tagged messages ([`protocol`]). Everything is bounded:
//! frame sizes, per-session received bytes, and every internal queue,
//! so backpressure propagates to the client socket rather than growing
//! memory. There is no async runtime — plain `std::net` blocking I/O
//! with a thread per connection, per session, and per write side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;

mod client;
mod net;
mod server;
mod session;

pub use client::{AggregateReply, Client, ClientError, CloseAck, FlushAck, MetricsReply};
pub use net::Listen;
pub use protocol::{
    ErrorCode, Fnv64, HistogramSnapshot, ProfileSnapshot, SessionOptions, PROTOCOL_VERSION,
};
pub use server::{Server, ServerHandle, ServerOptions};
pub use session::{SessionCmd, SessionEvent, SessionStepper};
