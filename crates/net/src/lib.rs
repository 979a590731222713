//! # piano-net
//!
//! The transport subsystem: everything that moves PIANO's wire protocol
//! over real byte streams. The protocol logic itself is sans-IO
//! ([`piano_core::stream`] state machines, [`piano_core::wire`] framing
//! and backpressure); this crate binds those pieces to transports and
//! runs the fleet-scale ingest loop on top:
//!
//! ```text
//!  client (thin voucher device)                 server (gateway)
//!  ───────────────────────────                  ────────────────
//!  FeedHandle                                   ReactorServer
//!    Hello(codecs) ───────────────────────────▶   negotiate codec
//!    ◀─────────────────── Accept(session,codec)   open AuthService session
//!    ◀────────────── ReferenceSignals challenge   build voucher AuthSession
//!    AudioBatch/I16 frames ───────────────────▶   FrameReader → IngestFeed
//!    ◀──────────────────────────── Busy/Credit    (watermark backpressure)
//!    StreamEnd ───────────────────────────────▶   finish voucher, route
//!                                                 Step V report to service
//!                 (host scans the hub microphone: scan_and_decide)
//!    ◀─────────────────────────────── Decision    per-session verdict
//! ```
//!
//! * [`transport`] — the [`transport::Transport`]/[`transport::Listener`]
//!   abstraction with two bindings: a deterministic in-memory duplex
//!   (always available; what tests and benches use) and a loopback
//!   `std::net::TcpListener` (auto-skipped where sockets are
//!   unavailable; the reactor polls it in probe mode).
//! * [`reactor`] — [`reactor::ReactorServer`], the gateway: one
//!   event-loop thread serving every connection over nonblocking reads,
//!   with per-phase deadlines on a timer wheel, a suspend/resume
//!   registry, admission-control shedding, standing re-challenge
//!   rounds, and one [`piano_core::stream::AuthService`] that it scans
//!   once per numbered epoch, first authentications and re-challenge
//!   rounds alike, for as long as the server lives. Its knobs are
//!   [`reactor::ServerConfig`]. Connection cost is bytes of state
//!   instead of an OS thread.
//! * [`client`] — the client-side [`client::FeedHandle`] that paces sends
//!   on credit, and [`client::ResilientFeed`], which redials and resumes
//!   the wire session when the transport dies.
//! * [`codec`] — the `f64` ⇄ i16 quantization layer over the wire codec
//!   ([`piano_core::wire::Message::AudioBatchI16`]) and the byte
//!   accounting used by [`piano_core::stream::ServiceStats`].
//! * [`fault`] — [`fault::FaultyTransport`], a seeded fault-injection
//!   wrapper over any transport (short reads/writes, latency, stalls,
//!   mid-stream disconnects), replayable from one `u64` via
//!   [`fault::FaultPlan`].
//!
//! # Determinism guarantee
//!
//! The transport moves bytes; it never changes results. A recording
//! ingested through any [`transport::Transport`], under any segmentation
//! of the byte stream, any interleaving of connections, and either codec,
//! produces decisions identical to feeding the same (quantized) samples
//! to the [`piano_core::stream::AuthService`] directly: framing is
//! exact, the i16 codec is lossless past quantization, and the scan
//! layers underneath are chunking-invariant
//! (`tests/reactor_conformance.rs` pins the end-to-end conformance for
//! 100 concurrent feeds, codec on and off). The guarantee extends across
//! faults: a stream broken by a survivable disconnect and resumed via
//! `Resume`/`ResumeAck` delivers a sample stream byte-identical to the
//! unbroken run (`tests/reactor_conformance.rs`).

#![forbid(unsafe_code)]

pub mod client;
pub mod codec;
pub mod fault;
pub mod fixtures;
mod framing;
mod metrics;
pub mod reactor;
pub mod transport;
mod wheel;

pub use client::{FeedHandle, FeedStats, ResilientFeed, RetryPolicy};
pub use codec::{quantize, quantize_samples};
pub use fault::{FaultLog, FaultPlan, FaultyTransport, LinkFaults, StallSpec};
pub use reactor::{ReactorServer, ServerConfig};
pub use transport::{
    memory_hub, memory_pair, Listener, MemoryStream, ReadySet, ReadySignal, Transport,
};
