//! Crate-internal ingestion accounting for
//! [`crate::reactor::ReactorServer`]: atomic counters, the [`DropCause`]
//! slot mapping, the parked per-feed state, and the [`ServiceStats`]
//! snapshot assembly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use piano_core::stream::{AuthSession, DropCause, DropCounts, ServiceStats, SessionId};
use piano_core::wire::{IngestFeed, Message};

/// Atomic ingestion counters: written by the reactor thread, read by
/// hosts snapshotting concurrently.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) connections_dropped: AtomicU64,
    pub(crate) connections_shed: AtomicU64,
    pub(crate) connections_suspended: AtomicU64,
    pub(crate) resumes: AtomicU64,
    pub(crate) frames_decoded: AtomicU64,
    pub(crate) wire_audio_bytes: AtomicU64,
    pub(crate) raw_audio_bytes: AtomicU64,
    pub(crate) peak_feed_backlog: AtomicU64,
    pub(crate) busy_replies: AtomicU64,
    pub(crate) credit_replies: AtomicU64,
    /// Sessions decided, added to by every epoch scan.
    pub(crate) sessions_decided: AtomicU64,
    /// Per-[`DropCause`] drop counts, indexed by [`cause_slot`].
    pub(crate) drops: [AtomicU64; 6],
}

/// Fixed index of a cause in [`Counters::drops`] / [`DropCounts`].
pub(crate) fn cause_slot(cause: DropCause) -> usize {
    match cause {
        DropCause::Framing => 0,
        DropCause::Protocol => 1,
        DropCause::Overrun => 2,
        DropCause::Timeout => 3,
        DropCause::Disconnect => 4,
        DropCause::ResumeExpired => 5,
    }
}

impl Counters {
    pub(crate) fn max_peak(&self, candidate: u64) {
        self.peak_feed_backlog
            .fetch_max(candidate, Ordering::Relaxed);
    }

    pub(crate) fn count_drop(&self, cause: DropCause) {
        self.connections_dropped.fetch_add(1, Ordering::Relaxed);
        self.drops[cause_slot(cause)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time [`ServiceStats`] snapshot over these counters.
    pub(crate) fn snapshot(&self) -> ServiceStats {
        let get = |cause: DropCause| self.drops[cause_slot(cause)].load(Ordering::Relaxed);
        ServiceStats {
            connections: self.connections.load(Ordering::Relaxed),
            connections_dropped: self.connections_dropped.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            connections_suspended: self.connections_suspended.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            drops: DropCounts {
                framing: get(DropCause::Framing),
                protocol: get(DropCause::Protocol),
                overrun: get(DropCause::Overrun),
                timeout: get(DropCause::Timeout),
                disconnect: get(DropCause::Disconnect),
                resume_expired: get(DropCause::ResumeExpired),
            },
            frames_decoded: self.frames_decoded.load(Ordering::Relaxed),
            wire_audio_bytes: self.wire_audio_bytes.load(Ordering::Relaxed),
            raw_audio_bytes: self.raw_audio_bytes.load(Ordering::Relaxed),
            peak_feed_backlog: self.peak_feed_backlog.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            credit_replies: self.credit_replies.load(Ordering::Relaxed),
            sessions_decided: self.sessions_decided.load(Ordering::Relaxed),
        }
    }
}

/// Everything one attached feed carries: the parked form of a connection,
/// moved between its connection and the suspension registry.
#[derive(Debug)]
pub(crate) struct FeedState {
    /// The service session (scan-side identity).
    pub(crate) id: SessionId,
    /// The wire session id (what frames and `Resume` carry).
    pub(crate) wire_session: u64,
    /// The gateway-side voucher scanning on the device's behalf.
    pub(crate) voucher: AuthSession,
    /// Sequence/backlog/flow-control accounting for the stream.
    pub(crate) feed: IngestFeed,
    /// `StreamEnd` has been accepted; only backlog drain remains.
    pub(crate) ended: bool,
    /// When the stream began — anchors the whole-stream watchdog across
    /// suspensions and resumes.
    pub(crate) started: Instant,
}

/// Samples an audio message would add to a feed's backlog (0 for
/// non-audio) — used to tell a [`DropCause::Overrun`] from other
/// [`IngestFeed::accept`] rejections.
pub(crate) fn audio_samples(msg: &Message) -> usize {
    match msg {
        Message::AudioChunk { samples, .. } => samples.len(),
        Message::AudioBatch { chunks, .. } => chunks.total_samples(),
        Message::AudioBatchI16 { chunks, .. } => chunks.total_samples(),
        Message::RecheckAudio { samples, .. } => samples.len(),
        _ => 0,
    }
}
