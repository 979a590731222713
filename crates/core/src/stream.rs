//! Streaming session API: sans-IO incremental detection, the
//! authentication state machine, and the multi-tenant service.
//!
//! The paper's protocol is inherently incremental — device B records
//! *while* A emits the signal, and Algorithm 1 can conclude as soon as the
//! scan covers the signal's location — yet the classic entry points
//! ([`crate::detect::Detector::detect`], [`crate::action::run_action`])
//! force callers to buffer the full ~2 s recording first. This module
//! redesigns the surface around three layers:
//!
//! * [`StreamingDetector`] — Algorithm 1 as an *incremental* computation.
//!   It owns a ring buffer plus per-candidate capture segments, consumes
//!   audio in arbitrary-size chunks, evaluates coarse windows as soon as
//!   the stream covers them, and emits provisional [`StreamEvent`]s the
//!   moment a refined candidate clears the presence threshold — typically
//!   long before `recording_len()` samples have arrived. Calling
//!   [`StreamingDetector::finish`] yields a [`ScanResult`] **bit-identical**
//!   to [`Detector::detect_many`] on the concatenated buffer, for every
//!   chunking (property-tested): the coarse pass evaluates exactly the
//!   offline offsets in the offline order, and the fine pass runs the
//!   shared view-based refinement on the captured neighborhood of the
//!   coarse maximum.
//! * [`AuthSession`] — one authentication attempt as a **sans-IO** typed
//!   state machine ([`SessionPhase::Idle`] → `Challenged` → `Listening` →
//!   `Decided`). The session never touches radios, microphones, or clocks:
//!   callers feed it audio via [`AuthSession::push_audio`] and wire-format
//!   [`Message`]s via [`AuthSession::handle_message`], and drain outgoing
//!   messages via [`AuthSession::poll_transmit`] — directly compatible
//!   with sealing frames over the existing
//!   [`piano_bluetooth::BluetoothLink`]. Both protocol roles are
//!   supported: [`AuthSession::authenticator`] (device A: draws the
//!   signals, receives the Step V report, decides) and
//!   [`AuthSession::voucher`] (device V: reconstructs the signals from the
//!   challenge, reports its local time difference).
//! * [`AuthService`] — many concurrent sessions multiplexed on one host.
//!   Sessions sharing an [`ActionConfig`] share one cached [`Detector`]
//!   (plans and window tables built once) and one coarse scan pass per
//!   audio tick: the service concatenates the member sessions' signatures
//!   into a single group [`StreamingDetector`], generalizing the
//!   single-pass `detect_many` trick across tenants. The service also
//!   hosts the whole-protocol convenience driver
//!   ([`AuthService::authenticate_pair`]) that `PianoAuthenticator`
//!   wraps.
//!
//! Wire-level ingestion (framed batches, per-feed backpressure, the i16
//! delta PCM codec) lives in [`crate::wire`]: `Message::AudioBatch` /
//! `Message::AudioBatchI16` + `FrameReader` feed sessions from a byte
//! stream, and `IngestFeed` meters each feed against a buffered-sample
//! high-water mark with `Busy`/`Credit` replies. The `piano-net` crate
//! binds all of it to real byte streams (in-memory duplex, loopback
//! TCP): its `ReactorServer` runs one reader/feed/voucher per connection
//! into one [`ShardedAuthService`] and fills a [`ServiceStats`] snapshot
//! — `examples/fleet_ingest.rs` drives hundreds of concurrent feeds
//! through the full stack as real endpoints. Continuous re-verification
//! at fleet scale is scheduled by [`crate::continuum::Continuum`], a
//! hierarchical timer wheel over one shared service.
//!
//! # Why sans-IO?
//!
//! Feng et al.'s continuous-authentication work (PAPERS.md) argues the
//! natural surface for voice authentication is a session fed incrementally
//! by the host; Sound-Proof's server multiplexes many verifications per
//! machine. Both demand that the protocol logic own *no* I/O: the state
//! machine here consumes bytes and samples and produces bytes and events,
//! so the same code runs against the simulated acoustics in this repo, a
//! real audio callback, or a network socket — and it is trivially
//! deterministic and testable.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rand_chacha::ChaCha8Rng;

use piano_acoustics::AcousticField;
use piano_bluetooth::{BluetoothLink, LinkKey, PairingRegistry};
use piano_dsp::spectrum::SpectrumScratch;

use crate::action::{draw_session_signals, ActionOutcome, DistanceEstimate};
use crate::config::ActionConfig;
use crate::detect::{Detection, Detector, ScanMode, ScanResult, SignalSignature};
use crate::device::Device;
use crate::error::PianoError;
use crate::piano::{AuthDecision, DenialReason, PianoConfig};
use crate::ranging::{estimate_distance, LocationDiffs};
use crate::signal::ReferenceSignal;
use crate::sync::OrderedMutex;
use crate::wire::{Message, SignalSpec};

/// Slack (in samples) the ring buffer keeps beyond the retention floor
/// before compacting, so the `O(len)` front-drain amortizes.
const COMPACT_SLACK: usize = 16_384;

/// The PIANO threshold rule: maps ACTION's distance verdict to the final
/// decision under threshold τ. Shared by [`AuthSession`] and
/// [`AuthService::authenticate_pair`] so the two paths cannot diverge.
pub fn decision_from_estimate(estimate: DistanceEstimate, threshold_m: f64) -> AuthDecision {
    match estimate {
        DistanceEstimate::SignalAbsent => AuthDecision::Denied {
            reason: DenialReason::SignalAbsent,
        },
        DistanceEstimate::Measured(d) if d <= threshold_m => {
            AuthDecision::Granted { distance_m: d }
        }
        DistanceEstimate::Measured(d) => AuthDecision::Denied {
            reason: DenialReason::TooFar { distance_m: d },
        },
    }
}

/// A provisional detection emitted mid-stream, before the recording ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyDetection {
    /// The refined detection (always [`Detection::Found`]).
    pub detection: Detection,
    /// Stream position (samples consumed) when the detection fired.
    pub samples_consumed: usize,
}

/// Events emitted by [`StreamingDetector::push`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamEvent {
    /// A signature's coarse maximum cleared the presence threshold and its
    /// fine-scan neighborhood is fully buffered: the refined detection is
    /// available now, `samples_consumed` samples into the stream.
    ///
    /// The event is *provisional*: the offline-equivalent
    /// [`StreamingDetector::finish`] result can still move to a later,
    /// stronger window. In practice (one reference signal per recording)
    /// the early and final locations coincide.
    EarlyDetection {
        /// Index of the signature (construction order).
        signature: usize,
        /// The provisional detection.
        detection: Detection,
        /// Samples consumed when it fired.
        samples_consumed: usize,
    },
}

/// Captured neighborhood of one signature's running coarse maximum: the
/// samples the final fine scan will need, copied out of the ring before
/// the ring drops them.
#[derive(Clone, Debug, Default)]
struct Capture {
    valid: bool,
    /// Absolute sample index of `data[0]`.
    start: usize,
    /// Absolute end (exclusive) the capture wants to cover.
    want_end: usize,
    data: Vec<f64>,
}

impl Capture {
    fn covered_end(&self) -> usize {
        self.start + self.data.len()
    }
    fn complete(&self) -> bool {
        self.valid && self.covered_end() >= self.want_end
    }
}

/// The shared sample ring under the streaming scan: a flat buffer whose
/// element `buf[i]` holds absolute stream sample `base + i`, with
/// `total − base` samples resident. Compaction drops samples no future
/// window can touch, keeping memory `O(signal_len + fine_radius)` for
/// unbounded streams.
///
/// Coarse windows are read in place via [`window`](Self::window); fine
/// neighborhoods are copied out via [`capture_into`](Self::capture_into)
/// before compaction can reclaim them. The compaction floor is rounded
/// down to a multiple of [`RING_ALIGN`] samples so every retained coarse
/// window keeps its phase relative to the buffer start — the layout
/// invariant a vectorized two-windows-per-pass coarse kernel needs to
/// process co-phased window pairs from one contiguous ring.
#[derive(Debug, Default)]
struct SampleRing {
    /// Ring storage: `buf[i]` is absolute sample `base + i`.
    buf: Vec<f64>,
    /// Absolute index of `buf[0]`.
    base: usize,
    /// Total samples consumed (the stream frontier).
    total: usize,
}

/// Compaction alignment (samples): the ring base always stays a multiple
/// of this, so window phase modulo the SIMD lane count is preserved
/// across compactions.
const RING_ALIGN: usize = 8;

impl SampleRing {
    /// Appends one chunk, containing non-finite samples at this boundary:
    /// NaN/±∞ enter the ring as silence (`0.0`), sanitized inline during
    /// the copy — no staging allocation even when a chunk is poisoned.
    fn append(&mut self, samples: &[f64]) {
        self.buf.reserve(samples.len());
        self.buf
            .extend(samples.iter().map(|&s| if s.is_finite() { s } else { 0.0 }));
        self.total += samples.len();
    }

    /// The resident view of absolute range `[start, end)`, or `None` if
    /// any part has been compacted away or not yet arrived.
    fn window(&self, start: usize, end: usize) -> Option<&[f64]> {
        if start < self.base || end > self.total {
            return None;
        }
        self.buf.get(start - self.base..end - self.base)
    }

    /// Appends the resident part of absolute range `[start, end)` onto
    /// `out` and returns the (possibly clamped) absolute index of the
    /// first copied sample. `start` is clamped up to the ring base and
    /// `end` down to the stream frontier, so a requested neighborhood
    /// whose left edge fell behind a compaction yields the samples that
    /// still exist instead of sliding out of range.
    fn capture_into(&self, start: usize, end: usize, out: &mut Vec<f64>) -> usize {
        let lo = start.max(self.base);
        let hi = end.min(self.total).max(lo);
        if let Some(run) = self.buf.get(lo - self.base..hi - self.base) {
            out.extend_from_slice(run);
        }
        lo
    }

    /// Drops samples below `floor` (rounded down to [`RING_ALIGN`]) once
    /// enough have accumulated for the `O(len)` front-drain to amortize.
    fn compact_to(&mut self, floor: usize) {
        let floor = floor & !(RING_ALIGN - 1);
        if floor > self.base + COMPACT_SLACK {
            self.buf.drain(..floor - self.base);
            self.base = floor;
        }
    }
}

/// Algorithm 1 as an incremental, bounded-memory computation.
///
/// Feed samples with [`push`](Self::push) in chunks of any size; read
/// provisional results from the returned [`StreamEvent`]s; call
/// [`finish`](Self::finish) at end-of-stream for the exact offline result.
/// Memory is `O(signal_len + fine_radius)` per tracked signature plus one
/// shared ring of the same order — independent of stream length.
#[derive(Debug)]
pub struct StreamingDetector {
    detector: Arc<Detector>,
    sigs: Vec<SignalSignature>,
    mode: ScanMode,
    /// The shared sample ring all coarse windows and captures read from.
    ring: SampleRing,
    /// Next coarse offset (multiple of `coarse_step`) to evaluate.
    next_coarse: usize,
    coarse_evals: usize,
    /// Running coarse maximum power per signature (structure-of-arrays
    /// with [`best_at`](Self::best_at): the coarse fold updates powers
    /// densely while offsets change only on a new maximum).
    best_power: Vec<f64>,
    /// Earliest offset achieving [`best_power`](Self::best_power), per
    /// signature.
    best_at: Vec<usize>,
    captures: Vec<Capture>,
    early: Vec<Option<EarlyDetection>>,
    /// Coarse location already early-attempted per signature, to avoid
    /// re-running the fine scan on an unchanged maximum.
    early_attempted: Vec<Option<usize>>,
    early_fine_evals: usize,
    /// Confidence multiplier on the provisional `ε·R_S` gate (≥ 1).
    early_margin: f64,
    scratch: SpectrumScratch,
    spectrum: Vec<f64>,
    result: Option<ScanResult>,
}

impl StreamingDetector {
    /// Builds a streaming scan for `sigs` under `detector`'s configuration.
    ///
    /// The spectral path is chosen exactly as [`Detector::detect_many`]
    /// does ([`ScanMode::Auto`]).
    pub fn new(detector: Arc<Detector>, sigs: Vec<SignalSignature>) -> Self {
        let mode = detector.resolve_mode(ScanMode::Auto);
        let n = sigs.len();
        StreamingDetector {
            detector,
            sigs,
            mode,
            ring: SampleRing::default(),
            next_coarse: 0,
            coarse_evals: 0,
            best_power: vec![f64::NEG_INFINITY; n],
            best_at: vec![0; n],
            captures: vec![Capture::default(); n],
            early: vec![None; n],
            early_attempted: vec![None; n],
            early_fine_evals: 0,
            early_margin: 1.0,
            scratch: SpectrumScratch::default(),
            spectrum: Vec::new(),
            result: None,
        }
    }

    /// The signatures this scan tracks, in construction order.
    pub fn signatures(&self) -> &[SignalSignature] {
        &self.sigs
    }

    /// Total samples consumed so far.
    pub fn samples_consumed(&self) -> usize {
        self.ring.total
    }

    /// The provisional detection for signature `i`, if one has fired.
    pub fn early_detection(&self, i: usize) -> Option<&EarlyDetection> {
        self.early[i].as_ref()
    }

    /// Window evaluations spent on provisional (early) fine scans. These
    /// are *excluded* from [`ScanResult::ffts_used`], which matches the
    /// offline count exactly.
    pub fn early_fine_evals(&self) -> usize {
        self.early_fine_evals
    }

    /// Whether [`finish`](Self::finish) has run.
    pub fn is_finished(&self) -> bool {
        self.result.is_some()
    }

    /// Tightens the provisional-detection gate by `margin` (≥ 1): an early
    /// detection fires only once the running coarse maximum clears
    /// `margin · ε·R_S` instead of the bare presence threshold (the
    /// refined power then clears it too — the fine scan only ever raises
    /// the coarse power, never lowers it). Higher
    /// margins trade later (or suppressed) provisional events for a lower
    /// provisional-vs-final disagreement rate; `finish()` is unaffected —
    /// exact results never depend on the margin.
    ///
    /// # Panics
    ///
    /// Panics unless `margin` is finite and ≥ 1.
    pub fn set_early_margin(&mut self, margin: f64) {
        assert!(
            margin.is_finite() && margin >= 1.0,
            "early margin must be a finite multiplier ≥ 1, got {margin}"
        );
        self.early_margin = margin;
    }

    /// The provisional-detection confidence margin (default 1).
    pub fn early_margin(&self) -> f64 {
        self.early_margin
    }

    /// Consumes one chunk of audio, returning any provisional detections
    /// that became available.
    ///
    /// Non-finite samples (NaN/±∞) are **contained at this boundary**:
    /// they enter the ring as silence (`0.0`), because one poisoned
    /// sample would otherwise corrupt the sliding-DFT state of every
    /// subsequent fine window. For finite input, [`finish`](Self::finish)
    /// remains bit-identical to the offline scan of the same samples.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish).
    pub fn push(&mut self, samples: &[f64]) -> Vec<StreamEvent> {
        assert!(self.result.is_none(), "stream already finished");
        if samples.is_empty() {
            return Vec::new();
        }
        // Non-finite samples are contained at the ingest boundary, inside
        // `SampleRing::append`: a NaN or ∞ entering the ring would poison
        // the sliding-DFT state of every later fine window in its scan
        // (the incremental correction subtracts the sample back out, and
        // NaN − NaN ≠ 0) and survive ring compaction inside captured
        // neighborhoods. A dead ADC sample therefore contributes silence
        // instead; `finish()` matches the offline scan of the sanitized
        // stream. Remote feeds are rejected earlier, at wire decode.
        let prev_total = self.ring.total;
        self.ring.append(samples);

        // Extend incomplete captures with the newly arrived samples.
        for cap in &mut self.captures {
            if cap.valid && !cap.complete() {
                let from = cap.covered_end().max(prev_total);
                let to = cap.want_end.min(self.ring.total);
                if to > from {
                    match self.ring.window(from, to) {
                        Some(run) => cap.data.extend_from_slice(run),
                        // The tail fell behind a compaction before the
                        // capture could cover it — the neighborhood can
                        // no longer be completed; drop it rather than
                        // splice discontiguous samples.
                        None => cap.valid = false,
                    }
                }
            }
        }

        // Coarse pass over every newly covered offset, in offline order.
        let w = self.detector.config().signal_len;
        let step = self.detector.config().coarse_step.max(1);
        while self.next_coarse + w <= self.ring.total {
            self.eval_coarse(self.next_coarse);
            self.next_coarse += step;
        }

        // Early refinement: a cleared threshold plus a fully buffered
        // neighborhood yields a provisional detection now.
        let mut events = Vec::new();
        for i in 0..self.sigs.len() {
            if let Some(ev) = self.try_early(i) {
                events.push(ev);
            }
        }

        // Drop ring samples no future coarse window, capture, or
        // finish-time fine scan can need.
        let radius = self.detector.config().fine_radius;
        self.ring
            .compact_to(self.ring.total.saturating_sub(w + radius));
        events
    }

    /// Refreshes one signature's capture around a new running maximum at
    /// `offset`, reusing the capture's existing allocation. The requested
    /// left edge is `offset − radius`; if that has already been compacted
    /// away the capture starts at the ring base instead (the clamp lives
    /// in [`SampleRing::capture_into`]), never indexing out of range.
    fn recapture(ring: &SampleRing, cap: &mut Capture, offset: usize, w: usize, radius: usize) {
        let want_end = offset + radius + w;
        cap.data.clear();
        cap.start = ring.capture_into(offset.saturating_sub(radius), want_end, &mut cap.data);
        cap.want_end = want_end;
        cap.valid = true;
    }

    /// Evaluates one coarse window (shared across signatures, exactly like
    /// the offline coarse pass) and refreshes running maxima and captures.
    fn eval_coarse(&mut self, offset: usize) {
        let w = self.detector.config().signal_len;
        let radius = self.detector.config().fine_radius;
        let Some(win) = self.ring.window(offset, offset + w) else {
            // A coarse offset is only ever evaluated while its window is
            // resident (compaction retains `signal_len + fine_radius`
            // past the frontier); a miss means the caller's arithmetic is
            // off, and skipping is strictly safer than slicing blind.
            return;
        };
        self.detector
            .analyzer()
            .compute(win, &mut self.scratch, &mut self.spectrum);
        self.coarse_evals += 1;
        for (i, sig) in self.sigs.iter().enumerate() {
            let p = self.detector.norm_power(&self.spectrum, sig);
            if p > self.best_power[i] {
                self.best_power[i] = p;
                self.best_at[i] = offset;
                Self::recapture(&self.ring, &mut self.captures[i], offset, w, radius);
            }
        }
    }

    /// Runs the provisional fine scan for signature `i` if its running
    /// maximum newly clears the threshold with a complete neighborhood.
    fn try_early(&mut self, i: usize) -> Option<StreamEvent> {
        if self.early[i].is_some() {
            return None;
        }
        let (p, loc) = (self.best_power[i], self.best_at[i]);
        let gate = self.early_margin * self.detector.config().epsilon * self.sigs[i].rs();
        if !p.is_finite() || p < gate {
            return None;
        }
        if !self.captures[i].complete() || self.early_attempted[i] == Some(loc) {
            return None;
        }
        self.early_attempted[i] = Some(loc);
        let radius = self.detector.config().fine_radius;
        let cap = &self.captures[i];
        // The neighborhood is fully buffered, so the fine window range is
        // not clamped by the (still unknown) end of stream.
        let (fine_p, fine_loc, evals) = self.detector.fine_scan_view(
            &cap.data,
            cap.start,
            loc + radius,
            &self.sigs[i],
            (p, loc),
            self.mode,
        );
        self.early_fine_evals += evals;
        match self
            .detector
            .threshold_detection(fine_p, fine_loc, &self.sigs[i])
        {
            d @ Detection::Found { .. } => {
                let early = EarlyDetection {
                    detection: d,
                    samples_consumed: self.ring.total,
                };
                self.early[i] = Some(early);
                Some(StreamEvent::EarlyDetection {
                    signature: i,
                    detection: d,
                    samples_consumed: self.ring.total,
                })
            }
            Detection::NotPresent => None,
        }
    }

    /// Ends the stream and returns the scan result — bit-identical to
    /// [`Detector::detect_many`] over the full concatenated buffer,
    /// including [`ScanResult::ffts_used`]. Idempotent: repeated calls
    /// return the cached result.
    pub fn finish(&mut self) -> ScanResult {
        if let Some(result) = &self.result {
            return result.clone();
        }
        let w = self.detector.config().signal_len;
        let step = self.detector.config().coarse_step.max(1);
        if self.ring.total < w || self.sigs.is_empty() {
            let result = ScanResult {
                detections: vec![Detection::NotPresent; self.sigs.len()],
                ffts_used: 0,
            };
            self.result = Some(result.clone());
            return result;
        }
        let last = self.ring.total - w;
        // The offline scan ends its coarse walk exactly at `last`; every
        // multiple of `step` up to `last` has already been evaluated.
        if !last.is_multiple_of(step) {
            self.eval_coarse(last);
        }
        let mut ffts = self.coarse_evals;
        let mut detections = Vec::with_capacity(self.sigs.len());
        for i in 0..self.sigs.len() {
            let coarse = (self.best_power[i], self.best_at[i]);
            let cap = &self.captures[i];
            let (samples, base): (&[f64], usize) = if cap.valid {
                (&cap.data, cap.start)
            } else {
                (&[], 0)
            };
            let (p, loc, evals) =
                self.detector
                    .fine_scan_view(samples, base, last, &self.sigs[i], coarse, self.mode);
            ffts += evals;
            detections.push(self.detector.threshold_detection(p, loc, &self.sigs[i]));
        }
        let result = ScanResult {
            detections,
            ffts_used: ffts,
        };
        self.result = Some(result.clone());
        result
    }
}

/// Which reference signal an event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalRole {
    /// `S_A`, played by the authenticating device.
    Auth,
    /// `S_V`, played by the vouching device.
    Vouch,
}

/// The typed phases of an [`AuthSession`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPhase {
    /// Created; the challenge has not crossed the wire yet.
    Idle,
    /// Challenge sent (authenticator) or accepted (voucher); audio may
    /// begin.
    Challenged,
    /// Audio is streaming through the detector.
    Listening,
    /// Terminal: the authenticator has decided, or the voucher has queued
    /// its report.
    Decided,
}

/// Events returned by the session's input methods.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionEvent {
    /// A reference signal was located in the session's own audio.
    SignalLocated {
        /// Which signal.
        role: SignalRole,
        /// Where (or that it is absent — final results only).
        detection: Detection,
        /// Samples consumed when the location became known.
        samples_consumed: usize,
        /// `true` for early (mid-stream) locations, `false` for the exact
        /// end-of-stream result.
        provisional: bool,
    },
    /// The voucher's Step V report is queued; drain it with
    /// [`AuthSession::poll_transmit`].
    ReportReady,
    /// The authenticator reached a decision.
    Decided(AuthDecision),
}

/// One authentication attempt as a sans-IO state machine.
///
/// See the [module docs](self) for the design; in short: wire messages in
/// via [`handle_message`](Self::handle_message), audio in via
/// [`push_audio`](Self::push_audio) (or wire-framed
/// [`Message::AudioChunk`]s), messages out via
/// [`poll_transmit`](Self::poll_transmit), and the verdict from
/// [`decision`](Self::decision) once the phase reaches
/// [`SessionPhase::Decided`].
#[derive(Debug)]
pub struct AuthSession {
    phase: SessionPhase,
    is_authenticator: bool,
    threshold_m: f64,
    early_decision: bool,
    early_margin: f64,
    session_id: u64,
    detector: Arc<Detector>,
    sa: Option<ReferenceSignal>,
    sv: Option<ReferenceSignal>,
    sig_a: Option<SignalSignature>,
    sig_v: Option<SignalSignature>,
    scanner: Option<StreamingDetector>,
    outbox: VecDeque<Message>,
    next_audio_seq: u32,
    samples_consumed: usize,
    early_a: Option<Detection>,
    early_v: Option<Detection>,
    final_a: Option<Detection>,
    final_v: Option<Detection>,
    scan_ffts: usize,
    scan_concluded: bool,
    vouch_diff: Option<Option<f64>>,
    estimate: Option<DistanceEstimate>,
    decision: Option<AuthDecision>,
}

impl AuthSession {
    /// Creates the authenticating-device (A) side of a session: draws the
    /// session id and both reference signals (in the exact RNG order of
    /// [`draw_session_signals`]) and queues the Step II challenge.
    ///
    /// # Errors
    ///
    /// Returns [`PianoError::InvalidConfig`] if `config` fails validation.
    pub fn authenticator(
        config: &ActionConfig,
        threshold_m: f64,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, PianoError> {
        config.validate()?;
        Ok(Self::authenticator_with(
            Arc::new(Detector::new(config)),
            threshold_m,
            rng,
        ))
    }

    /// [`Self::authenticator`] with a shared, pre-built detector (the
    /// plan-reuse path services take).
    pub fn authenticator_with(
        detector: Arc<Detector>,
        threshold_m: f64,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        let (session_id, sa, sv) = draw_session_signals(detector.config(), rng);
        let config = detector.config();
        let sig_a = SignalSignature::of(&sa, config);
        let sig_v = SignalSignature::of(&sv, config);
        let mut outbox = VecDeque::new();
        outbox.push_back(Message::ReferenceSignals {
            session: session_id,
            sa: SignalSpec::of(&sa),
            sv: SignalSpec::of(&sv),
        });
        AuthSession {
            phase: SessionPhase::Idle,
            is_authenticator: true,
            threshold_m,
            early_decision: false,
            early_margin: 1.0,
            session_id,
            detector,
            sa: Some(sa),
            sv: Some(sv),
            sig_a: Some(sig_a),
            sig_v: Some(sig_v),
            scanner: None,
            outbox,
            next_audio_seq: 0,
            samples_consumed: 0,
            early_a: None,
            early_v: None,
            final_a: None,
            final_v: None,
            scan_ffts: 0,
            scan_concluded: false,
            vouch_diff: None,
            estimate: None,
            decision: None,
        }
    }

    /// Creates the vouching-device (V) side: idle until the Step II
    /// challenge arrives via [`handle_message`](Self::handle_message).
    ///
    /// # Errors
    ///
    /// Returns [`PianoError::InvalidConfig`] if `config` fails validation.
    pub fn voucher(config: &ActionConfig) -> Result<Self, PianoError> {
        config.validate()?;
        Ok(Self::voucher_with(Arc::new(Detector::new(config))))
    }

    /// [`Self::voucher`] with a shared, pre-built detector.
    pub fn voucher_with(detector: Arc<Detector>) -> Self {
        AuthSession {
            phase: SessionPhase::Idle,
            is_authenticator: false,
            threshold_m: f64::INFINITY,
            early_decision: false,
            early_margin: 1.0,
            session_id: 0,
            detector,
            sa: None,
            sv: None,
            sig_a: None,
            sig_v: None,
            scanner: None,
            outbox: VecDeque::new(),
            next_audio_seq: 0,
            samples_consumed: 0,
            early_a: None,
            early_v: None,
            final_a: None,
            final_v: None,
            scan_ffts: 0,
            scan_concluded: false,
            vouch_diff: None,
            estimate: None,
            decision: None,
        }
    }

    /// Opts this session into *early* conclusion: once both reference
    /// signals are provisionally located mid-stream (and, for the
    /// authenticator, the Step V report has arrived), the session decides
    /// immediately instead of waiting for [`finish_audio`](Self::finish_audio).
    ///
    /// Early locations are provisional (see [`StreamEvent`]); sessions that
    /// need exact offline-equivalent results leave this off (the default).
    ///
    /// Equivalent to
    /// [`enable_early_decision_with_confidence`](Self::enable_early_decision_with_confidence)
    /// at confidence 1 (the bare `ε·R_S` presence gate).
    pub fn enable_early_decision(&mut self) {
        self.enable_early_decision_with_confidence(1.0);
    }

    /// Opts into early conclusion with a confidence margin: provisional
    /// locations only fire once the coarse maximum clears
    /// `confidence · ε·R_S` (see [`StreamingDetector::set_early_margin`]).
    /// Raising the confidence lowers the provisional-vs-final disagreement
    /// rate at the cost of later (or, on weak signals, suppressed)
    /// early decisions; `tests/early_decision_calibration.rs` quantifies
    /// the trade-off under noise sweeps.
    ///
    /// # Panics
    ///
    /// Panics unless `confidence` is finite and ≥ 1.
    pub fn enable_early_decision_with_confidence(&mut self, confidence: f64) {
        assert!(
            confidence.is_finite() && confidence >= 1.0,
            "early-decision confidence must be a finite multiplier ≥ 1, got {confidence}"
        );
        self.early_decision = true;
        self.early_margin = confidence;
        if let Some(scanner) = &mut self.scanner {
            scanner.set_early_margin(confidence);
        }
    }

    /// The early-decision confidence margin, if early decision is enabled.
    pub fn early_confidence(&self) -> Option<f64> {
        self.early_decision.then_some(self.early_margin)
    }

    /// Current phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// Whether this is the authenticating-device side.
    pub fn is_authenticator(&self) -> bool {
        self.is_authenticator
    }

    /// The wire session id (authenticator: drawn at construction; voucher:
    /// learned from the challenge).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The waveform this device must play in Step III: `S_A` for the
    /// authenticator, `S_V` for the voucher. `None` until the signals are
    /// known (voucher before the challenge).
    pub fn playback_waveform(&self) -> Option<Vec<f64>> {
        let role = if self.is_authenticator {
            SignalRole::Auth
        } else {
            SignalRole::Vouch
        };
        self.waveform_of(role)
    }

    /// The waveform of either reference signal, once the signals are
    /// known. A simulation host embedding *both* signals into a shared
    /// microphone recording (the fleet examples) reads them here instead
    /// of re-deriving the signals from the wire challenge.
    pub fn waveform_of(&self, role: SignalRole) -> Option<Vec<f64>> {
        match role {
            SignalRole::Auth => self.sa.as_ref().map(|s| s.waveform()),
            SignalRole::Vouch => self.sv.as_ref().map(|s| s.waveform()),
        }
    }

    /// Tone counts `(S_A, S_V)` once the signals are known.
    pub fn tone_counts(&self) -> Option<(usize, usize)> {
        Some((self.sa.as_ref()?.n_tones(), self.sv.as_ref()?.n_tones()))
    }

    /// Exact end-of-stream detections `(S_A, S_V)` in this device's own
    /// recording, once [`finish_audio`](Self::finish_audio) has run.
    pub fn locations(&self) -> Option<(Detection, Detection)> {
        if self.scan_concluded {
            Some((self.final_a?, self.final_v?))
        } else {
            None
        }
    }

    /// Window evaluations of the scan that produced this session's
    /// locations. For a standalone session this equals the offline
    /// [`ScanResult::ffts_used`] of its own recording; for a session
    /// managed by an [`AuthService`] scan group it is the *shared* group
    /// scan's count — one pass served every member, so summing
    /// `scan_ffts` across a group's sessions over-counts the shared work.
    pub fn scan_ffts(&self) -> usize {
        self.scan_ffts
    }

    /// Total audio samples consumed.
    pub fn samples_consumed(&self) -> usize {
        self.samples_consumed
    }

    /// The distance verdict (authenticator only), once decided.
    pub fn estimate(&self) -> Option<DistanceEstimate> {
        self.estimate
    }

    /// The final decision (authenticator only), once decided.
    pub fn decision(&self) -> Option<&AuthDecision> {
        self.decision.as_ref()
    }

    /// Pops the next outgoing wire message.
    ///
    /// The authenticator's Step II challenge is queued at construction;
    /// popping it transitions [`SessionPhase::Idle`] →
    /// [`SessionPhase::Challenged`]. The voucher's Step V report appears
    /// after its scan concludes.
    pub fn poll_transmit(&mut self) -> Option<Message> {
        let msg = self.outbox.pop_front()?;
        if self.is_authenticator
            && self.phase == SessionPhase::Idle
            && matches!(msg, Message::ReferenceSignals { .. })
        {
            self.phase = SessionPhase::Challenged;
        }
        Some(msg)
    }

    /// Feeds one incoming wire message to the state machine.
    ///
    /// * Voucher + [`Message::ReferenceSignals`]: accepts the challenge
    ///   (reconstructing `S_V` then `S_A`, exactly like the classic
    ///   protocol) and becomes [`SessionPhase::Challenged`].
    /// * Authenticator + [`Message::TimeDiffReport`]: records the report
    ///   and decides if its own locations are ready.
    /// * Either role + [`Message::AudioChunk`] /
    ///   [`Message::AudioBatch`]: verifies session and sequence (a batch
    ///   covers `start_seq .. start_seq + chunks.len()`), then feeds the
    ///   samples as [`push_audio`](Self::push_audio) would.
    ///
    /// # Errors
    ///
    /// Returns [`PianoError::Wire`] for messages that do not fit the
    /// session's role, phase, id, or audio sequence, and for flow-control
    /// replies ([`Message::Busy`] / [`Message::Credit`]) — those address
    /// the audio *sender*, not the session state machine.
    pub fn handle_message(&mut self, msg: Message) -> Result<Vec<SessionEvent>, PianoError> {
        match msg {
            Message::ReferenceSignals { session, sa, sv } => {
                if self.is_authenticator {
                    return Err(PianoError::Wire(
                        "authenticator received a ReferenceSignals challenge".into(),
                    ));
                }
                if self.phase != SessionPhase::Idle {
                    return Err(PianoError::Wire(format!(
                        "challenge in phase {:?}",
                        self.phase
                    )));
                }
                let config = self.detector.config();
                // Reconstruct S_V first, then S_A — the classic Step II
                // order, preserved so error precedence is unchanged.
                let sv_rx = sv.reconstruct(config)?;
                let sa_rx = sa.reconstruct(config)?;
                self.sig_a = Some(SignalSignature::of(&sa_rx, config));
                self.sig_v = Some(SignalSignature::of(&sv_rx, config));
                self.sa = Some(sa_rx);
                self.sv = Some(sv_rx);
                self.session_id = session;
                self.phase = SessionPhase::Challenged;
                Ok(Vec::new())
            }
            Message::TimeDiffReport {
                session,
                vouch_diff_samples,
            } => {
                if !self.is_authenticator {
                    return Err(PianoError::Wire("voucher received a TimeDiffReport".into()));
                }
                if session != self.session_id {
                    return Err(PianoError::Wire(format!(
                        "report for session {session:#x}, expected {:#x}",
                        self.session_id
                    )));
                }
                if self.vouch_diff.is_some() {
                    return Err(PianoError::Wire("duplicate TimeDiffReport".into()));
                }
                self.vouch_diff = Some(vouch_diff_samples);
                let mut events = Vec::new();
                self.try_conclude(&mut events);
                Ok(events)
            }
            Message::AudioChunk {
                session,
                seq,
                samples,
            } => {
                self.check_wire_audio(session, seq)?;
                self.next_audio_seq += 1;
                Ok(self.push_audio(&samples))
            }
            Message::AudioBatch {
                session,
                start_seq,
                chunks,
            } => {
                self.check_wire_audio(session, start_seq)?;
                self.next_audio_seq += chunks.len() as u32;
                let mut events = Vec::new();
                for chunk in chunks.iter() {
                    events.extend(self.push_audio(chunk));
                }
                Ok(events)
            }
            Message::AudioBatchI16 {
                session,
                start_seq,
                chunks,
            } => {
                self.check_wire_audio(session, start_seq)?;
                self.next_audio_seq += chunks.len() as u32;
                let mut events = Vec::new();
                for chunk in chunks.iter() {
                    let widened: Vec<f64> = chunk.iter().map(|&q| q as f64).collect();
                    events.extend(self.push_audio(&widened));
                }
                Ok(events)
            }
            Message::Busy { .. } | Message::Credit { .. } => Err(PianoError::Wire(
                "flow-control reply addressed to a session state machine".into(),
            )),
            Message::Hello { .. }
            | Message::Accept { .. }
            | Message::StreamEnd { .. }
            | Message::Decision { .. }
            | Message::Resume { .. }
            | Message::ResumeAck { .. }
            | Message::Retry { .. } => Err(PianoError::Wire(
                "transport-layer message addressed to a session state machine".into(),
            )),
            Message::Recheck { .. }
            | Message::RecheckAudio { .. }
            | Message::RecheckVerdict { .. } => Err(PianoError::Wire(
                "re-challenge message addressed to a session state machine; \
                 standing-session hosts route re-checks through fresh sessions"
                    .into(),
            )),
        }
    }

    /// Validates the phase, session id, and sequence of wire-framed audio.
    fn check_wire_audio(&self, session: u64, seq: u32) -> Result<(), PianoError> {
        if self.phase == SessionPhase::Idle {
            return Err(PianoError::Wire("audio before the challenge".into()));
        }
        if session != self.session_id {
            return Err(PianoError::Wire(format!(
                "audio for session {session:#x}, expected {:#x}",
                self.session_id
            )));
        }
        if seq != self.next_audio_seq {
            return Err(PianoError::Wire(format!(
                "audio gap: got seq {seq}, expected {}",
                self.next_audio_seq
            )));
        }
        Ok(())
    }

    /// Feeds one chunk of this device's own recording.
    ///
    /// The first chunk transitions [`SessionPhase::Challenged`] →
    /// [`SessionPhase::Listening`]. Chunks arriving after the session's
    /// scan has concluded — [`SessionPhase::Decided`], or
    /// [`finish_audio`](Self::finish_audio) already ran while the
    /// authenticator still awaits the Step V report — are ignored (audio
    /// in flight when the session concluded).
    ///
    /// # Panics
    ///
    /// Panics in [`SessionPhase::Idle`]: recording before the challenge has
    /// crossed the wire is a protocol bug.
    pub fn push_audio(&mut self, samples: &[f64]) -> Vec<SessionEvent> {
        assert!(
            self.phase != SessionPhase::Idle,
            "push_audio before the challenge was sent/received"
        );
        if self.phase == SessionPhase::Decided || self.scan_concluded {
            return Vec::new();
        }
        if self.phase == SessionPhase::Challenged {
            self.scanner = self.make_scanner();
            self.phase = SessionPhase::Listening;
        }
        self.samples_consumed += samples.len();
        // Listening implies a scanner; without one (signals never fixed —
        // a protocol-order bug) the audio is ignored rather than panicking
        // a wire-reachable path.
        let Some(scanner) = self.scanner.as_mut() else {
            return Vec::new();
        };
        let stream_events = scanner.push(samples);
        let mut events = Vec::new();
        for ev in stream_events {
            let StreamEvent::EarlyDetection {
                signature,
                detection,
                samples_consumed,
            } = ev;
            let role = if signature == 0 {
                self.early_a = Some(detection);
                SignalRole::Auth
            } else {
                self.early_v = Some(detection);
                SignalRole::Vouch
            };
            events.push(SessionEvent::SignalLocated {
                role,
                detection,
                samples_consumed,
                provisional: true,
            });
        }
        if self.early_decision {
            self.try_conclude(&mut events);
        }
        events
    }

    /// Signals end-of-recording: runs the exact offline-equivalent
    /// conclusion of the scan, emits the final locations, and (voucher)
    /// queues the Step V report or (authenticator) decides if the report
    /// has already arrived. Idempotent once decided.
    ///
    /// # Panics
    ///
    /// Panics in [`SessionPhase::Idle`], like
    /// [`push_audio`](Self::push_audio).
    pub fn finish_audio(&mut self) -> Vec<SessionEvent> {
        assert!(
            self.phase != SessionPhase::Idle,
            "finish_audio before the challenge was sent/received"
        );
        if self.phase == SessionPhase::Decided || self.scan_concluded {
            return Vec::new();
        }
        if self.phase == SessionPhase::Challenged {
            // No audio at all: an empty scan declares both signals absent.
            self.scanner = self.make_scanner();
            self.phase = SessionPhase::Listening;
        }
        let Some(scanner) = self.scanner.as_mut() else {
            return Vec::new();
        };
        let result = scanner.finish();
        self.final_a = Some(result.detections[0]);
        self.final_v = Some(result.detections[1]);
        self.scan_ffts = result.ffts_used;
        self.scan_concluded = true;
        let mut events = vec![
            SessionEvent::SignalLocated {
                role: SignalRole::Auth,
                detection: result.detections[0],
                samples_consumed: self.samples_consumed,
                provisional: false,
            },
            SessionEvent::SignalLocated {
                role: SignalRole::Vouch,
                detection: result.detections[1],
                samples_consumed: self.samples_consumed,
                provisional: false,
            },
        ];
        self.try_conclude(&mut events);
        events
    }

    /// Accepts externally computed early locations — the entry point a
    /// multiplexer ([`AuthService`]) uses when it runs the scan on the
    /// sessions' behalf.
    pub fn accept_early(
        &mut self,
        role: SignalRole,
        detection: Detection,
        samples_consumed: usize,
    ) -> Vec<SessionEvent> {
        if self.phase == SessionPhase::Decided {
            return Vec::new();
        }
        if self.phase == SessionPhase::Challenged {
            self.phase = SessionPhase::Listening;
        }
        match role {
            SignalRole::Auth => self.early_a = Some(detection),
            SignalRole::Vouch => self.early_v = Some(detection),
        }
        self.samples_consumed = samples_consumed;
        let mut events = vec![SessionEvent::SignalLocated {
            role,
            detection,
            samples_consumed,
            provisional: true,
        }];
        if self.early_decision {
            self.try_conclude(&mut events);
        }
        events
    }

    /// Accepts an externally computed exact scan result (multiplexer entry
    /// point, the end-of-stream counterpart of
    /// [`accept_early`](Self::accept_early)).
    pub fn accept_scan(
        &mut self,
        sa: Detection,
        sv: Detection,
        ffts_used: usize,
    ) -> Vec<SessionEvent> {
        if self.phase == SessionPhase::Decided || self.scan_concluded {
            return Vec::new();
        }
        if self.phase == SessionPhase::Challenged {
            self.phase = SessionPhase::Listening;
        }
        self.final_a = Some(sa);
        self.final_v = Some(sv);
        self.scan_ffts = ffts_used;
        self.scan_concluded = true;
        let mut events = vec![
            SessionEvent::SignalLocated {
                role: SignalRole::Auth,
                detection: sa,
                samples_consumed: self.samples_consumed,
                provisional: false,
            },
            SessionEvent::SignalLocated {
                role: SignalRole::Vouch,
                detection: sv,
                samples_consumed: self.samples_consumed,
                provisional: false,
            },
        ];
        self.try_conclude(&mut events);
        events
    }

    /// Builds the session's two-signature scanner, or `None` when the
    /// signals are not yet known (the challenge never crossed the wire).
    fn make_scanner(&self) -> Option<StreamingDetector> {
        let (Some(sig_a), Some(sig_v)) = (&self.sig_a, &self.sig_v) else {
            return None;
        };
        let mut scanner = StreamingDetector::new(
            Arc::clone(&self.detector),
            vec![sig_a.clone(), sig_v.clone()],
        );
        scanner.set_early_margin(self.early_margin);
        Some(scanner)
    }

    /// The locations to conclude from: exact results when the scan is
    /// done, provisional ones when early decision is enabled.
    fn conclusion_locations(&self) -> Option<(Detection, Detection)> {
        if self.scan_concluded {
            Some((self.final_a?, self.final_v?))
        } else if self.early_decision {
            Some((self.early_a?, self.early_v?))
        } else {
            None
        }
    }

    /// Concludes the session if every input it needs is present.
    fn try_conclude(&mut self, events: &mut Vec<SessionEvent>) {
        if self.phase == SessionPhase::Decided {
            return;
        }
        if self.is_authenticator {
            let Some(vouch_diff) = self.vouch_diff else {
                return;
            };
            let Some((det_a, det_v)) = self.conclusion_locations() else {
                return;
            };
            let config = self.detector.config();
            let estimate = match (det_a.location(), det_v.location(), vouch_diff) {
                (Some(aa), Some(av), Some(vd)) => {
                    let diffs = LocationDiffs {
                        auth_diff_samples: av as f64 - aa as f64,
                        vouch_diff_samples: vd,
                    };
                    DistanceEstimate::Measured(estimate_distance(
                        &diffs,
                        config.sample_rate,
                        config.sample_rate,
                        config.assumed_speed_of_sound,
                    ))
                }
                _ => DistanceEstimate::SignalAbsent,
            };
            let decision = decision_from_estimate(estimate, self.threshold_m);
            self.estimate = Some(estimate);
            self.decision = Some(decision.clone());
            self.phase = SessionPhase::Decided;
            events.push(SessionEvent::Decided(decision));
        } else {
            let Some((det_a, det_v)) = self.conclusion_locations() else {
                return;
            };
            let vouch_diff_samples = match (det_a.location(), det_v.location()) {
                (Some(va), Some(vv)) => Some(vv as f64 - va as f64),
                _ => None,
            };
            self.outbox.push_back(Message::TimeDiffReport {
                session: self.session_id,
                vouch_diff_samples,
            });
            self.phase = SessionPhase::Decided;
            events.push(SessionEvent::ReportReady);
        }
    }
}

/// Why a transport loop dropped a connection — the structured form of
/// the failure causes a connection supervisor logs and counts.
///
/// Shedding is *not* a drop cause: a shed `Hello` is refused at
/// admission (the client is told to retry), whereas a drop terminates a
/// feed that was already accepted. Shed connections are counted in
/// [`ServiceStats::connections_shed`] instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// The byte stream lost framing
    /// ([`crate::wire::FrameReader::poison_cause`]): oversized length
    /// prefix or a payload the decoder rejects.
    Framing,
    /// A well-framed message violated the protocol: wrong message kind
    /// for the phase, session-id mismatch, or a sequence gap.
    Protocol,
    /// The sender ignored `Busy` past the feed's
    /// [`crate::wire::IngestFeed::hard_limit`].
    Overrun,
    /// A per-connection deadline (handshake, idle, or whole-stream
    /// budget) elapsed — the slow-feed watchdog fired.
    Timeout,
    /// The transport died (EOF before `StreamEnd`, reset, broken pipe)
    /// and resume was not enabled, so the feed could not be suspended.
    Disconnect,
    /// A suspended feed's resume window elapsed before the client
    /// reconnected.
    ResumeExpired,
}

impl std::fmt::Display for DropCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DropCause::Framing => "framing",
            DropCause::Protocol => "protocol",
            DropCause::Overrun => "overrun",
            DropCause::Timeout => "timeout",
            DropCause::Disconnect => "disconnect",
            DropCause::ResumeExpired => "resume-expired",
        })
    }
}

/// Dropped-connection counts broken down by [`DropCause`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Drops for [`DropCause::Framing`].
    pub framing: u64,
    /// Drops for [`DropCause::Protocol`].
    pub protocol: u64,
    /// Drops for [`DropCause::Overrun`].
    pub overrun: u64,
    /// Drops for [`DropCause::Timeout`].
    pub timeout: u64,
    /// Drops for [`DropCause::Disconnect`].
    pub disconnect: u64,
    /// Drops for [`DropCause::ResumeExpired`].
    pub resume_expired: u64,
}

impl DropCounts {
    /// Records one drop.
    pub fn count(&mut self, cause: DropCause) {
        *self.slot(cause) += 1;
    }

    /// The counter for one cause.
    pub fn get(&self, cause: DropCause) -> u64 {
        let mut copy = *self;
        *copy.slot(cause)
    }

    /// Total drops across every cause.
    pub fn total(&self) -> u64 {
        self.framing
            + self.protocol
            + self.overrun
            + self.timeout
            + self.disconnect
            + self.resume_expired
    }

    /// Adds another breakdown into this one.
    pub fn absorb(&mut self, other: &DropCounts) {
        self.framing += other.framing;
        self.protocol += other.protocol;
        self.overrun += other.overrun;
        self.timeout += other.timeout;
        self.disconnect += other.disconnect;
        self.resume_expired += other.resume_expired;
    }

    fn slot(&mut self, cause: DropCause) -> &mut u64 {
        match cause {
            DropCause::Framing => &mut self.framing,
            DropCause::Protocol => &mut self.protocol,
            DropCause::Overrun => &mut self.overrun,
            DropCause::Timeout => &mut self.timeout,
            DropCause::Disconnect => &mut self.disconnect,
            DropCause::ResumeExpired => &mut self.resume_expired,
        }
    }
}

impl std::fmt::Display for DropCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "framing {}, protocol {}, overrun {}, timeout {}, disconnect {}, resume-expired {}",
            self.framing,
            self.protocol,
            self.overrun,
            self.timeout,
            self.disconnect,
            self.resume_expired
        )
    }
}

/// A point-in-time snapshot of ingestion/service counters — what an
/// operator watches to size a fleet deployment.
///
/// The streaming stack is sans-IO, so no single layer sees every number:
/// the gateway (the `piano-net` crate's `ReactorServer`) counts
/// connections, frames, and wire bytes; [`crate::wire::IngestFeed`]s
/// report backlog peaks and `Busy`/`Credit` traffic; the [`AuthService`]
/// knows how many sessions decided. Layers fill in what they observe and
/// combine snapshots with [`absorb`](Self::absorb); `Display` renders the
/// operator summary the examples print.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connections accepted by the transport loop.
    pub connections: u64,
    /// Connections dropped for framing/protocol violations (only the
    /// offending connection is dropped; the service keeps running).
    pub connections_dropped: u64,
    /// Wire frames decoded (audio frames only, re-check audio included).
    pub frames_decoded: u64,
    /// Audio bytes as they crossed the wire (post-codec, frame prefixes
    /// included).
    pub wire_audio_bytes: u64,
    /// What the same audio would have cost as raw `f64` batches
    /// (pre-codec); `wire_audio_bytes / raw_audio_bytes` is the codec's
    /// wire saving.
    pub raw_audio_bytes: u64,
    /// Largest buffered-but-unscanned backlog any feed reached
    /// ([`crate::wire::IngestFeed::peak_buffered`]), in samples.
    pub peak_feed_backlog: u64,
    /// [`Message::Busy`] replies sent (overruns).
    pub busy_replies: u64,
    /// [`Message::Credit`] replies sent (drained backlogs).
    pub credit_replies: u64,
    /// Sessions that reached a decision, summed over the epoch scans.
    pub sessions_decided: u64,
    /// [`connections_dropped`](Self::connections_dropped) broken down by
    /// [`DropCause`]; `drops.total() == connections_dropped` when the
    /// transport loop classifies every drop.
    pub drops: DropCounts,
    /// `Hello`s refused with a retry-after at admission (overload
    /// shedding). Not drops: the client was told to come back.
    pub connections_shed: u64,
    /// Disconnected feeds parked for reconnect-and-resume (each later
    /// resolves into a resume, a report, or a resume-expired drop).
    pub connections_suspended: u64,
    /// Successful reconnect-and-resume reattaches.
    pub resumes: u64,
}

impl ServiceStats {
    /// The codec's wire compression: raw bytes ÷ wire bytes (1.0 when no
    /// audio flowed yet).
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_audio_bytes == 0 {
            1.0
        } else {
            self.raw_audio_bytes as f64 / self.wire_audio_bytes as f64
        }
    }

    /// Folds another snapshot into this one: counters add, the backlog
    /// peak takes the maximum.
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.connections += other.connections;
        self.connections_dropped += other.connections_dropped;
        self.frames_decoded += other.frames_decoded;
        self.wire_audio_bytes += other.wire_audio_bytes;
        self.raw_audio_bytes += other.raw_audio_bytes;
        self.peak_feed_backlog = self.peak_feed_backlog.max(other.peak_feed_backlog);
        self.busy_replies += other.busy_replies;
        self.credit_replies += other.credit_replies;
        self.sessions_decided += other.sessions_decided;
        self.drops.absorb(&other.drops);
        self.connections_shed += other.connections_shed;
        self.connections_suspended += other.connections_suspended;
        self.resumes += other.resumes;
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "connections: {} accepted, {} dropped",
            self.connections, self.connections_dropped
        )?;
        writeln!(
            f,
            "audio frames: {} decoded, {:.2} MiB on the wire ({:.2} MiB raw, {:.2}x codec saving)",
            self.frames_decoded,
            self.wire_audio_bytes as f64 / (1024.0 * 1024.0),
            self.raw_audio_bytes as f64 / (1024.0 * 1024.0),
            self.compression_ratio()
        )?;
        writeln!(
            f,
            "backpressure: {} Busy / {} Credit replies, peak feed backlog {} samples",
            self.busy_replies, self.credit_replies, self.peak_feed_backlog
        )?;
        if self.connections_dropped > 0 {
            writeln!(f, "drop causes: {}", self.drops)?;
        }
        if self.connections_shed + self.connections_suspended + self.resumes > 0 {
            writeln!(
                f,
                "resilience: {} shed at admission, {} suspended, {} resumed",
                self.connections_shed, self.connections_suspended, self.resumes
            )?;
        }
        write!(f, "sessions decided: {}", self.sessions_decided)
    }
}

/// Handle to a session opened on an [`AuthService`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

/// A group of streaming sessions sharing one detector and one coarse scan
/// pass over a common audio stream.
#[derive(Debug)]
struct ScanGroup {
    detector: Arc<Detector>,
    members: Vec<SessionId>,
    scanner: Option<StreamingDetector>,
}

/// Multi-tenant authentication service: shared detectors, shared coarse
/// scans, many concurrent sessions.
///
/// Two layers:
///
/// * **Whole-protocol driver** — [`authenticate_pair`](Self::authenticate_pair)
///   runs a complete attempt between two simulated devices (registration
///   gates, ACTION over the Bluetooth link, threshold decision), reusing
///   one cached [`Detector`] per [`ActionConfig`] across every attempt and
///   every pair. `PianoAuthenticator` is a single-pair wrapper over this.
/// * **Streaming multiplexer** — [`open_session`](Self::open_session) +
///   [`push_audio`](Self::push_audio) /
///   [`finish_audio`](Self::finish_audio) drive many sans-IO
///   [`AuthSession`]s from one chunked audio feed. Sessions opened under
///   the same configuration join one scan group: their signatures are
///   scanned by a single [`StreamingDetector`], so each audio tick costs
///   one coarse spectrum regardless of tenant count.
#[derive(Debug)]
pub struct AuthService {
    config: PianoConfig,
    detectors: Vec<Arc<Detector>>,
    registry: PairingRegistry,
    link: BluetoothLink,
    /// Keyed by a `BTreeMap` so any iteration over live sessions is in
    /// id order — decision-path code must never see map-randomized order.
    sessions: BTreeMap<SessionId, AuthSession>,
    groups: Vec<ScanGroup>,
    next_id: u64,
    last_outcome: Option<ActionOutcome>,
}

impl AuthService {
    /// Creates a service with no bonds and one cached detector for the
    /// configured action parameters.
    ///
    /// # Panics
    ///
    /// Panics if `config.action` fails [`ActionConfig::validate`] (the
    /// detector requires a valid configuration).
    pub fn new(config: PianoConfig) -> Self {
        let detector = Arc::new(Detector::new(&config.action));
        AuthService {
            config,
            detectors: vec![detector],
            registry: PairingRegistry::new(),
            link: BluetoothLink::new(),
            sessions: BTreeMap::new(),
            groups: Vec::new(),
            next_id: 0,
            last_outcome: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PianoConfig {
        &self.config
    }

    /// Updates the default authentication threshold.
    pub fn set_threshold_m(&mut self, threshold_m: f64) {
        self.config.threshold_m = threshold_m;
    }

    /// The cached detector for the service's default configuration.
    pub fn detector(&self) -> &Arc<Detector> {
        &self.detectors[0]
    }

    /// The cached shared detector for `action`, building (and caching) it
    /// on first use. Sessions and attempts with equal configurations share
    /// one instance — plans and window tables are built once.
    pub fn detector_for(&mut self, action: &ActionConfig) -> Arc<Detector> {
        if let Some(d) = self.detectors.iter().find(|d| d.config() == action) {
            return Arc::clone(d);
        }
        let d = Arc::new(Detector::new(action));
        self.detectors.push(Arc::clone(&d));
        d
    }

    /// Registration phase: pairs two devices and returns the minted key.
    pub fn register(&mut self, a: &Device, b: &Device, rng: &mut ChaCha8Rng) -> LinkKey {
        self.registry.pair(a.id, b.id, rng)
    }

    /// Whether two devices are bonded.
    pub fn is_registered(&self, a: &Device, b: &Device) -> bool {
        self.registry.is_paired(a.id, b.id)
    }

    /// The Bluetooth link (for transfer accounting).
    pub fn link(&self) -> &BluetoothLink {
        &self.link
    }

    /// Diagnostics of the most recent [`authenticate_pair`] run that
    /// reached Step III.
    ///
    /// [`authenticate_pair`]: Self::authenticate_pair
    pub fn last_outcome(&self) -> Option<&ActionOutcome> {
        self.last_outcome.as_ref()
    }

    /// Runs one complete authentication attempt between two simulated
    /// devices: the Bluetooth presence gates, the full ACTION exchange
    /// driven through a pair of [`AuthSession`]s, and the threshold
    /// decision.
    pub fn authenticate_pair(
        &mut self,
        field: &mut AcousticField,
        auth_device: &Device,
        vouch_device: &Device,
        now_world_s: f64,
        rng: &mut ChaCha8Rng,
    ) -> AuthDecision {
        if !self.registry.is_paired(auth_device.id, vouch_device.id) {
            return AuthDecision::Denied {
                reason: DenialReason::NotPaired,
            };
        }
        if !self
            .link
            .in_range(&auth_device.position, &vouch_device.position)
        {
            return AuthDecision::Denied {
                reason: DenialReason::BluetoothUnreachable,
            };
        }
        let detector = Arc::clone(&self.detectors[0]);
        let outcome = match crate::action::run_session_pair(
            &detector,
            field,
            &mut self.link,
            &self.registry,
            auth_device,
            vouch_device,
            now_world_s,
            rng,
        ) {
            Ok(o) => o,
            Err(PianoError::Bluetooth(_)) => {
                return AuthDecision::Denied {
                    reason: DenialReason::BluetoothUnreachable,
                }
            }
            Err(e) => {
                return AuthDecision::Denied {
                    reason: DenialReason::ProtocolFailure(e.to_string()),
                }
            }
        };
        let estimate = outcome.estimate;
        self.last_outcome = Some(outcome);
        decision_from_estimate(estimate, self.config.threshold_m)
    }

    /// Opens an authenticator-role streaming session under the service's
    /// default configuration and threshold. The session joins the scan
    /// group for that configuration; its Step II challenge is waiting in
    /// [`poll_transmit`](Self::poll_transmit).
    ///
    /// `early_decision` opts the session into provisional mid-stream
    /// conclusions (see [`AuthSession::enable_early_decision`]).
    ///
    /// # Panics
    ///
    /// Panics if the group's audio has already started: a scan group's
    /// signature set is fixed once samples flow. Open sessions first, then
    /// stream.
    pub fn open_session(&mut self, early_decision: bool, rng: &mut ChaCha8Rng) -> SessionId {
        let action = self.config.action.clone();
        let threshold = self.config.threshold_m;
        self.open_session_with(&action, threshold, early_decision, rng)
    }

    /// [`open_session`](Self::open_session) with an explicit configuration
    /// and threshold. Sessions with equal configurations share one
    /// detector and one coarse scan pass.
    pub fn open_session_with(
        &mut self,
        action: &ActionConfig,
        threshold_m: f64,
        early_decision: bool,
        rng: &mut ChaCha8Rng,
    ) -> SessionId {
        let detector = self.detector_for(action);
        let mut session = AuthSession::authenticator_with(Arc::clone(&detector), threshold_m, rng);
        if early_decision {
            session.enable_early_decision();
        }
        let id = SessionId(self.next_id);
        self.next_id = self.next_id.wrapping_add(1);
        let group = self
            .groups
            .iter_mut()
            .find(|g| Arc::ptr_eq(&g.detector, &detector));
        match group {
            Some(g) => {
                assert!(
                    g.scanner.is_none(),
                    "cannot join a scan group whose audio already started"
                );
                g.members.push(id);
            }
            None => self.groups.push(ScanGroup {
                detector,
                members: vec![id],
                scanner: None,
            }),
        }
        self.sessions.insert(id, session);
        id
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of open sessions that have reached a decision.
    pub fn sessions_decided(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| s.decision().is_some())
            .count()
    }

    /// Read access to a session (state, decision, diagnostics).
    pub fn session(&self, id: SessionId) -> Option<&AuthSession> {
        self.sessions.get(&id)
    }

    /// Pops the next outgoing message of one session.
    pub fn poll_transmit(&mut self, id: SessionId) -> Option<Message> {
        self.sessions.get_mut(&id)?.poll_transmit()
    }

    /// Feeds an incoming wire message to one session.
    ///
    /// # Errors
    ///
    /// [`PianoError::Wire`] for unknown sessions, audio chunks (feed the
    /// shared stream via [`push_audio`](Self::push_audio) instead), or
    /// messages the session rejects.
    pub fn handle_message(
        &mut self,
        id: SessionId,
        msg: Message,
    ) -> Result<Vec<SessionEvent>, PianoError> {
        if matches!(
            msg,
            Message::AudioChunk { .. } | Message::AudioBatch { .. } | Message::AudioBatchI16 { .. }
        ) {
            return Err(PianoError::Wire(
                "service sessions share one audio stream: use AuthService::push_audio".into(),
            ));
        }
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or_else(|| PianoError::Wire(format!("unknown session {id:?}")))?;
        session.handle_message(msg)
    }

    /// Feeds one chunk of the host's shared recording to every scan group:
    /// one coarse pass per group per tick, regardless of how many sessions
    /// it carries. Returns per-session events (provisional detections,
    /// early decisions).
    pub fn push_audio(&mut self, samples: &[f64]) -> Vec<(SessionId, SessionEvent)> {
        let mut out = Vec::new();
        for group in &mut self.groups {
            if group.scanner.is_none() {
                let mut sigs = Vec::with_capacity(group.members.len() * 2);
                for id in &group.members {
                    // Members are open sessions whose signals were fixed
                    // at open. A group with any incomplete member cannot
                    // scan coherently (signature index i maps to member
                    // i/2), so rather than scan misaligned, skip it.
                    let Some((a, v)) = self
                        .sessions
                        .get(id)
                        .and_then(|s| Some((s.sig_a.clone()?, s.sig_v.clone()?)))
                    else {
                        sigs.clear();
                        break;
                    };
                    sigs.push(a);
                    sigs.push(v);
                }
                if sigs.len() == group.members.len() * 2 {
                    group.scanner = Some(StreamingDetector::new(Arc::clone(&group.detector), sigs));
                }
            }
            let Some(scanner) = group.scanner.as_mut() else {
                continue;
            };
            for ev in scanner.push(samples) {
                let StreamEvent::EarlyDetection {
                    signature,
                    detection,
                    samples_consumed,
                } = ev;
                let Some(&id) = group.members.get(signature / 2) else {
                    continue;
                };
                let role = if signature % 2 == 0 {
                    SignalRole::Auth
                } else {
                    SignalRole::Vouch
                };
                let Some(session) = self.sessions.get_mut(&id) else {
                    continue;
                };
                for sev in session.accept_early(role, detection, samples_consumed) {
                    out.push((id, sev));
                }
            }
        }
        out
    }

    /// Ends the shared recording: every group's scan concludes with the
    /// exact offline-equivalent result and each member session receives
    /// its detections. Groups reset so a later epoch can stream again.
    pub fn finish_audio(&mut self) -> Vec<(SessionId, SessionEvent)> {
        let mut out = Vec::new();
        for group in &mut self.groups {
            let Some(scanner) = group.scanner.as_mut() else {
                continue;
            };
            let result = scanner.finish();
            for (j, id) in group.members.iter().enumerate() {
                let Some(session) = self.sessions.get_mut(id) else {
                    continue;
                };
                let (Some(&det_a), Some(&det_v)) = (
                    result.detections.get(2 * j),
                    result.detections.get(2 * j + 1),
                ) else {
                    continue;
                };
                for sev in session.accept_scan(det_a, det_v, result.ffts_used) {
                    out.push((*id, sev));
                }
            }
            group.scanner = None;
            group.members.clear();
        }
        self.groups.retain(|g| !g.members.is_empty());
        out
    }

    /// The decision of a session, if it has one.
    pub fn decision(&self, id: SessionId) -> Option<&AuthDecision> {
        self.sessions.get(&id)?.decision()
    }

    /// Closes a session, returning it (for inspection) if it existed.
    pub fn close_session(&mut self, id: SessionId) -> Option<AuthSession> {
        for group in &mut self.groups {
            if let Some(pos) = group.members.iter().position(|m| *m == id) {
                assert!(
                    group.scanner.is_none(),
                    "cannot close a session while its scan group is streaming"
                );
                group.members.remove(pos);
            }
        }
        self.groups.retain(|g| !g.members.is_empty());
        self.sessions.remove(&id)
    }
}

// ---------------------------------------------------------------------------
// Locked service handle
// ---------------------------------------------------------------------------

/// Lock rank of the service lock. The gateway opens sessions while it
/// holds its RNG (rank 12), so this sits above it.
const SERVICE_RANK: u32 = 20;

/// One [`AuthService`] behind one [`OrderedMutex`]: the handle a gateway
/// shares between its event loop and host threads. Every call locks the
/// service for its own duration.
///
/// The name is historical: the service is not split. Sessions on every
/// [`ActionConfig`] share this one lock, and scan groups are kept apart
/// inside the [`AuthService`].
#[derive(Debug)]
pub struct ShardedAuthService {
    service: OrderedMutex<AuthService>,
}

impl ShardedAuthService {
    /// A locked [`AuthService::new`] of `config`. `shard_count` is
    /// ignored; it is kept so existing callers compile.
    ///
    /// # Panics
    ///
    /// Panics if `config.action` fails validation, as [`AuthService::new`]
    /// does.
    pub fn new(config: PianoConfig, shard_count: usize) -> Self {
        let _ = shard_count;
        ShardedAuthService {
            service: OrderedMutex::new(SERVICE_RANK, "service", AuthService::new(config)),
        }
    }

    /// Runs `f` against the service. Always `Some`.
    pub fn with_default<R>(&self, f: impl FnOnce(&mut AuthService) -> R) -> Option<R> {
        Some(f(&mut self.service.lock()))
    }

    /// See [`AuthService::open_session`].
    pub fn open_session(&self, early_decision: bool, rng: &mut ChaCha8Rng) -> SessionId {
        self.service.lock().open_session(early_decision, rng)
    }

    /// See [`AuthService::handle_message`].
    ///
    /// # Errors
    ///
    /// As [`AuthService::handle_message`].
    pub fn handle_message(
        &self,
        id: SessionId,
        msg: Message,
    ) -> Result<Vec<SessionEvent>, PianoError> {
        self.service.lock().handle_message(id, msg)
    }

    /// See [`AuthService::poll_transmit`].
    pub fn poll_transmit(&self, id: SessionId) -> Option<Message> {
        self.service.lock().poll_transmit(id)
    }

    /// The decision of a session, if it has one (cloned out of the lock).
    pub fn decision(&self, id: SessionId) -> Option<AuthDecision> {
        self.service.lock().decision(id).cloned()
    }

    /// See [`AuthService::close_session`].
    pub fn close_session(&self, id: SessionId) -> Option<AuthSession> {
        self.service.lock().close_session(id)
    }

    /// See [`AuthService::session_count`].
    pub fn session_count(&self) -> usize {
        self.service.lock().session_count()
    }

    /// See [`AuthService::push_audio`].
    pub fn push_audio(&self, samples: &[f64]) -> Vec<(SessionId, SessionEvent)> {
        self.service.lock().push_audio(samples)
    }

    /// See [`AuthService::finish_audio`].
    pub fn finish_audio(&self) -> Vec<(SessionId, SessionEvent)> {
        self.service.lock().finish_audio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn config() -> ActionConfig {
        ActionConfig::default()
    }

    /// Adds a scaled copy of `wave` at `offset` into `rec`.
    fn embed_into(rec: &mut [f64], wave: &[f64], offset: usize, gain: f64) {
        for (i, &v) in wave.iter().enumerate() {
            rec[offset + i] += v * gain;
        }
    }

    /// Feeds `rec` to a fresh streaming scan in chunks of `chunk` samples
    /// and returns (finish result, events seen).
    fn stream_scan(
        detector: &Arc<Detector>,
        sigs: &[&SignalSignature],
        rec: &[f64],
        chunk: usize,
    ) -> (ScanResult, Vec<StreamEvent>) {
        let mut s = StreamingDetector::new(
            Arc::clone(detector),
            sigs.iter().map(|&s| s.clone()).collect(),
        );
        let mut events = Vec::new();
        for c in rec.chunks(chunk.max(1)) {
            events.extend(s.push(c));
        }
        (s.finish(), events)
    }

    #[test]
    fn streaming_finish_is_bit_identical_to_offline_for_many_chunkings() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let sa = ReferenceSignal::from_indices(&cfg, vec![2, 9, 17], &mut rng(1));
        let sv = ReferenceSignal::from_indices(&cfg, vec![5, 13, 26], &mut rng(2));
        let sig_a = SignalSignature::of(&sa, &cfg);
        let sig_v = SignalSignature::of(&sv, &cfg);
        let mut rec = vec![0.0; 33_000];
        embed_into(&mut rec, &sa.waveform(), 7_321, 0.35);
        embed_into(&mut rec, &sv.waveform(), 21_007, 0.3);
        let offline = detector.detect_many(&rec, &[&sig_a, &sig_v]);
        assert!(offline.detections[0].is_found());
        assert!(offline.detections[1].is_found());
        for chunk in [37, 512, 1000, 4096, 5000, rec.len()] {
            let (streamed, _) = stream_scan(&detector, &[&sig_a, &sig_v], &rec, chunk);
            assert_eq!(streamed, offline, "chunk size {chunk}");
        }
    }

    #[test]
    fn non_finite_samples_are_contained_at_the_ingest_boundary() {
        // A NaN/∞ chunk early in the stream must not poison later
        // windows: the signal arrives long after the bad chunk (and
        // after ring compaction has run), and it must still be found,
        // with exactly the result the offline scan of the sanitized
        // stream produces.
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let signal = ReferenceSignal::from_indices(&cfg, vec![3, 12, 21], &mut rng(7));
        let sig = SignalSignature::of(&signal, &cfg);
        let mut rec = vec![0.0; 60_000];
        embed_into(&mut rec, &signal.waveform(), 41_000, 0.4);
        let mut poisoned = rec.clone();
        poisoned[100] = f64::NAN;
        poisoned[2_000] = f64::INFINITY;
        poisoned[17_999] = f64::NEG_INFINITY;

        let offline_clean = detector.detect_many(&rec, &[&sig]);
        assert!(offline_clean.detections[0].is_found());
        for chunk in [333, 1024, 16_384] {
            let (streamed, _) = stream_scan(&detector, &[&sig], &poisoned, chunk);
            assert_eq!(
                streamed, offline_clean,
                "poisoned stream (chunk {chunk}) must scan like the clean one"
            );
        }
    }

    #[test]
    fn streaming_matches_offline_on_absent_and_short_recordings() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let sig = SignalSignature::of(
            &ReferenceSignal::from_indices(&cfg, vec![4, 11], &mut rng(3)),
            &cfg,
        );
        // Absent signal over a long stream.
        let quiet = vec![0.0; 20_000];
        let offline = detector.detect_many(&quiet, &[&sig]);
        let (streamed, events) = stream_scan(&detector, &[&sig], &quiet, 1234);
        assert_eq!(streamed, offline);
        assert!(events.is_empty(), "no early events on silence");
        // Shorter than one window.
        let tiny = vec![0.0; 1_000];
        let offline = detector.detect_many(&tiny, &[&sig]);
        let (streamed, _) = stream_scan(&detector, &[&sig], &tiny, 100);
        assert_eq!(streamed, offline);
        assert_eq!(streamed.ffts_used, 0);
        // Exactly one window.
        let exact = vec![0.0; cfg.signal_len];
        let offline = detector.detect_many(&exact, &[&sig]);
        let (streamed, _) = stream_scan(&detector, &[&sig], &exact, 717);
        assert_eq!(streamed, offline);
    }

    #[test]
    fn early_detection_fires_before_end_of_stream_and_matches_final() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let sig_ref = ReferenceSignal::from_indices(&cfg, vec![3, 12, 24], &mut rng(4));
        let sig = SignalSignature::of(&sig_ref, &cfg);
        let total = 88_200; // the paper's full 2 s recording
        let mut rec = vec![0.0; total];
        embed_into(&mut rec, &sig_ref.waveform(), 9_000, 0.4);
        let mut s = StreamingDetector::new(Arc::clone(&detector), vec![sig.clone()]);
        let mut early_at = None;
        for c in rec.chunks(1000) {
            for ev in s.push(c) {
                let StreamEvent::EarlyDetection {
                    samples_consumed, ..
                } = ev;
                early_at.get_or_insert(samples_consumed);
            }
        }
        let early_at = early_at.expect("early detection must fire");
        assert!(
            early_at < total / 2,
            "decision at {early_at} of {total} samples — not early"
        );
        let early = s.early_detection(0).unwrap().detection;
        let final_result = s.finish();
        assert_eq!(final_result.detections[0], early);
        assert!(s.early_fine_evals() > 0);
    }

    #[test]
    fn ring_buffer_stays_bounded_on_long_streams() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let sig = SignalSignature::of(
            &ReferenceSignal::from_indices(&cfg, vec![1, 22], &mut rng(5)),
            &cfg,
        );
        let mut s = StreamingDetector::new(Arc::clone(&detector), vec![sig]);
        let chunk = vec![0.0; 2048];
        for _ in 0..200 {
            let _ = s.push(&chunk);
        }
        assert_eq!(s.samples_consumed(), 200 * 2048);
        let bound = cfg.signal_len + cfg.fine_radius + COMPACT_SLACK + RING_ALIGN + 2048;
        assert!(
            s.ring.buf.len() <= bound,
            "ring holds {} samples, bound {bound}",
            s.ring.buf.len()
        );
    }

    #[test]
    fn capture_start_clamps_to_the_ring_base() {
        // A capture whose requested left edge (`offset − fine_radius`)
        // falls behind the compaction floor must clamp to the ring base
        // instead of sliding the window (`start − base` underflowed and
        // panicked before the clamp existed).
        let mut ring = SampleRing::default();
        let rec: Vec<f64> = (0..40_000).map(|i| i as f64).collect();
        ring.append(&rec);
        ring.compact_to(20_000);
        assert_eq!(ring.base, 20_000 & !(RING_ALIGN - 1));
        assert!(ring.window(ring.base - 1, ring.base + 10).is_none());

        let mut out = Vec::new();
        let start = ring.capture_into(5_000, ring.base + 3, &mut out);
        assert_eq!(start, ring.base, "start clamps up to the ring base");
        assert_eq!(
            out,
            vec![
                ring.base as f64,
                ring.base as f64 + 1.0,
                ring.base as f64 + 2.0
            ]
        );

        // The right edge clamps down to the stream frontier.
        out.clear();
        let start = ring.capture_into(39_998, 50_000, &mut out);
        assert_eq!(start, 39_998);
        assert_eq!(out, vec![39_998.0, 39_999.0]);

        // A fully compacted-away range copies nothing.
        out.clear();
        assert_eq!(ring.capture_into(0, 8, &mut out), ring.base);
        assert!(out.is_empty());
    }

    #[test]
    fn compaction_with_large_fine_radius_matches_offline() {
        // A fine radius comparable to the signal length stresses the
        // capture left-edge clamp: maxima found right after a compaction
        // ask for neighborhoods reaching behind the ring base. The
        // streamed result must still match the offline scan bit for bit.
        let mut cfg = config();
        cfg.fine_radius = cfg.signal_len + 1_500;
        let detector = Arc::new(Detector::new(&cfg));
        let signal = ReferenceSignal::from_indices(&cfg, vec![4, 11, 23], &mut rng(11));
        let sig = SignalSignature::of(&signal, &cfg);
        // Long enough that compaction runs several times before the
        // signal arrives, and again after.
        let mut rec = vec![0.0; 150_000];
        embed_into(&mut rec, &signal.waveform(), 120_000, 0.4);
        let offline = detector.detect_many(&rec, &[&sig]);
        assert!(offline.detections[0].is_found());
        for chunk in [701, 2048, 16_384] {
            let (streamed, _) = stream_scan(&detector, &[&sig], &rec, chunk);
            assert_eq!(streamed, offline, "chunk size {chunk}");
        }
    }

    /// Builds a decided authenticator/voucher pair from hand-placed
    /// recordings, exchanging messages sans-IO. Returns the
    /// authenticator's decision and both sessions.
    fn run_pure_sessions(
        l_aa: usize,
        l_av: usize,
        l_va: usize,
        l_vv: usize,
        threshold_m: f64,
    ) -> (AuthDecision, AuthSession, AuthSession) {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(42);
        let mut session_a =
            AuthSession::authenticator_with(Arc::clone(&detector), threshold_m, &mut r);
        assert_eq!(session_a.phase(), SessionPhase::Idle);
        let challenge = session_a.poll_transmit().expect("challenge queued");
        assert_eq!(session_a.phase(), SessionPhase::Challenged);

        let mut session_v = AuthSession::voucher_with(Arc::clone(&detector));
        session_v.handle_message(challenge).unwrap();
        assert_eq!(session_v.phase(), SessionPhase::Challenged);
        assert_eq!(session_v.session_id(), session_a.session_id());

        let wave_a = session_a.playback_waveform().unwrap();
        let wave_v = session_v.playback_waveform().unwrap();
        let mut rec_a = vec![0.0; 30_000];
        embed_into(&mut rec_a, &wave_a, l_aa, 0.5);
        embed_into(&mut rec_a, &wave_v, l_av, 0.3);
        let mut rec_v = vec![0.0; 30_000];
        embed_into(&mut rec_v, &wave_a, l_va, 0.3);
        embed_into(&mut rec_v, &wave_v, l_vv, 0.5);

        for c in rec_a.chunks(777) {
            let _ = session_a.push_audio(c);
        }
        let _ = session_a.finish_audio();
        for c in rec_v.chunks(777) {
            let _ = session_v.push_audio(c);
        }
        let events = session_v.finish_audio();
        assert!(events.contains(&SessionEvent::ReportReady));
        assert_eq!(session_v.phase(), SessionPhase::Decided);

        let report = session_v.poll_transmit().expect("report queued");
        let events = session_a.handle_message(report).unwrap();
        assert!(matches!(events.last(), Some(SessionEvent::Decided(_))));
        assert_eq!(session_a.phase(), SessionPhase::Decided);
        let decision = session_a.decision().unwrap().clone();
        (decision, session_a, session_v)
    }

    #[test]
    fn sans_io_session_pair_measures_the_planted_distance() {
        // auth_diff = 10000, vouch_diff = 9871 ⇒ d ≈ ½·343·129/44100 ≈ 0.50 m.
        let (decision, session_a, session_v) = run_pure_sessions(5_000, 15_000, 5_000, 14_871, 1.0);
        match decision {
            AuthDecision::Granted { distance_m } => {
                assert!((distance_m - 0.502).abs() < 0.1, "distance {distance_m}")
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(session_a.scan_ffts() > 0);
        assert!(session_v.scan_ffts() > 0);
        assert!(matches!(
            session_a.estimate(),
            Some(DistanceEstimate::Measured(_))
        ));
    }

    #[test]
    fn sans_io_session_pair_denies_beyond_threshold() {
        // auth_diff − vouch_diff = 2000 samples ⇒ d ≈ 7.8 m ≫ 1 m.
        let (decision, _, _) = run_pure_sessions(5_000, 15_000, 7_000, 15_000, 1.0);
        assert!(matches!(
            decision,
            AuthDecision::Denied {
                reason: DenialReason::TooFar { .. }
            }
        ));
    }

    #[test]
    fn missing_signal_yields_signal_absent() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(43);
        let mut session_a = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut r);
        let challenge = session_a.poll_transmit().unwrap();
        let mut session_v = AuthSession::voucher_with(Arc::clone(&detector));
        session_v.handle_message(challenge).unwrap();
        // The voucher hears nothing at all.
        let _ = session_v.push_audio(&vec![0.0; 20_000]);
        let _ = session_v.finish_audio();
        let report = session_v.poll_transmit().unwrap();
        assert!(matches!(
            report,
            Message::TimeDiffReport {
                vouch_diff_samples: None,
                ..
            }
        ));
        // A's own recording is also silent.
        let _ = session_a.push_audio(&vec![0.0; 20_000]);
        let _ = session_a.finish_audio();
        let _ = session_a.handle_message(report).unwrap();
        assert_eq!(session_a.estimate(), Some(DistanceEstimate::SignalAbsent));
        assert_eq!(
            session_a.decision(),
            Some(&AuthDecision::Denied {
                reason: DenialReason::SignalAbsent
            })
        );
    }

    #[test]
    fn early_decision_concludes_before_the_recording_ends() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(44);
        let mut session_a = AuthSession::authenticator_with(Arc::clone(&detector), 2.0, &mut r);
        session_a.enable_early_decision();
        let challenge = session_a.poll_transmit().unwrap();
        let mut session_v = AuthSession::voucher_with(Arc::clone(&detector));
        session_v.enable_early_decision();
        session_v.handle_message(challenge).unwrap();

        let wave_a = session_a.playback_waveform().unwrap();
        let wave_v = session_v.playback_waveform().unwrap();
        let total = 88_200;
        let mut rec_a = vec![0.0; total];
        embed_into(&mut rec_a, &wave_a, 5_000, 0.5);
        embed_into(&mut rec_a, &wave_v, 12_000, 0.3);
        let mut rec_v = vec![0.0; total];
        embed_into(&mut rec_v, &wave_a, 5_050, 0.3);
        embed_into(&mut rec_v, &wave_v, 11_950, 0.5);

        // The voucher streams its recording and reports early…
        let mut report = None;
        let mut v_consumed = None;
        for c in rec_v.chunks(1000) {
            let events = session_v.push_audio(c);
            if events.contains(&SessionEvent::ReportReady) {
                report = session_v.poll_transmit();
                v_consumed = Some(session_v.samples_consumed());
                break;
            }
        }
        let report = report.expect("voucher reports before end of stream");
        assert!(v_consumed.unwrap() < total);

        // …A receives it mid-recording and decides without finish_audio.
        let _ = session_a.handle_message(report).unwrap();
        let mut decided_at = None;
        for c in rec_a.chunks(1000) {
            let events = session_a.push_audio(c);
            if events.iter().any(|e| matches!(e, SessionEvent::Decided(_))) {
                decided_at = Some(session_a.samples_consumed());
                break;
            }
        }
        let decided_at = decided_at.expect("early decision fires");
        assert!(
            decided_at < total,
            "decided at {decided_at} of {total} — not before the buffer filled"
        );
        assert!(session_a.decision().unwrap().is_granted());
    }

    #[test]
    fn audio_chunk_messages_drive_a_session() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(45);
        let mut session_a = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut r);
        let challenge = session_a.poll_transmit().unwrap();
        let mut session_v = AuthSession::voucher_with(Arc::clone(&detector));
        session_v.handle_message(challenge).unwrap();
        let session = session_v.session_id();

        let wave_v = session_v.playback_waveform().unwrap();
        let mut rec = vec![0.0; 12_000];
        embed_into(&mut rec, &wave_v, 4_000, 0.5);
        for (seq, c) in rec.chunks(4096).enumerate() {
            session_v
                .handle_message(Message::AudioChunk {
                    session,
                    seq: seq as u32,
                    samples: c.to_vec().into(),
                })
                .unwrap();
        }
        // A sequence gap is rejected.
        let err = session_v
            .handle_message(Message::AudioChunk {
                session,
                seq: 99,
                samples: vec![0.0; 10].into(),
            })
            .unwrap_err();
        assert!(err.to_string().contains("gap"), "{err}");
        // Wrong session id is rejected.
        let err = session_v
            .handle_message(Message::AudioChunk {
                session: session ^ 1,
                seq: 3,
                samples: vec![0.0; 10].into(),
            })
            .unwrap_err();
        assert!(err.to_string().contains("session"), "{err}");
        let _ = session_v.finish_audio();
        assert_eq!(session_v.phase(), SessionPhase::Decided);
    }

    #[test]
    fn state_machine_rejects_misrouted_messages() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(46);
        let mut session_a = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut r);
        // A challenge sent *to* an authenticator is a protocol violation.
        let mut other = rng(47);
        let mut peer = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut other);
        let challenge = peer.poll_transmit().unwrap();
        assert!(session_a.handle_message(challenge).is_err());
        // A report with the wrong session id is rejected.
        let err = session_a
            .handle_message(Message::TimeDiffReport {
                session: session_a.session_id() ^ 0xFF,
                vouch_diff_samples: Some(1.0),
            })
            .unwrap_err();
        assert!(err.to_string().contains("session"), "{err}");
        // A voucher must not accept a report at all.
        let mut session_v = AuthSession::voucher_with(Arc::clone(&detector));
        assert!(session_v
            .handle_message(Message::TimeDiffReport {
                session: 1,
                vouch_diff_samples: None,
            })
            .is_err());
    }

    #[test]
    fn audio_in_flight_after_finish_is_ignored() {
        // The authenticator finishes its recording while still waiting for
        // the voucher's report: trailing audio (a draining mic callback or
        // a wire-framed chunk) must be ignored, not panic the session.
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(48);
        let mut session_a = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut r);
        let challenge = session_a.poll_transmit().unwrap();
        let session = session_a.session_id();
        let _ = session_a.push_audio(&vec![0.0; 8_192]);
        let _ = session_a.finish_audio();
        assert_eq!(
            session_a.phase(),
            SessionPhase::Listening,
            "awaiting report"
        );
        // Direct trailing chunk.
        assert!(session_a.push_audio(&[0.0; 1_024]).is_empty());
        // Wire-framed trailing chunk (seq 0: none were wire-fed before).
        assert!(session_a
            .handle_message(Message::AudioChunk {
                session,
                seq: 0,
                samples: vec![0.0; 256].into(),
            })
            .unwrap()
            .is_empty());
        // The report still concludes the session normally.
        let _ = session_a
            .handle_message(Message::TimeDiffReport {
                session,
                vouch_diff_samples: None,
            })
            .unwrap();
        assert_eq!(session_a.phase(), SessionPhase::Decided);
        let _ = challenge;
    }

    #[test]
    #[should_panic(expected = "before the challenge")]
    fn push_audio_in_idle_is_a_protocol_bug() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut session_v = AuthSession::voucher_with(detector);
        let _ = session_v.push_audio(&[0.0; 10]);
    }

    #[test]
    fn audio_batch_messages_drive_a_session() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(71);
        let mut session_a = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut r);
        let challenge = session_a.poll_transmit().unwrap();
        let mut session_v = AuthSession::voucher_with(Arc::clone(&detector));
        session_v.handle_message(challenge).unwrap();
        let session = session_v.session_id();

        let wave_v = session_v.playback_waveform().unwrap();
        let mut rec = vec![0.0; 16_384];
        embed_into(&mut rec, &wave_v, 5_000, 0.5);
        // Deliver the recording as batches of four 1024-sample chunks.
        let chunks: Vec<Vec<f64>> = rec.chunks(1024).map(<[f64]>::to_vec).collect();
        for (i, batch) in chunks.chunks(4).enumerate() {
            session_v
                .handle_message(Message::AudioBatch {
                    session,
                    start_seq: (i * 4) as u32,
                    chunks: batch.to_vec().into(),
                })
                .unwrap();
        }
        assert_eq!(session_v.samples_consumed(), rec.len());
        // A batch out of sequence is rejected whole.
        let err = session_v
            .handle_message(Message::AudioBatch {
                session,
                start_seq: 3,
                chunks: vec![vec![0.0; 8]].into(),
            })
            .unwrap_err();
        assert!(err.to_string().contains("gap"), "{err}");
        // Flow-control replies never address a session.
        assert!(session_v
            .handle_message(Message::Busy {
                session,
                buffered_samples: 1,
                high_water: 1,
            })
            .is_err());
        assert!(session_v
            .handle_message(Message::Credit {
                session,
                samples: 1,
            })
            .is_err());
        let _ = session_v.finish_audio();
        assert_eq!(session_v.phase(), SessionPhase::Decided);
        let report = session_v.poll_transmit().unwrap();
        assert!(matches!(report, Message::TimeDiffReport { .. }));
    }

    #[test]
    fn early_margin_delays_or_suppresses_provisional_detections() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let sig_ref = ReferenceSignal::from_indices(&cfg, vec![3, 12, 24], &mut rng(72));
        let sig = SignalSignature::of(&sig_ref, &cfg);
        let mut rec = vec![0.0; 50_000];
        embed_into(&mut rec, &sig_ref.waveform(), 9_000, 0.12); // borderline gain
        let early_at = |margin: f64| {
            let mut s = StreamingDetector::new(Arc::clone(&detector), vec![sig.clone()]);
            s.set_early_margin(margin);
            assert_eq!(s.early_margin(), margin);
            let mut at = None;
            for c in rec.chunks(1000) {
                for ev in s.push(c) {
                    let StreamEvent::EarlyDetection {
                        samples_consumed, ..
                    } = ev;
                    at.get_or_insert(samples_consumed);
                }
            }
            (at, s.finish())
        };
        let (at_default, final_default) = early_at(1.0);
        let (at_strict, final_strict) = early_at(1e6);
        assert_eq!(
            final_default, final_strict,
            "finish() never depends on the margin"
        );
        assert!(at_default.is_some(), "default margin fires on this signal");
        match at_strict {
            None => {} // suppressed entirely: acceptable for a huge margin
            Some(at) => assert!(
                at >= at_default.unwrap(),
                "strict margin cannot fire earlier"
            ),
        }
    }

    #[test]
    #[should_panic(expected = "finite multiplier")]
    fn early_margin_below_one_is_rejected() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let sig = SignalSignature::of(
            &ReferenceSignal::from_indices(&cfg, vec![1], &mut rng(73)),
            &cfg,
        );
        let mut s = StreamingDetector::new(detector, vec![sig]);
        s.set_early_margin(0.5);
    }

    #[test]
    fn session_confidence_knob_is_exposed_and_applied() {
        let cfg = config();
        let detector = Arc::new(Detector::new(&cfg));
        let mut r = rng(74);
        let mut session = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut r);
        assert_eq!(session.early_confidence(), None);
        session.enable_early_decision();
        assert_eq!(session.early_confidence(), Some(1.0));
        session.enable_early_decision_with_confidence(2.5);
        assert_eq!(session.early_confidence(), Some(2.5));
        // The knob reaches the scanner, including one already listening.
        let _ = session.poll_transmit();
        let _ = session.push_audio(&[0.0; 64]);
        session.enable_early_decision_with_confidence(3.5);
        assert_eq!(session.scanner.as_ref().unwrap().early_margin(), 3.5);
    }

    #[test]
    fn service_shares_one_detector_and_one_scan_across_sessions() {
        let cfg = PianoConfig::with_threshold(2.0);
        let mut service = AuthService::new(cfg.clone());
        let mut r = rng(50);
        let id1 = service.open_session(false, &mut r);
        let id2 = service.open_session(false, &mut r);
        assert_eq!(service.session_count(), 2);
        // Same configuration ⇒ same cached detector instance.
        let d1 = service.detector_for(&cfg.action);
        let d2 = service.detector_for(&cfg.action);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert_eq!(service.groups.len(), 1, "one shared scan group");

        // Collect both challenges (voucher side simulated locally).
        let c1 = service.poll_transmit(id1).unwrap();
        let c2 = service.poll_transmit(id2).unwrap();
        let mut v1 = AuthSession::voucher_with(Arc::clone(&d1));
        let mut v2 = AuthSession::voucher_with(Arc::clone(&d1));
        v1.handle_message(c1).unwrap();
        v2.handle_message(c2).unwrap();

        // One shared hub recording carries all four signals, staggered.
        let w1a = service.session(id1).unwrap().playback_waveform().unwrap();
        let w1v = v1.playback_waveform().unwrap();
        let w2a = service.session(id2).unwrap().playback_waveform().unwrap();
        let w2v = v2.playback_waveform().unwrap();
        let mut hub = vec![0.0; 40_000];
        embed_into(&mut hub, &w1a, 5_000, 0.5);
        embed_into(&mut hub, &w1v, 10_000, 0.4);
        embed_into(&mut hub, &w2a, 15_000, 0.5);
        embed_into(&mut hub, &w2v, 20_000, 0.4);
        for c in hub.chunks(2048) {
            let _ = service.push_audio(c);
        }
        let events = service.finish_audio();
        assert!(
            events
                .iter()
                .filter(|(_, e)| matches!(
                    e,
                    SessionEvent::SignalLocated {
                        provisional: false,
                        ..
                    }
                ))
                .count()
                >= 4,
            "both sessions got final locations: {events:?}"
        );

        // Deliver fabricated reports chosen to measure ≈ 0.6 m each.
        // auth_diff_i = 5000; vouch_diff = 5000 − 2·0.6·fs/s ≈ 4845.7.
        for (id, session_wire) in [
            (id1, service.session(id1).unwrap().session_id()),
            (id2, service.session(id2).unwrap().session_id()),
        ] {
            let events = service
                .handle_message(
                    id,
                    Message::TimeDiffReport {
                        session: session_wire,
                        vouch_diff_samples: Some(4_845.7),
                    },
                )
                .unwrap();
            assert!(matches!(events.last(), Some(SessionEvent::Decided(_))));
        }
        for id in [id1, id2] {
            match service.decision(id).unwrap() {
                AuthDecision::Granted { distance_m } => {
                    assert!((distance_m - 0.6).abs() < 0.1, "distance {distance_m}")
                }
                other => panic!("session {id:?}: expected grant, got {other:?}"),
            }
        }
        // Audio chunks must go through the shared stream.
        assert!(service
            .handle_message(
                id1,
                Message::AudioChunk {
                    session: 0,
                    seq: 0,
                    samples: vec![].into(),
                },
            )
            .is_err());
        assert!(service.close_session(id1).is_some());
        assert_eq!(service.session_count(), 1);
    }
}
