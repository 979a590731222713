//! The shared 0.50 m fleet-simulation geometry.
//!
//! The transport conformance tests, `examples/fleet_ingest.rs`, and the
//! micro bench's `net_ingest` measurement all drive the same scenario:
//! every feed's voucher "hears" the session's two reference signals
//! 5 871 samples apart, the gateway's hub microphone hears them 6 000
//! apart, and Eq. 3 yields `d = ½·(6000−5871)/44100·343 ≈ 0.50 m`.
//! Keeping the recording builders (and the direct-ingestion baseline,
//! [`direct_decisions`]) here means a change to the geometry (or the
//! quantization step) reaches all three surfaces at once —
//! otherwise the test, the example, and the bench would silently start
//! measuring different scenarios.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano_core::config::ActionConfig;
use piano_core::piano::{AuthDecision, PianoConfig};
use piano_core::stream::{AuthService, AuthSession, SessionId, ShardedAuthService, SignalRole};
use piano_core::wire::Message;

use crate::codec::quantize_samples;
use crate::reactor::ReactorServer;

/// Samples between consecutive sessions' signals in the hub recording.
pub const STRIDE: usize = 12_288;

/// Per-feed voucher recording length, in samples.
pub const FEED_REC_LEN: usize = 16_384;

/// Offset of `S_A` in a feed recording (and, per session base, the hub).
pub const FEED_SA_OFFSET: usize = 2_000;

/// Offset of `S_V` in a feed recording: 5 871 samples after `S_A`.
pub const FEED_SV_OFFSET: usize = 7_871;

/// Offset of `S_V` past a session's base in the hub recording: 6 000
/// samples after `S_A`.
pub const HUB_SV_OFFSET: usize = 8_000;

/// Adds a scaled copy of `wave` into `rec` at `offset`.
pub fn embed(rec: &mut [f64], wave: &[f64], offset: usize, gain: f64) {
    for (i, &v) in wave.iter().enumerate() {
        rec[offset + i] += v * gain;
    }
}

/// The voucher-side recording for one session, synthesized from its
/// Step II challenge: `S_A` at [`FEED_SA_OFFSET`], `S_V` at
/// [`FEED_SV_OFFSET`] — quantized to the i16 grid, as a real 16-bit mic
/// would deliver it (which is also what makes transport-vs-direct
/// decision comparisons exact under either codec).
///
/// # Panics
///
/// Panics if `challenge` is not a valid [`Message::ReferenceSignals`]
/// under `config` — fixtures are for simulation hosts that just built
/// the challenge themselves.
pub fn feed_recording(challenge: &Message, config: &ActionConfig) -> Vec<f64> {
    let Message::ReferenceSignals { sa, sv, .. } = challenge else {
        panic!("expected the Step II challenge, got {challenge:?}");
    };
    let wave_a = sa.reconstruct(config).expect("valid spec").waveform();
    let wave_v = sv.reconstruct(config).expect("valid spec").waveform();
    let mut rec = vec![0.0f64; FEED_REC_LEN];
    embed(&mut rec, &wave_a, FEED_SA_OFFSET, 0.3);
    embed(&mut rec, &wave_v, FEED_SV_OFFSET, 0.4);
    quantize_samples(&rec)
}

/// The voucher-side recording answering one wire re-challenge round,
/// synthesized from its [`Message::Recheck`]: identical geometry to
/// [`feed_recording`] (`S_A` at [`FEED_SA_OFFSET`], `S_V` at
/// [`FEED_SV_OFFSET`], i16-quantized), so every re-check round re-ranges
/// the same 0.50 m scenario the original epoch granted.
///
/// # Panics
///
/// Panics if `recheck` is not a valid [`Message::Recheck`] under
/// `config` — fixtures are for simulation hosts whose server just built
/// the challenge.
pub fn recheck_recording(recheck: &Message, config: &ActionConfig) -> Vec<f64> {
    let Message::Recheck { sa, sv, .. } = recheck else {
        panic!("expected a re-challenge, got {recheck:?}");
    };
    let wave_a = sa.reconstruct(config).expect("valid spec").waveform();
    let wave_v = sv.reconstruct(config).expect("valid spec").waveform();
    let mut rec = vec![0.0f64; FEED_REC_LEN];
    embed(&mut rec, &wave_a, FEED_SA_OFFSET, 0.3);
    embed(&mut rec, &wave_v, FEED_SV_OFFSET, 0.4);
    quantize_samples(&rec)
}

/// The gateway's hub recording over `ids`' open sessions (in the given
/// order, one [`STRIDE`] apart): each session's `S_A` at
/// `base + `[`FEED_SA_OFFSET`], `S_V` at `base + `[`HUB_SV_OFFSET`].
/// Ids whose session no longer exists (dropped connections) are skipped.
pub fn hub_recording_for(service: &AuthService, ids: &[SessionId]) -> Vec<f64> {
    let live: Vec<_> = ids.iter().filter_map(|id| service.session(*id)).collect();
    let mut hub = vec![0.0f64; live.len() * STRIDE + FEED_REC_LEN];
    for (i, session) in live.iter().enumerate() {
        let wave_a = session.waveform_of(SignalRole::Auth).expect("S_A known");
        let wave_v = session.waveform_of(SignalRole::Vouch).expect("S_V known");
        let base = i * STRIDE;
        embed(&mut hub, &wave_a, base + FEED_SA_OFFSET, 0.4);
        embed(&mut hub, &wave_v, base + HUB_SV_OFFSET, 0.3);
    }
    hub
}

/// The fleet without any transport — the baseline every gateway run is
/// compared against: `feeds` voucher sessions opened on one
/// [`AuthService`] at τ = 1 m (session randomness drawn from `seed` in
/// feed order, as a seeded gateway draws it in handshake order), fed
/// their [`feed_recording`] directly in 1 024-sample chunks, reports
/// routed by hand, and one [`hub_recording_for`] scanned on the service.
/// Decisions in feed order.
pub fn direct_decisions(seed: u64, feeds: usize) -> Vec<AuthDecision> {
    direct_epoch_decisions(seed, &[feeds]).concat()
}

/// [`direct_decisions`] over consecutive epochs on one service, as one
/// long-lived gateway serves them: epoch `k` opens `epochs[k]` sessions
/// from one RNG continued across epochs, scans its own hub recording,
/// and closes its sessions. Decisions per epoch, in feed order.
pub fn direct_epoch_decisions(seed: u64, epochs: &[usize]) -> Vec<Vec<AuthDecision>> {
    let mut service = AuthService::new(PianoConfig::with_threshold(1.0));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = service.config().action.clone();
    let mut decisions = Vec::with_capacity(epochs.len());
    for &feeds in epochs {
        let mut ids = Vec::with_capacity(feeds);
        for _ in 0..feeds {
            let id = service.open_session(false, &mut rng);
            let challenge = service.poll_transmit(id).expect("challenge");
            let mut voucher = AuthSession::voucher_with(Arc::clone(service.detector()));
            let rec = feed_recording(&challenge, &config);
            voucher.handle_message(challenge).expect("challenge ok");
            for chunk in rec.chunks(1_024) {
                let _ = voucher.push_audio(chunk);
            }
            let _ = voucher.finish_audio();
            let report = voucher.poll_transmit().expect("report");
            service.handle_message(id, report).expect("routed");
            ids.push(id);
        }
        let hub = hub_recording_for(&service, &ids);
        for chunk in hub.chunks(16_384) {
            let _ = service.push_audio(chunk);
        }
        let _ = service.finish_audio();
        decisions.push(
            ids.iter()
                .map(|&id| {
                    let session = service.close_session(id).expect("open");
                    session.decision().expect("decided").clone()
                })
                .collect(),
        );
    }
    decisions
}

/// [`hub_recording_for`] over a gateway's locked service.
pub fn hub_recording_sharded(service: &ShardedAuthService, ids: &[SessionId]) -> Vec<f64> {
    service
        .with_default(|svc| hub_recording_for(svc, ids))
        .unwrap_or_default()
}

/// [`hub_recording_sharded`] over the open epoch of a [`ReactorServer`],
/// in opening order.
pub fn hub_recording_reactor(server: &ReactorServer) -> Vec<f64> {
    hub_recording_sharded(server.service(), &server.epoch_session_ids())
}
