//! The ACTION protocol, Steps I–VI (paper Sec. IV-A).
//!
//! One call to [`run_action`] executes the whole exchange between the
//! authenticating device A and the vouching device V:
//!
//! 1. **Step I** — A constructs two randomized reference signals `S_A`,
//!    `S_V` ([`crate::signal`]).
//! 2. **Step II** — A sends both to V over the Bluetooth secure channel
//!    ([`piano_bluetooth`], [`crate::wire`]). The same message doubles as
//!    the start command.
//! 3. **Step III** — both devices record; A plays `S_A` and V plays `S_V`
//!    at staggered offsets. All playback/record commands suffer each
//!    device's audio-stack latency; nobody compensates for it.
//! 4. **Step IV** — each device detects both signals in its own recording
//!    ([`crate::detect`]).
//! 5. **Step V** — V reports its local location difference back to A.
//! 6. **Step VI** — A combines the two differences (Eq. 3,
//!    [`crate::ranging`]).
//!
//! The returned [`ActionOutcome`] carries the estimate (or
//! [`DistanceEstimate::SignalAbsent`]) plus diagnostics used by the
//! efficiency models and by the evaluation harness.
//!
//! Since the streaming redesign, the protocol logic itself lives in the
//! sans-IO [`crate::stream::AuthSession`] state machines;
//! [`run_session_pair`] is the canonical driver wiring a pair of them to
//! the simulated radio and acoustics, and [`run_action`] /
//! [`run_action_with`] are thin compatibility wrappers over it.

use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use piano_acoustics::AcousticField;
use piano_bluetooth::channel::SecureChannel;
use piano_bluetooth::{BluetoothLink, PairingRegistry};

use crate::config::ActionConfig;
use crate::detect::Detector;
use crate::device::Device;
use crate::error::PianoError;
use crate::signal::ReferenceSignal;
use crate::stream::AuthSession;
use crate::wire::Message;

/// The protocol's distance verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DistanceEstimate {
    /// Both signals were detected on both devices; distance in meters.
    Measured(f64),
    /// At least one reference signal was not present in one recording —
    /// the devices are out of acoustic range (or a wall/spoofing defense
    /// suppressed detection). PIANO denies access in this case.
    SignalAbsent,
}

impl DistanceEstimate {
    /// The measured distance, if any.
    pub fn distance_m(&self) -> Option<f64> {
        match self {
            DistanceEstimate::Measured(d) => Some(*d),
            DistanceEstimate::SignalAbsent => None,
        }
    }
}

/// Everything a protocol run produced besides the estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct ActionDiagnostics {
    /// Detected locations `(l_AA, l_AV)` on the authenticating device.
    pub locations_auth: Option<(usize, usize)>,
    /// Detected locations `(l_VA, l_VV)` on the vouching device.
    pub locations_vouch: Option<(usize, usize)>,
    /// Window FFTs executed by the authenticating device's scan.
    pub ffts_auth: usize,
    /// Window FFTs executed by the vouching device's scan.
    pub ffts_vouch: usize,
    /// Bluetooth payload bytes this run added to the link.
    pub bluetooth_bytes: usize,
    /// Bluetooth messages this run added to the link.
    pub bluetooth_messages: usize,
    /// Recording length in samples (per device).
    pub recording_len: usize,
    /// Tone counts of the two reference signals.
    pub tone_counts: (usize, usize),
}

/// Result of one ACTION run.
#[derive(Clone, Debug, PartialEq)]
pub struct ActionOutcome {
    /// The distance verdict.
    pub estimate: DistanceEstimate,
    /// Run diagnostics.
    pub diagnostics: ActionDiagnostics,
}

/// Draws the session id and the two reference signals exactly as
/// [`run_action`] does, in the same RNG order.
///
/// `S_V` is redrawn until neither signal's frequency set contains the
/// other's: Algorithm 1 finds a signal on a window of one whose tones
/// nest with its own, which mislocates it by the gap between `S_A` and
/// `S_V`. A non-nested partner always exists (the complement of `S_A`).
///
/// Exposed so tests and the oracle-replay attacker (which validates the
/// security experiments) can replicate a session's secrets from a cloned
/// RNG. Honest code has no reason to call this.
pub fn draw_session_signals(
    config: &ActionConfig,
    rng: &mut ChaCha8Rng,
) -> (u64, ReferenceSignal, ReferenceSignal) {
    let session: u64 = rng.gen();
    let sa = ReferenceSignal::random(config, rng);
    loop {
        let sv = ReferenceSignal::random(config, rng);
        if !nested(sa.indices(), sv.indices()) {
            return (session, sa, sv);
        }
    }
}

/// Whether one sorted index set contains the other.
fn nested(a: &[usize], b: &[usize]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().all(|i| large.binary_search(i).is_ok())
}

/// Runs the complete ACTION protocol between two paired devices.
///
/// `now_world_s` is the world time at which the authenticating device
/// initiates the run. Interfering or adversarial sound sources must be
/// registered as emissions on `field` before the call (their world times
/// decide whether they land inside the recordings).
///
/// # Errors
///
/// * [`PianoError::Bluetooth`] if the devices are not paired or the radio
///   link fails (out of range) at any exchange.
/// * [`PianoError::InvalidConfig`] if `config` fails validation.
/// * [`PianoError::Wire`] if a message fails to decode (cannot happen
///   between honest devices; surfaced for completeness).
#[allow(clippy::too_many_arguments)]
pub fn run_action(
    config: &ActionConfig,
    field: &mut AcousticField,
    link: &mut BluetoothLink,
    registry: &PairingRegistry,
    auth: &Device,
    vouch: &Device,
    now_world_s: f64,
    rng: &mut ChaCha8Rng,
) -> Result<ActionOutcome, PianoError> {
    config.validate()?;
    let detector = Arc::new(Detector::new(config));
    run_session_pair(
        &detector,
        field,
        link,
        registry,
        auth,
        vouch,
        now_world_s,
        rng,
    )
}

/// [`run_action`] with a caller-provided [`Detector`].
///
/// Building a detector allocates FFT plans and window tables; callers that
/// authenticate repeatedly should reuse one detector per configuration.
/// This wrapper clones `detector` into an `Arc` and delegates to
/// [`run_session_pair`]; the clone is O(1) (detectors share their plan
/// memory behind an `Arc`), so per-call reuse semantics are preserved.
///
/// # Errors
///
/// Same as [`run_action`].
#[allow(clippy::too_many_arguments)]
pub fn run_action_with(
    detector: &Detector,
    field: &mut AcousticField,
    link: &mut BluetoothLink,
    registry: &PairingRegistry,
    auth: &Device,
    vouch: &Device,
    now_world_s: f64,
    rng: &mut ChaCha8Rng,
) -> Result<ActionOutcome, PianoError> {
    let detector = Arc::new(detector.clone());
    run_session_pair(
        &detector,
        field,
        link,
        registry,
        auth,
        vouch,
        now_world_s,
        rng,
    )
}

/// The canonical protocol driver: runs the complete ACTION exchange by
/// wiring two sans-IO [`AuthSession`] state machines
/// ([`crate::stream`]) to the simulated substrates — the secure channel
/// and radio for Step II/V, the devices' speakers and microphones for
/// Step III. All protocol logic (signal drawing, reconstruction,
/// detection, Eq. 3) lives in the sessions; this function only moves
/// bytes and samples.
///
/// RNG order, wire traffic, and results are identical to the historical
/// monolithic implementation: the authenticator session draws
/// `(session, S_A, S_V)` via [`draw_session_signals`] and the sessions'
/// end-of-stream scans are bit-identical to [`Detector::detect_many`].
///
/// # Errors
///
/// Same as [`run_action`].
#[allow(clippy::too_many_arguments)]
pub fn run_session_pair(
    detector: &Arc<Detector>,
    field: &mut AcousticField,
    link: &mut BluetoothLink,
    registry: &PairingRegistry,
    auth: &Device,
    vouch: &Device,
    now_world_s: f64,
    rng: &mut ChaCha8Rng,
) -> Result<ActionOutcome, PianoError> {
    let config = detector.config();
    let bytes_before = link.total_bytes();
    let msgs_before = link.message_count();

    // Secure channel endpoints over the bonded link key.
    let key = registry.key_for(auth.id, vouch.id)?;

    // ── Step I: the authenticator session draws the randomized signals. ──
    let mut session_a = AuthSession::authenticator_with(Arc::clone(detector), f64::INFINITY, rng);
    let session = session_a.session_id();
    let mut chan_auth = SecureChannel::new(key, session << 8);
    let mut chan_vouch = SecureChannel::new(key, (session << 8) | 0x80);

    // ── Step II: transmit the challenge to the vouching device. ──────────
    let msg = session_a
        .poll_transmit()
        .expect("authenticator queues its challenge at construction");
    let frame = chan_auth.seal(&msg.encode());
    let arrival_s = link.transmit(now_world_s, &auth.position, &vouch.position, &frame)?;
    let opened = chan_vouch.open(&frame)?;
    let mut session_v = AuthSession::voucher_with(Arc::clone(detector));
    session_v.handle_message(Message::decode(&opened)?)?;

    // ── Step III: record on both devices; play S_A then S_V. ─────────────
    // The signals message doubles as the start command: both devices act at
    // `arrival_s` (A knows its own send completed then).
    let start_cmd = arrival_s;
    auth.play(
        field,
        &session_a
            .playback_waveform()
            .expect("authenticator knows S_A"),
        start_cmd + config.play_offset_auth_s,
        config.sample_rate,
        rng,
    );
    vouch.play(
        field,
        &session_v
            .playback_waveform()
            .expect("challenged voucher knows S_V"),
        start_cmd + config.play_offset_vouch_s,
        config.sample_rate,
        rng,
    );
    let (rec_auth, _) = auth.record(
        field,
        start_cmd,
        config.recording_duration_s,
        config.sample_rate,
        rng,
    );
    let (rec_vouch, _) = vouch.record(
        field,
        start_cmd,
        config.recording_duration_s,
        config.sample_rate,
        rng,
    );

    // ── Step IV: both sessions scan their own recordings. ────────────────
    let _ = session_a.push_audio(rec_auth.samples());
    let _ = session_a.finish_audio();
    let _ = session_v.push_audio(rec_vouch.samples());
    let _ = session_v.finish_audio();

    // ── Step V: V reports its local difference (or absence). ─────────────
    let report = session_v
        .poll_transmit()
        .expect("finished voucher queues its report");
    let report_frame = chan_vouch.seal(&report.encode());
    link.transmit(
        start_cmd + config.recording_duration_s,
        &vouch.position,
        &auth.position,
        &report_frame,
    )?;
    let report_opened = chan_auth.open(&report_frame)?;
    let _ = session_a.handle_message(Message::decode(&report_opened)?)?;

    // ── Step VI: the authenticator session has combined Eq. 3. ───────────
    let estimate = session_a
        .estimate()
        .expect("report + locations decide the session");
    let (det_aa, det_av) = session_a.locations().expect("scan finished");
    let (det_va, det_vv) = session_v.locations().expect("scan finished");

    Ok(ActionOutcome {
        estimate,
        diagnostics: ActionDiagnostics {
            locations_auth: det_aa.location().zip(det_av.location()),
            locations_vouch: det_va.location().zip(det_vv.location()),
            ffts_auth: session_a.scan_ffts(),
            ffts_vouch: session_v.scan_ffts(),
            bluetooth_bytes: link.total_bytes() - bytes_before,
            bluetooth_messages: link.message_count() - msgs_before,
            recording_len: rec_auth.len(),
            tone_counts: session_a.tone_counts().expect("authenticator knows both"),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use piano_acoustics::{Environment, Position};
    use rand::SeedableRng;

    fn setup(
        distance_m: f64,
        env: Environment,
        seed: u64,
    ) -> (
        AcousticField,
        BluetoothLink,
        PairingRegistry,
        Device,
        Device,
        ChaCha8Rng,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let field = AcousticField::new(env, seed.wrapping_mul(31).wrapping_add(5));
        let mut link = BluetoothLink::new();
        let _ = &mut link;
        let mut registry = PairingRegistry::new();
        let auth = Device::phone(1, Position::ORIGIN, seed.wrapping_add(100));
        let vouch = Device::phone(
            2,
            Position::new(distance_m, 0.0, 0.0),
            seed.wrapping_add(200),
        );
        registry.pair(auth.id, vouch.id, &mut rng);
        (field, link, registry, auth, vouch, rng)
    }

    #[test]
    fn session_signals_never_nest_and_range_exactly() {
        let config = ActionConfig::default();
        // The first seed whose independent S_A/S_V draw nests.
        let seed = (0u64..100_000)
            .find(|&seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let _: u64 = rng.gen();
                let sa = ReferenceSignal::random(&config, &mut rng);
                let sv = ReferenceSignal::random(&config, &mut rng);
                nested(sa.indices(), sv.indices())
            })
            .expect("an independent draw nests within 100 000 seeds");
        let (_, sa, sv) = draw_session_signals(&config, &mut ChaCha8Rng::seed_from_u64(seed));
        assert!(!nested(sa.indices(), sv.indices()), "seed {seed}");

        // A session from that seed ranges within 10 cm of Eq. 3 on clean
        // recordings: S_A 6 000 samples before S_V at A, 5 871 at V.
        let detector = Arc::new(Detector::new(&config));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut session_a = AuthSession::authenticator_with(Arc::clone(&detector), 1.0, &mut rng);
        let mut session_v = AuthSession::voucher_with(detector);
        session_v
            .handle_message(session_a.poll_transmit().expect("challenge"))
            .expect("challenge accepted");
        let wave_a = session_a.playback_waveform().expect("S_A");
        let wave_v = session_v.playback_waveform().expect("S_V");
        let record = |(at_a, gain_a): (usize, f64), (at_v, gain_v): (usize, f64)| {
            let mut rec = vec![0.0; 16_384];
            for (i, (&a, &v)) in wave_a.iter().zip(&wave_v).enumerate() {
                rec[at_a + i] += a * gain_a;
                rec[at_v + i] += v * gain_v;
            }
            rec
        };
        let _ = session_v.push_audio(&record((2_000, 0.3), (7_871, 0.4)));
        let _ = session_v.finish_audio();
        let _ = session_a.push_audio(&record((2_000, 0.4), (8_000, 0.3)));
        let _ = session_a.finish_audio();
        let _ = session_a
            .handle_message(session_v.poll_transmit().expect("report"))
            .expect("report accepted");
        let expected = crate::ranging::estimate_distance(
            &crate::ranging::LocationDiffs {
                auth_diff_samples: 6_000.0,
                vouch_diff_samples: 5_871.0,
            },
            config.sample_rate,
            config.sample_rate,
            config.assumed_speed_of_sound,
        );
        match session_a.estimate() {
            Some(DistanceEstimate::Measured(d)) => {
                assert!(
                    (d - expected).abs() < 0.1,
                    "seed {seed}: {d} m vs {expected} m"
                );
            }
            other => panic!("seed {seed}: expected a measured distance, got {other:?}"),
        }
    }

    #[test]
    fn measures_distance_in_quiet_room() {
        let (mut field, mut link, registry, auth, vouch, mut rng) =
            setup(1.0, Environment::anechoic(), 42);
        let outcome = run_action(
            &ActionConfig::default(),
            &mut field,
            &mut link,
            &registry,
            &auth,
            &vouch,
            0.0,
            &mut rng,
        )
        .unwrap();
        let d = outcome.estimate.distance_m().expect("should measure");
        assert!(
            (d - 1.0).abs() < 0.15,
            "quiet-room estimate {d} m should be within 15 cm of truth"
        );
        assert!(outcome.diagnostics.locations_auth.is_some());
        assert!(outcome.diagnostics.locations_vouch.is_some());
        assert!(outcome.diagnostics.bluetooth_messages >= 2);
        assert!(outcome.diagnostics.ffts_auth > 50);
    }

    #[test]
    fn unpaired_devices_error() {
        let (mut field, mut link, _registry, auth, vouch, mut rng) =
            setup(1.0, Environment::anechoic(), 7);
        let empty = PairingRegistry::new();
        let err = run_action(
            &ActionConfig::default(),
            &mut field,
            &mut link,
            &empty,
            &auth,
            &vouch,
            0.0,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, PianoError::Bluetooth(_)));
    }

    #[test]
    fn beyond_bluetooth_range_errors() {
        let (mut field, mut link, registry, auth, vouch, mut rng) =
            setup(12.0, Environment::anechoic(), 8);
        let err = run_action(
            &ActionConfig::default(),
            &mut field,
            &mut link,
            &registry,
            &auth,
            &vouch,
            0.0,
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, PianoError::Bluetooth(_)));
    }

    #[test]
    fn far_apart_in_bluetooth_range_reports_absent() {
        // 6 m: within Bluetooth range but far beyond acoustic reach.
        let (mut field, mut link, registry, auth, vouch, mut rng) =
            setup(6.0, Environment::anechoic(), 9);
        let outcome = run_action(
            &ActionConfig::default(),
            &mut field,
            &mut link,
            &registry,
            &auth,
            &vouch,
            0.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.estimate, DistanceEstimate::SignalAbsent);
    }

    #[test]
    fn office_noise_still_measures_with_centimeter_error() {
        let (mut field, mut link, registry, auth, vouch, mut rng) =
            setup(0.5, Environment::office(), 10);
        let outcome = run_action(
            &ActionConfig::default(),
            &mut field,
            &mut link,
            &registry,
            &auth,
            &vouch,
            0.0,
            &mut rng,
        )
        .unwrap();
        let d = outcome.estimate.distance_m().expect("measured");
        assert!((d - 0.5).abs() < 0.3, "office estimate {d}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let (mut field, mut link, registry, auth, vouch, mut rng) =
                setup(1.5, Environment::home(), 77);
            run_action(
                &ActionConfig::default(),
                &mut field,
                &mut link,
                &registry,
                &auth,
                &vouch,
                0.0,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wall_between_devices_reports_absent() {
        let (mut field, mut link, registry, auth, vouch, mut rng) =
            setup(1.0, Environment::anechoic(), 11);
        field.add_wall(piano_acoustics::Wall::at_x(0.5));
        let outcome = run_action(
            &ActionConfig::default(),
            &mut field,
            &mut link,
            &registry,
            &auth,
            &vouch,
            0.0,
            &mut rng,
        )
        .unwrap();
        assert_eq!(outcome.estimate, DistanceEstimate::SignalAbsent);
    }

    #[test]
    fn invalid_config_is_rejected_before_any_io() {
        let (mut field, mut link, registry, auth, vouch, mut rng) =
            setup(1.0, Environment::anechoic(), 12);
        let cfg = ActionConfig {
            fine_step: 0,
            ..ActionConfig::default()
        };
        let err = run_action(
            &cfg, &mut field, &mut link, &registry, &auth, &vouch, 0.0, &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, PianoError::InvalidConfig(_)));
        assert_eq!(link.message_count(), 0);
    }
}
