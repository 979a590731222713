//! The PIANO authenticator.
//!
//! Paper Sec. IV, authentication phase: "PIANO first checks whether the
//! vouching device is still paired with the authenticating device via
//! Bluetooth. If not … PIANO rejects the access; otherwise PIANO estimates
//! the distance between the two devices using … ACTION. If the estimated
//! distance is no larger than the authentication threshold, the access is
//! granted, otherwise it is rejected."
//!
//! The threshold τ is user-selected — the *personalizable* property: "they
//! can set the authentication threshold to be 0.5 meter if they are in an
//! environment where 1 meter is too long to be safe."

use rand_chacha::ChaCha8Rng;

use piano_bluetooth::{BluetoothLink, LinkKey};

use crate::action::ActionOutcome;
use crate::config::ActionConfig;
use crate::detect::Detector;
use crate::device::Device;
use crate::stream::AuthService;

/// PIANO's authenticator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PianoConfig {
    /// The authentication threshold τ in meters. Paper default scenarios
    /// use 0.5–2.0 m; 1.0 m is the headline operating point.
    pub threshold_m: f64,
    /// Configuration of the underlying ACTION protocol.
    pub action: ActionConfig,
}

impl Default for PianoConfig {
    fn default() -> Self {
        PianoConfig {
            threshold_m: 1.0,
            action: ActionConfig::default(),
        }
    }
}

impl PianoConfig {
    /// A config with a custom threshold and default ACTION parameters.
    pub fn with_threshold(threshold_m: f64) -> Self {
        PianoConfig {
            threshold_m,
            ..Default::default()
        }
    }
}

/// Why an authentication attempt was denied.
#[derive(Clone, Debug, PartialEq)]
pub enum DenialReason {
    /// The devices were never paired (registration has not run).
    NotPaired,
    /// The Bluetooth link is unreachable — out of radio range.
    BluetoothUnreachable,
    /// A reference signal was not present in a recording: the devices are
    /// beyond acoustic range, separated by a wall, or a spoofing defense
    /// fired.
    SignalAbsent,
    /// The measured distance exceeds the threshold.
    TooFar {
        /// The measured distance in meters.
        distance_m: f64,
    },
    /// The protocol failed for an internal reason (malformed message —
    /// impossible between honest devices, but surfaced rather than hidden).
    ProtocolFailure(String),
}

/// The authentication verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum AuthDecision {
    /// Access granted; the measured distance is attached.
    Granted {
        /// The measured distance in meters.
        distance_m: f64,
    },
    /// Access denied.
    Denied {
        /// Why.
        reason: DenialReason,
    },
}

impl AuthDecision {
    /// Whether access was granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, AuthDecision::Granted { .. })
    }
}

/// The single-pair PIANO authenticator.
///
/// Since the streaming redesign this is a thin compatibility wrapper over
/// the multi-tenant [`AuthService`]: it keeps the familiar one-pair
/// surface (register, personalize the threshold) while attempts run
/// through [`AuthService::authenticate_pair`] on
/// [`as_service_mut`](Self::as_service_mut) and the protocol itself runs through the sans-IO [`crate::stream::AuthSession`]
/// state machines. New code should use [`AuthService`] directly — it
/// multiplexes many pairs, shares detectors across configurations, and
/// exposes the streaming entry points.
#[derive(Debug)]
pub struct PianoAuthenticator {
    service: AuthService,
}

impl PianoAuthenticator {
    /// Creates an authenticator with no bonds.
    ///
    /// # Panics
    ///
    /// Panics if `config.action` fails [`ActionConfig::validate`].
    pub fn new(config: PianoConfig) -> Self {
        PianoAuthenticator {
            service: AuthService::new(config),
        }
    }

    /// The ACTION detector this authenticator reuses across attempts.
    pub fn detector(&self) -> &Detector {
        self.service.detector()
    }

    /// The configuration in force.
    pub fn config(&self) -> &PianoConfig {
        self.service.config()
    }

    /// Updates the authentication threshold (the *personalizable* knob).
    pub fn set_threshold_m(&mut self, threshold_m: f64) {
        self.service.set_threshold_m(threshold_m);
    }

    /// Registration phase: pairs the two devices (once) and returns the
    /// minted link key.
    pub fn register(&mut self, a: &Device, b: &Device, rng: &mut ChaCha8Rng) -> LinkKey {
        self.service.register(a, b, rng)
    }

    /// Whether two devices are bonded.
    pub fn is_registered(&self, a: &Device, b: &Device) -> bool {
        self.service.is_registered(a, b)
    }

    /// The Bluetooth link (for transfer accounting).
    pub fn link(&self) -> &BluetoothLink {
        self.service.link()
    }

    /// Diagnostics of the most recent ACTION run, if any reached Step III.
    pub fn last_outcome(&self) -> Option<&ActionOutcome> {
        self.service.last_outcome()
    }

    /// The underlying multi-tenant service — the migration hook for code
    /// moving off this wrapper.
    pub fn as_service_mut(&mut self) -> &mut AuthService {
        &mut self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piano_acoustics::{AcousticField, Environment, Position};
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn devices(d: f64) -> (Device, Device) {
        (
            Device::phone(1, Position::ORIGIN, 100),
            Device::phone(2, Position::new(d, 0.0, 0.0), 200),
        )
    }

    #[test]
    fn close_devices_are_granted() {
        let mut auth = AuthService::new(PianoConfig::default());
        let (a, v) = devices(0.5);
        let mut r = rng(1);
        auth.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::office(), 1);
        let decision = auth.authenticate_pair(&mut field, &a, &v, 0.0, &mut r);
        match decision {
            AuthDecision::Granted { distance_m } => {
                assert!((distance_m - 0.5).abs() < 0.3, "distance {distance_m}")
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(auth.last_outcome().is_some());
    }

    #[test]
    fn unregistered_devices_are_denied_without_protocol() {
        let mut auth = AuthService::new(PianoConfig::default());
        let (a, v) = devices(0.5);
        let mut field = AcousticField::new(Environment::office(), 2);
        let decision = auth.authenticate_pair(&mut field, &a, &v, 0.0, &mut rng(2));
        assert_eq!(
            decision,
            AuthDecision::Denied {
                reason: DenialReason::NotPaired
            }
        );
        assert_eq!(
            auth.link().message_count(),
            0,
            "no radio traffic before pairing"
        );
    }

    #[test]
    fn beyond_bluetooth_is_denied_immediately() {
        let mut auth = AuthService::new(PianoConfig::default());
        let (a, v) = devices(15.0);
        let mut r = rng(3);
        auth.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::office(), 3);
        let decision = auth.authenticate_pair(&mut field, &a, &v, 0.0, &mut r);
        assert_eq!(
            decision,
            AuthDecision::Denied {
                reason: DenialReason::BluetoothUnreachable
            }
        );
    }

    #[test]
    fn beyond_acoustic_range_is_denied_as_absent() {
        let mut auth = AuthService::new(PianoConfig::default());
        let (a, v) = devices(7.0);
        let mut r = rng(4);
        auth.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::office(), 4);
        let decision = auth.authenticate_pair(&mut field, &a, &v, 0.0, &mut r);
        assert_eq!(
            decision,
            AuthDecision::Denied {
                reason: DenialReason::SignalAbsent
            }
        );
    }

    #[test]
    fn measured_distance_above_threshold_is_too_far() {
        // 2 m apart with a 1 m threshold: measured, then rejected.
        let mut auth = AuthService::new(PianoConfig::with_threshold(1.0));
        let (a, v) = devices(2.0);
        let mut r = rng(5);
        auth.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::anechoic(), 5);
        let decision = auth.authenticate_pair(&mut field, &a, &v, 0.0, &mut r);
        match decision {
            AuthDecision::Denied {
                reason: DenialReason::TooFar { distance_m },
            } => {
                assert!((distance_m - 2.0).abs() < 0.3, "distance {distance_m}")
            }
            other => panic!("expected TooFar, got {other:?}"),
        }
    }

    #[test]
    fn threshold_is_personalizable() {
        // The same 2 m geometry granted once τ is raised.
        let mut auth = AuthService::new(PianoConfig::with_threshold(1.0));
        let (a, v) = devices(2.0);
        let mut r = rng(6);
        auth.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::anechoic(), 6);
        assert!(!auth
            .authenticate_pair(&mut field, &a, &v, 0.0, &mut r)
            .is_granted());
        auth.set_threshold_m(2.5);
        let mut field2 = AcousticField::new(Environment::anechoic(), 7);
        assert!(auth
            .authenticate_pair(&mut field2, &a, &v, 100.0, &mut r)
            .is_granted());
    }

    #[test]
    fn wall_separation_is_denied() {
        let mut auth = AuthService::new(PianoConfig::default());
        let (a, v) = devices(0.8);
        let mut r = rng(7);
        auth.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::office(), 8);
        field.add_wall(piano_acoustics::Wall::at_x(0.4));
        let decision = auth.authenticate_pair(&mut field, &a, &v, 0.0, &mut r);
        assert_eq!(
            decision,
            AuthDecision::Denied {
                reason: DenialReason::SignalAbsent
            }
        );
    }

    /// The wrapper's registration and diagnostics delegate to its
    /// service: an attempt through it decides exactly like a bare one.
    #[test]
    fn wrapper_decides_like_a_bare_service() {
        let (a, v) = devices(0.5);

        let mut shim = PianoAuthenticator::new(PianoConfig::default());
        let mut r = rng(9);
        shim.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::office(), 9);
        let shim_decision = shim
            .as_service_mut()
            .authenticate_pair(&mut field, &a, &v, 0.0, &mut r);

        let mut service = AuthService::new(PianoConfig::default());
        let mut r = rng(9);
        service.register(&a, &v, &mut r);
        let mut field = AcousticField::new(Environment::office(), 9);
        let service_decision = service.authenticate_pair(&mut field, &a, &v, 0.0, &mut r);

        assert_eq!(shim_decision, service_decision);
        assert!(shim_decision.is_granted());
        assert_eq!(shim.last_outcome(), service.last_outcome());
        assert!(shim.last_outcome().is_some());
    }
}
