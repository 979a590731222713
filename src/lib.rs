//! # PIANO — Proximity-based User Authentication on Voice-Powered IoT Devices
//!
//! A full Rust reproduction of *Gong et al., ICDCS 2017*
//! (arXiv:1704.03118): proximity-based user authentication built on
//! **ACTION**, a secure two-way acoustic ranging protocol using
//! frequency-domain randomized reference signals.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`piano_core`] — the protocol itself: reference signals, the
//!   frequency-based detector (Algorithms 1 & 2), two-way ranging (Eq. 3),
//!   the streaming session API (the sans-IO `AuthSession` state machine
//!   and the multi-tenant `AuthService`) and the FRR/FAR model.
//! * [`piano_acoustics`] — the simulated physical layer: propagation,
//!   environments, device hardware, clocks, energy/timing cost models.
//! * [`piano_bluetooth`] — pairing and the range-gated secure channel.
//! * [`piano_attacks`] — the paper's threat models (zero-effort, guessing
//!   replay, all-frequency spoofing) and the guessing analysis.
//! * [`piano_baselines`] — ACTION-CC and Echo-Secure (Fig. 2b), plus an
//!   ambience comparator.
//! * [`piano_eval`] — experiment harness regenerating every table/figure.
//! * [`piano_net`] — the transport subsystem: byte-stream transports
//!   (in-memory duplex + loopback TCP), the readiness-reactor gateway
//!   `ReactorServer` (phase deadlines, suspend/resume, overload
//!   shedding, standing re-challenge rounds), the credit-paced client
//!   `FeedHandle` with its reconnect-and-resume `ResilientFeed` wrapper,
//!   the seeded fault-injection `FaultyTransport`, and the i16 delta PCM
//!   codec layer.
//!
//! # Quickstart
//!
//! ```
//! use piano::prelude::*;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//!
//! // A user's smartwatch vouches for their phone.
//! let phone = Device::phone(1, Position::ORIGIN, 11);
//! let watch = Device::phone(2, Position::new(0.4, 0.0, 0.0), 22);
//!
//! let mut service = AuthService::new(PianoConfig::default());
//! service.register(&phone, &watch, &mut rng); // once, at setup
//!
//! let mut office = AcousticField::new(Environment::office(), 7);
//! let decision = service.authenticate_pair(&mut office, &phone, &watch, 0.0, &mut rng);
//! assert!(decision.is_granted());
//! ```

#![forbid(unsafe_code)]

pub use piano_acoustics as acoustics;
pub use piano_attacks as attacks;
pub use piano_baselines as baselines;
pub use piano_bluetooth as bluetooth;
pub use piano_core as core;
pub use piano_dsp as dsp;
pub use piano_eval as eval;
pub use piano_net as net;

/// The names most programs need, in one import.
pub mod prelude {
    pub use piano_acoustics::{
        AcousticField, AudioBuffer, DeviceClock, Environment, MicrophoneModel, Position,
        SpeakerModel, Wall,
    };
    pub use piano_bluetooth::{BluetoothLink, DeviceId, PairingRegistry};
    pub use piano_core::action::{run_action, run_session_pair, ActionOutcome, DistanceEstimate};
    pub use piano_core::config::ActionConfig;
    pub use piano_core::continuum::{Continuum, RiskPolicy, StandingKey, StandingState};
    pub use piano_core::device::Device;
    pub use piano_core::piano::{AuthDecision, DenialReason, PianoAuthenticator, PianoConfig};
    pub use piano_core::signal::{ReferenceSignal, SignalSampler};
    pub use piano_core::stream::{
        AuthService, AuthSession, SessionEvent, SessionId, SessionPhase, ShardedAuthService,
        StreamingDetector,
    };
    pub use piano_core::stream::{DropCause, DropCounts, ServiceStats};
    pub use piano_core::wire::{FrameReader, IngestFeed, Message, WireCodec};
    pub use piano_dsp::simd::DspBackend;
    pub use piano_net::{
        FaultPlan, FaultyTransport, FeedHandle, ReactorServer, ResilientFeed, RetryPolicy,
        ServerConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let _ = Position::ORIGIN;
        let _ = PianoConfig::default();
        let _ = ActionConfig::default();
    }
}
