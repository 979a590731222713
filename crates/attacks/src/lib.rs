//! # piano-attacks
//!
//! Attacker models from the paper's threat model (Sec. III) and spoofing
//! analysis (Sec. V), implemented against the full simulated stack:
//!
//! * [`zero_effort`] — the attacker simply tries to use the authenticating
//!   device while the legitimate user is away. Success requires the
//!   distance estimator to err across the threshold.
//! * [`replay`] — **guessing-based replay**: the attacker synthesizes
//!   reference signals with the same construction algorithm and plays them
//!   near the authenticating and/or vouching device, timed to fake a small
//!   distance. Succeeds only if both frequency-set guesses are exactly
//!   right.
//! * [`all_freq`] — **all-frequency spoofing**: a sine at every candidate
//!   frequency, played throughout the authentication. Defeated by the β
//!   sanity check of Algorithm 2 for any attacker power (the case analysis
//!   of Sec. V).
//! * [`analysis`] — the guessing-success probability, exact and Monte
//!   Carlo, for both signal samplers; quantifies the gap between the
//!   paper's two-stage construction and its `1/2^(N+1)` claim
//!   (experiment E10; derived in the `piano_core::signal` module docs).
//! * [`harness`] — batch attack trials with outcome accounting, used by the
//!   security experiment (E9: 100 + 100 trials, 0 successes).

#![forbid(unsafe_code)]

pub mod all_freq;
pub mod analysis;
pub mod harness;
pub mod replay;
pub mod zero_effort;

pub use harness::{run_trials, AttackKind, AttackOutcome, AttackStats};
