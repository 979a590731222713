//! Trial runner: one authenticated ranging attempt per trial, optionally
//! with interfering PIANO users, parallelized and deterministic.
//!
//! Trials drive the streaming session API
//! ([`piano_core::run_session_pair`]): each attempt wires a pair of
//! sans-IO `AuthSession` state machines to the simulated substrates, and a
//! batch shares one `Arc<Detector>` across all of its worker threads, so
//! FFT plans and window tables are built once per [`TrialSetup`] rather
//! than once per trial.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use piano_acoustics::field::Emission;
use piano_acoustics::{AcousticField, Environment, Position};
use piano_bluetooth::{BluetoothLink, PairingRegistry};
use piano_core::action::{run_session_pair, ActionOutcome, DistanceEstimate};
use piano_core::config::ActionConfig;
use piano_core::detect::Detector;
use piano_core::device::Device;
use piano_core::signal::ReferenceSignal;

/// Configuration of a batch of ranging trials.
#[derive(Clone, Debug)]
pub struct TrialSetup {
    /// ACTION configuration (usually [`ActionConfig::default`]).
    pub action: ActionConfig,
    /// Acoustic environment.
    pub environment: Environment,
    /// True distance between the devices (m).
    pub distance_m: f64,
    /// Number of *other* PIANO user pairs running concurrently (Fig. 2a
    /// uses 2, i.e. three users total).
    pub interferer_pairs: usize,
    /// Base seed; trial `i` derives all its randomness from it.
    pub base_seed: u64,
}

impl TrialSetup {
    /// A plain single-user setup.
    pub fn new(environment: Environment, distance_m: f64, base_seed: u64) -> Self {
        TrialSetup {
            action: ActionConfig::default(),
            environment,
            distance_m,
            interferer_pairs: 0,
            base_seed,
        }
    }

    /// Enables `pairs` interfering user pairs, returning the setup.
    #[must_use]
    pub fn with_interferers(mut self, pairs: usize) -> Self {
        self.interferer_pairs = pairs;
        self
    }
}

/// The outcome of one ranging trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Ground-truth distance (m).
    pub true_distance_m: f64,
    /// ACTION's estimate, or `None` when a signal was declared absent.
    pub estimate_m: Option<f64>,
}

impl TrialOutcome {
    /// Absolute error in meters, when measured.
    pub fn abs_error_m(&self) -> Option<f64> {
        self.estimate_m.map(|e| (e - self.true_distance_m).abs())
    }

    /// Signed error in meters, when measured.
    pub fn signed_error_m(&self) -> Option<f64> {
        self.estimate_m.map(|e| e - self.true_distance_m)
    }
}

/// Runs a single trial (deterministic in `(setup.base_seed, index)`).
pub fn run_trial(setup: &TrialSetup, index: u64) -> TrialOutcome {
    run_trial_detailed(setup, index).0
}

/// Like [`run_trial`] but also returns the protocol diagnostics (used by
/// the efficiency experiment).
pub fn run_trial_detailed(setup: &TrialSetup, index: u64) -> (TrialOutcome, Option<ActionOutcome>) {
    let detector = Arc::new(Detector::new(&setup.action));
    run_trial_with_detector(setup, index, &detector)
}

/// [`run_trial_detailed`] against a caller-shared detector — the batch
/// runner amortizes one detector across every worker this way.
fn run_trial_with_detector(
    setup: &TrialSetup,
    index: u64,
    detector: &Arc<Detector>,
) -> (TrialOutcome, Option<ActionOutcome>) {
    let seed = setup
        .base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x0123_4567_89AB_CDEF) ^ index);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut field = AcousticField::new(setup.environment.clone(), seed ^ 0x00FF_00FF);
    let mut link = BluetoothLink::new();
    let mut registry = PairingRegistry::new();
    let auth = Device::phone(1, Position::ORIGIN, seed.wrapping_add(0xA));
    let vouch = Device::phone(
        2,
        Position::new(setup.distance_m, 0.0, 0.0),
        seed.wrapping_add(0xB),
    );
    registry.pair(auth.id, vouch.id, &mut rng);

    // Interfering PIANO users: each pair plays its own randomized signals
    // on its own schedule, launched "at close times" (Sec. VI-B2).
    let mut int_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1111_2222_3333_4444);
    for p in 0..setup.interferer_pairs {
        inject_interferer_pair(&mut field, &setup.action, p, &mut int_rng);
    }

    let outcome = run_session_pair(
        detector, &mut field, &mut link, &registry, &auth, &vouch, 0.0, &mut rng,
    );
    match outcome {
        Ok(outcome) => {
            let estimate_m = match outcome.estimate {
                DistanceEstimate::Measured(d) => Some(d),
                DistanceEstimate::SignalAbsent => None,
            };
            (
                TrialOutcome {
                    true_distance_m: setup.distance_m,
                    estimate_m,
                },
                Some(outcome),
            )
        }
        Err(_) => (
            TrialOutcome {
                true_distance_m: setup.distance_m,
                estimate_m: None,
            },
            None,
        ),
    }
}

/// Emits the playback of one interfering PIANO pair: two devices ~1 m
/// apart, offset laterally from the measured pair, playing their own two
/// randomized reference signals on the standard schedule with a random
/// session start within ±0.4 s of ours.
fn inject_interferer_pair(
    field: &mut AcousticField,
    config: &ActionConfig,
    pair_index: usize,
    rng: &mut ChaCha8Rng,
) {
    // Other users sit at desk distances in the shared office (2.5 m and
    // 4 m away), not shoulder-to-shoulder.
    let y = 2.5 + pair_index as f64 * 1.5;
    let pos_a = Position::new(0.2, y, 0.0);
    let pos_v = Position::new(1.2, y, 0.0);
    let speaker_a = piano_acoustics::SpeakerModel::phone(rng.gen());
    let speaker_v = piano_acoustics::SpeakerModel::phone(rng.gen());
    let sa = ReferenceSignal::random(config, rng);
    let sv = ReferenceSignal::random(config, rng);
    // "At close times" (Sec. VI-B2): the concurrent sessions start within
    // about a second of ours. Signals are 93 ms long, so overlaps are
    // possible but not the norm — the paper observed 3 suppressed trials
    // in 40.
    let session_start = 0.035 + rng.gen_range(-2.0..2.0);
    let latency = piano_acoustics::latency::LatencyModel::phone();
    let start_a = session_start + config.play_offset_auth_s + latency.sample_playback(rng);
    let start_v = session_start + config.play_offset_vouch_s + latency.sample_playback(rng);
    field.emit(Emission {
        waveform: speaker_a.radiate(&sa.waveform(), config.sample_rate),
        start_world_s: start_a,
        sample_interval_s: 1.0 / config.sample_rate,
        position: pos_a,
    });
    field.emit(Emission {
        waveform: speaker_v.radiate(&sv.waveform(), config.sample_rate),
        start_world_s: start_v,
        sample_interval_s: 1.0 / config.sample_rate,
        position: pos_v,
    });
}

/// Runs `n` trials, parallelized across one worker thread per available
/// core; results are in trial-index order and identical to a sequential
/// run.
pub fn run_trials(setup: &TrialSetup, n: usize) -> Vec<TrialOutcome> {
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    // One detector serves every worker: it is `Sync`, and sharing it means
    // plan construction happens once per batch, not once per trial.
    let detector = Arc::new(Detector::new(&setup.action));
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Dynamic work stealing over trial indices; each worker tags outcomes
    // with their index so the merge restores trial order exactly.
    let partials: Vec<Vec<(usize, TrialOutcome)>> = std::thread::scope(|scope| {
        let next = &next;
        let detector = &detector;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, run_trial_with_detector(setup, i as u64, detector).0));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });
    let mut results: Vec<Option<TrialOutcome>> = vec![None; n];
    for (i, outcome) in partials.into_iter().flatten() {
        results[i] = Some(outcome);
    }
    results
        .into_iter()
        .map(|r| r.expect("every trial slot filled"))
        .collect()
}

/// Summary statistics over a batch of trial outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrialStats {
    /// Trials where a distance was measured.
    pub measured: usize,
    /// Trials where a signal was declared absent.
    pub absent: usize,
    /// Mean absolute error over measured trials (m).
    pub mean_abs_error_m: f64,
    /// Standard deviation of the signed error (m).
    pub error_std_m: f64,
    /// Mean signed error (bias) over measured trials (m).
    pub bias_m: f64,
}

impl TrialStats {
    /// Computes statistics for a batch.
    pub fn of(outcomes: &[TrialOutcome]) -> Self {
        let errors: Vec<f64> = outcomes
            .iter()
            .filter_map(TrialOutcome::signed_error_m)
            .collect();
        let absent = outcomes.len() - errors.len();
        if errors.is_empty() {
            return TrialStats {
                absent,
                ..Default::default()
            };
        }
        let summary = piano_dsp::stats::Summary::of(&errors);
        let mae = errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64;
        TrialStats {
            measured: errors.len(),
            absent,
            mean_abs_error_m: mae,
            error_std_m: summary.std,
            bias_m: summary.mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_setup() -> TrialSetup {
        TrialSetup::new(Environment::anechoic(), 1.0, 0xDEAD)
    }

    #[test]
    fn trials_are_deterministic_by_index() {
        let setup = quick_setup();
        assert_eq!(run_trial(&setup, 3), run_trial(&setup, 3));
        assert_ne!(run_trial(&setup, 3), run_trial(&setup, 4));
    }

    #[test]
    fn parallel_matches_sequential() {
        let setup = quick_setup();
        let parallel = run_trials(&setup, 4);
        let sequential: Vec<TrialOutcome> = (0..4).map(|i| run_trial(&setup, i as u64)).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn stats_handle_absent_and_measured() {
        let outcomes = vec![
            TrialOutcome {
                true_distance_m: 1.0,
                estimate_m: Some(1.05),
            },
            TrialOutcome {
                true_distance_m: 1.0,
                estimate_m: Some(0.95),
            },
            TrialOutcome {
                true_distance_m: 1.0,
                estimate_m: None,
            },
        ];
        let stats = TrialStats::of(&outcomes);
        assert_eq!(stats.measured, 2);
        assert_eq!(stats.absent, 1);
        assert!((stats.mean_abs_error_m - 0.05).abs() < 1e-12);
        assert!(stats.bias_m.abs() < 1e-12);
    }

    #[test]
    fn empty_batch_is_defined() {
        assert_eq!(run_trials(&quick_setup(), 0), Vec::new());
        let stats = TrialStats::of(&[]);
        assert_eq!(stats.measured, 0);
    }

    #[test]
    fn interferers_are_injected() {
        // With interferers the recording contains extra emissions; the
        // trial still completes (possibly absent, per the paper's 3/40).
        let setup = quick_setup().with_interferers(2);
        let outcome = run_trial(&setup, 1);
        assert_eq!(outcome.true_distance_m, 1.0);
    }
}
