//! Cross-crate determinism: every layer of the stack must be bit-for-bit
//! reproducible from its seeds, because the evaluation's scientific claim
//! ("these numbers regenerate") depends on it.

use piano::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn acoustic_render_is_reproducible() {
    let render = || {
        let mut field = AcousticField::new(Environment::restaurant(), 404);
        let device = Device::phone(1, Position::ORIGIN, 405);
        let mut rng = ChaCha8Rng::seed_from_u64(406);
        let wave = piano::dsp::tone::sine(14_000.0, 0.0, 2_000.0, 44_100.0, 4_096);
        device.play(&mut field, &wave, 0.1, 44_100.0, &mut rng);
        let (rec, _) = Device::phone(2, Position::new(1.0, 0.0, 0.0), 407)
            .record(&mut field, 0.0, 0.5, 44_100.0, &mut rng);
        rec
    };
    assert_eq!(render(), render());
}

#[test]
fn signal_generation_is_reproducible_and_seed_sensitive() {
    let config = ActionConfig::default();
    let gen = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ReferenceSignal::random(&config, &mut rng)
    };
    assert_eq!(gen(9), gen(9));
    assert_ne!(gen(9), gen(10));
}

#[test]
fn trial_harness_is_reproducible_across_parallelism() {
    use piano::eval::trials::{run_trial, run_trials, TrialSetup};
    let setup = TrialSetup::new(Environment::street(), 1.2, 0x5EED);
    let parallel = run_trials(&setup, 6);
    let sequential: Vec<_> = (0..6).map(|i| run_trial(&setup, i as u64)).collect();
    assert_eq!(parallel, sequential);
}

#[test]
fn experiment_results_are_reproducible() {
    let a = piano::eval::fig1::run(2, 77);
    let b = piano::eval::fig1::run(2, 77);
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.mean_abs_error_m.to_bits(), y.mean_abs_error_m.to_bits());
        assert_eq!(x.absent, y.absent);
    }
}

#[test]
fn sparse_detection_lands_on_the_dense_windows() {
    use piano::core::detect::{ScanMode, SignalSignature};
    use piano::core::Detector;

    let config = ActionConfig::default();
    let detector = Detector::new(&config);
    let mut rng = ChaCha8Rng::seed_from_u64(0xACED);
    let sa = ReferenceSignal::random(&config, &mut rng);
    let sv = ReferenceSignal::random(&config, &mut rng);
    let mut recording = vec![0.0; config.recording_len()];
    for (i, &v) in sa.waveform().iter().enumerate() {
        recording[17_001 + i] += 0.3 * v;
    }
    for (i, &v) in sv.waveform().iter().enumerate() {
        recording[52_424 + i] += 0.25 * v;
    }
    let siga = SignalSignature::of(&sa, &config);
    let sigv = SignalSignature::of(&sv, &config);

    // The sparse fine scan (the default here: rectangular analysis window)
    // must land on the same windows as the dense reference path, and do so
    // identically on every run.
    let sparse = detector.detect_many(&recording, &[&siga, &sigv]);
    assert_eq!(sparse, detector.detect_many(&recording, &[&siga, &sigv]));
    let dense = detector.detect_many_mode(&recording, &[&siga, &sigv], ScanMode::Dense);
    assert_eq!(dense.ffts_used, sparse.ffts_used);
    for (d, s) in dense.detections.iter().zip(&sparse.detections) {
        assert_eq!(d.location(), s.location());
    }
}

#[test]
fn attack_batches_are_reproducible() {
    use piano::attacks::{run_trials, AttackKind};
    let run = || {
        run_trials(
            AttackKind::GuessingReplay,
            &Environment::office(),
            6.0,
            2,
            0xD00F,
        )
    };
    assert_eq!(run(), run());
}
