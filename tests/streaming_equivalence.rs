//! Property: feeding ANY chunking of a recording through
//! `StreamingDetector` yields exactly the `Detection` (location, power,
//! decision) — and the same work accounting — as `Detector::detect` on the
//! full buffer, for one signature or for both of a session's (`S_A` +
//! `S_V`), with every provisional event mirrored in the scan's early state.
//!
//! This is the contract the streaming session API is built on: sans-IO
//! sessions conclude with offline-equivalent results no matter how the
//! host's audio callback slices the stream.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use piano::core::config::ActionConfig;
use piano::core::detect::{Detector, SignalSignature};
use piano::core::signal::ReferenceSignal;
use piano::core::stream::{EarlyDetection, StreamEvent, StreamingDetector};

/// Builds a deterministic recording: optional embedded signals (each at
/// its offset and gain) plus mild deterministic noise, so cases cover
/// found/absent/below-threshold.
fn build_recording(
    cfg: &ActionConfig,
    signals: &[(&ReferenceSignal, usize, f64)],
    len: usize,
    noise_amp: f64,
    noise_seed: u64,
) -> Vec<f64> {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(noise_seed);
    let mut rec: Vec<f64> = (0..len)
        .map(|_| rng.gen_range(-1.0..1.0) * noise_amp)
        .collect();
    for &(signal, offset, gain) in signals {
        if gain > 0.0 && len >= cfg.signal_len {
            let offset = offset.min(len - cfg.signal_len);
            for (i, &v) in signal.waveform().iter().enumerate() {
                rec[offset + i] += v * gain;
            }
        }
    }
    rec
}

/// Feeds `rec` through a streaming scan using `chunks` cyclically for the
/// split sizes (uneven tail included), then finishes. Checks on the way
/// that each signature raises at most one provisional event, at the
/// stream position it reports, and that the scan's early state records
/// exactly the events it raised.
fn stream_result(
    detector: &Arc<Detector>,
    sigs: &[SignalSignature],
    rec: &[f64],
    chunks: &[usize],
) -> piano::core::detect::ScanResult {
    let mut s = StreamingDetector::new(Arc::clone(detector), sigs.to_vec());
    let mut early: Vec<Option<EarlyDetection>> = vec![None; sigs.len()];
    let mut pos = 0usize;
    let mut k = 0usize;
    while pos < rec.len() {
        let take = chunks[k % chunks.len()].clamp(1, rec.len() - pos);
        for ev in s.push(&rec[pos..pos + take]) {
            let StreamEvent::EarlyDetection {
                signature,
                detection,
                samples_consumed,
            } = ev;
            assert_eq!(samples_consumed, pos + take);
            assert!(detection.is_found());
            assert!(
                early[signature].is_none(),
                "signature {signature} fired twice"
            );
            early[signature] = Some(EarlyDetection {
                detection,
                samples_consumed,
            });
        }
        pos += take;
        k += 1;
    }
    for (i, e) in early.iter().enumerate() {
        assert_eq!(s.early_detection(i), e.as_ref(), "signature {i}");
    }
    s.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_chunking_matches_offline_detection(
        // Chunk sizes 1..4096, arbitrary uneven pattern cycled over the stream.
        chunks in proptest::collection::vec(1usize..4096, 1..6),
        len in 3000usize..24_000,
        offset_frac in 0.0f64..1.0,
        gain_sel in 0usize..4,
        sig_seed in 0u64..1_000,
        // Also scan for a second signal `S_V`, half a recording from `S_A`.
        two_sigs in any::<bool>(),
    ) {
        let cfg = ActionConfig::default();
        let detector = Arc::new(Detector::new(&cfg));
        let sa = ReferenceSignal::random(&cfg, &mut ChaCha8Rng::seed_from_u64(sig_seed));
        let sv = ReferenceSignal::random(&cfg, &mut ChaCha8Rng::seed_from_u64(sig_seed ^ 0x5A5A));
        // 0: absent, 1: below the α floor, 2: borderline, 3: clean.
        let gain = [0.0, 0.05, 0.12, 0.4][gain_sel];
        let offset_a = ((len as f64) * offset_frac) as usize;
        let offset_v = ((len as f64) * ((offset_frac + 0.5) % 1.0)) as usize;
        let mut signals = vec![(&sa, offset_a, gain)];
        if two_sigs {
            signals.push((&sv, offset_v, gain));
        }
        let rec = build_recording(&cfg, &signals, len, 0.01, sig_seed ^ 0xA5);
        let sigs: Vec<SignalSignature> = signals
            .iter()
            .map(|&(signal, _, _)| SignalSignature::of(signal, &cfg))
            .collect();

        let offline = detector.detect_many(&rec, &sigs.iter().collect::<Vec<_>>());
        let streamed = stream_result(&detector, &sigs, &rec, &chunks);
        prop_assert_eq!(streamed, offline);
    }

    #[test]
    fn single_sample_chunking_matches_offline(
        len in 4096usize..9000,
        sig_seed in 0u64..100,
    ) {
        // The pathological 1-sample split, on short recordings to keep the
        // case affordable.
        let cfg = ActionConfig::default();
        let detector = Arc::new(Detector::new(&cfg));
        let signal = ReferenceSignal::random(&cfg, &mut ChaCha8Rng::seed_from_u64(sig_seed));
        let signature = SignalSignature::of(&signal, &cfg);
        let rec = build_recording(&cfg, &[(&signal, len / 3, 0.3)], len, 0.005, sig_seed);

        let offline = detector.detect_many(&rec, &[&signature]);
        let streamed = stream_result(&detector, &[signature], &rec, &[1]);
        prop_assert_eq!(streamed, offline);
    }
}
