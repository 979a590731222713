//! Step IV: the frequency-based signal detection algorithm.
//!
//! This module is the paper's Algorithms 1 and 2.
//!
//! * [`Detector::norm_power`] is **Algorithm 2** (`NormPower`): FFT the
//!   window, aggregate each candidate's power over `2θ+1` bins (the
//!   frequency-smoothing allowance), apply the two sanity checks —
//!   `P_f > α·R_f` for every chosen frequency and `P_f' < β` for every
//!   unchosen candidate — and return `Σ P_f − Σ P_f'`, or `−∞` if a check
//!   fails. The β check is what defeats all-frequency spoofing (Sec. V).
//! * [`Detector::detect_many`] is **Algorithm 1** with the prototype's
//!   "adapted step sizes" (Sec. VI-A): a coarse scan with step 1000 shared
//!   by both reference signals in a single pass, then a fine scan with
//!   step 10 around each coarse maximum. A signal whose best normalized
//!   power falls below `ε·R_S` is declared [`Detection::NotPresent`]
//!   (Algorithm 1 line 12, read as `ε·R_S`: the literal `P_max < R_S`
//!   would reject every recording, since received power is attenuated far
//!   below the emitted `R_S`).
//!
//! # Performance architecture
//!
//! The scan is the system's hottest loop, and it is engineered to run as
//! fast as the hardware allows:
//!
//! * **`Sync` detector** — [`Detector`] holds only immutable plan data
//!   (no interior mutability); every scan call owns its scratch buffers,
//!   so one detector serves any number of threads concurrently.
//! * **Real-input FFT windows** — dense window spectra run on
//!   [`piano_dsp::fft::RealFftPlan`] (half the butterflies of a padded
//!   complex transform).
//! * **Sparse fine scan** — with the paper's rectangular analysis window,
//!   the fine scan tracks only the `2θ+1` bins around each candidate with
//!   a [`piano_dsp::sparse::SlidingDft`]: shifting the window by
//!   `fine_step` samples costs `O(bins × step)` instead of a fresh
//!   `O(N log N)` transform. [`ScanMode`] selects the path; `Auto` (the
//!   default) uses it whenever the analysis window permits.
//! * **SIMD kernels** — every FFT, sliding-DFT, and Goertzel evaluation
//!   above dispatches through `piano_dsp::simd` (SSE2/AVX2/NEON,
//!   runtime-selected, `PIANO_DSP_SIMD` overridable). The detector needs
//!   no backend awareness: all backends are bit-identical to the scalar
//!   reference, so detections and decisions cannot depend on the CPU.

use piano_dsp::sparse::{GoertzelBank, SlidingDft};
use piano_dsp::spectrum::{band_power, SpectrumAnalyzer, SpectrumScratch};
use piano_dsp::window::WindowKind;

use crate::config::ActionConfig;
use crate::signal::ReferenceSignal;

/// Precomputed detection constants for one reference signal.
#[derive(Clone, Debug, PartialEq)]
pub struct SignalSignature {
    /// FFT bin index per chosen candidate (`F`).
    chosen_bins: Vec<usize>,
    /// FFT bin index per unchosen candidate (`F_R \ F`).
    other_bins: Vec<usize>,
    /// Per-tone reference power `R_f`.
    rf: f64,
    /// Total reference power `R_S`.
    rs: f64,
}

impl SignalSignature {
    /// Builds the signature of a reference signal under a configuration.
    pub fn of(signal: &ReferenceSignal, config: &ActionConfig) -> Self {
        let grid = signal.grid();
        let chosen_bins = signal
            .indices()
            .iter()
            .map(|&i| grid.fft_bin(i, config.sample_rate, config.signal_len))
            .collect();
        let other_bins = grid
            .complement(signal.indices())
            .iter()
            .map(|&i| grid.fft_bin(i, config.sample_rate, config.signal_len))
            .collect();
        SignalSignature {
            chosen_bins,
            other_bins,
            rf: signal.tone_power(),
            rs: signal.total_power(),
        }
    }

    /// Per-tone reference power `R_f`.
    pub fn rf(&self) -> f64 {
        self.rf
    }

    /// Total reference power `R_S`.
    pub fn rs(&self) -> f64 {
        self.rs
    }

    /// Number of chosen candidates.
    pub fn n_tones(&self) -> usize {
        self.chosen_bins.len()
    }

    /// FFT bin of every chosen candidate.
    pub fn chosen_bins(&self) -> &[usize] {
        &self.chosen_bins
    }

    /// FFT bin of every unchosen candidate.
    pub fn other_bins(&self) -> &[usize] {
        &self.other_bins
    }
}

/// Outcome of detecting one reference signal in a recording.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Detection {
    /// The signal was found starting at `location` (sample index), with the
    /// maximum normalized power attained there.
    Found {
        /// Sample index of the window where normalized power peaked.
        location: usize,
        /// The peak normalized power.
        norm_power: f64,
    },
    /// The signal is not present (the paper's `⊥`): every window failed the
    /// sanity checks or the maximum fell below `ε·R_S`.
    NotPresent,
}

impl Detection {
    /// The detected location, if any.
    pub fn location(&self) -> Option<usize> {
        match self {
            Detection::Found { location, .. } => Some(*location),
            Detection::NotPresent => None,
        }
    }

    /// Whether the signal was found.
    pub fn is_found(&self) -> bool {
        matches!(self, Detection::Found { .. })
    }
}

/// Result of a detection scan, including work accounting for the
/// timing/energy models.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanResult {
    /// Per-signature detection outcomes, in input order.
    pub detections: Vec<Detection>,
    /// Number of window spectral evaluations executed (dense FFTs plus
    /// sliding-DFT window updates; one per scanned window either way).
    pub ffts_used: usize,
}

/// Which spectral path the scan's fine pass uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Pick automatically: sparse whenever the analysis window is
    /// rectangular (the paper's configuration), dense otherwise.
    #[default]
    Auto,
    /// Dense real-FFT spectrum per window.
    Dense,
    /// Sliding sparse DFT over candidate-cluster bins (requires the
    /// rectangular analysis window).
    Sparse,
}

/// Sparse-scan layout for one signature: the sorted union of all cluster
/// bins plus each cluster's index range within it.
struct SparseClusters {
    bins: Vec<usize>,
    /// `bins[start..end]` per chosen cluster, in `chosen_bins` order.
    chosen: Vec<(usize, usize)>,
    /// `bins[start..end]` per unchosen cluster, in `other_bins` order.
    other: Vec<(usize, usize)>,
}

impl SparseClusters {
    fn build(sig: &SignalSignature, theta: usize, n: usize) -> Self {
        let cluster = |center: usize| {
            let lo = center.saturating_sub(theta);
            let hi = (center + theta).min(n - 1);
            (lo, hi)
        };
        let mut bins: Vec<usize> = Vec::new();
        for &c in sig.chosen_bins.iter().chain(&sig.other_bins) {
            let (lo, hi) = cluster(c);
            bins.extend(lo..=hi);
        }
        bins.sort_unstable();
        bins.dedup();
        let locate = |center: usize| {
            let (lo, hi) = cluster(center);
            let start = bins.partition_point(|&b| b < lo);
            let end = bins.partition_point(|&b| b <= hi);
            (start, end)
        };
        let chosen = sig.chosen_bins.iter().map(|&c| locate(c)).collect();
        let other = sig.other_bins.iter().map(|&c| locate(c)).collect();
        SparseClusters {
            bins,
            chosen,
            other,
        }
    }
}

/// The frequency-based signal detector.
///
/// Holds only immutable plan data, so it is `Send + Sync`: one detector
/// can be shared across authentication sessions and threads. The
/// analyzer (FFT plan + window tables) sits behind an `Arc`, so cloning a
/// detector is O(1) — clones share the plan memory.
#[derive(Debug, Clone)]
pub struct Detector {
    config: ActionConfig,
    analyzer: std::sync::Arc<SpectrumAnalyzer>,
}

impl Detector {
    /// Builds a detector for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails
    /// [`ActionConfig::validate`] — constructing a detector from an invalid
    /// configuration is a programming error.
    pub fn new(config: &ActionConfig) -> Self {
        config
            .validate()
            .expect("detector requires a valid configuration");
        Detector {
            config: config.clone(),
            analyzer: std::sync::Arc::new(SpectrumAnalyzer::new(
                config.signal_len,
                config.analysis_window,
            )),
        }
    }

    /// Computes the analysis power spectrum of one window exactly as the
    /// scanning loops do — exposed for diagnostics and tests.
    pub fn window_spectrum(&self, window: &[f64]) -> Vec<f64> {
        self.analyzer.power_spectrum(window)
    }

    /// The configuration this detector runs.
    pub fn config(&self) -> &ActionConfig {
        &self.config
    }

    /// Algorithm 2: the normalized power of a window's spectrum for one
    /// signature, or `−∞` if a sanity check fails.
    ///
    /// `spectrum` must be a full-length power spectrum of a
    /// `signal_len`-sample window (see [`piano_dsp::spectrum`]).
    pub fn norm_power(&self, spectrum: &[f64], sig: &SignalSignature) -> f64 {
        let theta = self.config.theta;
        let alpha_rf = self.config.alpha * sig.rf;
        let beta = self.config.beta_fraction * sig.rf;

        let mut sum_chosen = 0.0;
        for &bin in &sig.chosen_bins {
            let p = band_power(spectrum, bin, theta);
            if p <= alpha_rf {
                return f64::NEG_INFINITY;
            }
            sum_chosen += p;
        }
        let mut sum_other = 0.0;
        for &bin in &sig.other_bins {
            let p = band_power(spectrum, bin, theta);
            if self.config.enforce_beta_check && p >= beta {
                return f64::NEG_INFINITY;
            }
            sum_other += p;
        }
        sum_chosen - sum_other
    }

    /// Algorithm 2 evaluated sparsely: computes only the `2θ+1` bins
    /// around each candidate (via a Goertzel bank over the analysis-
    /// windowed samples) instead of materializing the full spectrum.
    ///
    /// Matches [`Self::norm_power`] of the same window's spectrum to
    /// floating-point rounding. One-shot convenience for diagnostics and
    /// few-bin workloads; the scan loops use the cheaper
    /// [`piano_dsp::sparse::SlidingDft`] incremental path.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != config.signal_len`.
    pub fn norm_power_sparse(&self, window: &[f64], sig: &SignalSignature) -> f64 {
        assert_eq!(
            window.len(),
            self.config.signal_len,
            "window length must match signal_len"
        );
        let clusters = SparseClusters::build(sig, self.config.theta, self.config.signal_len);
        let mut windowed = Vec::new();
        self.analyzer.apply_window(window, &mut windowed);
        let bank = GoertzelBank::new(self.config.signal_len, clusters.bins.clone());
        let mut powers = Vec::new();
        bank.powers_into(&windowed, &mut powers);
        self.norm_power_clustered(&powers, &clusters, sig)
    }

    /// Algorithm 2's checks and score over per-bin raw powers laid out by
    /// a [`SparseClusters`] plan.
    fn norm_power_clustered(
        &self,
        raw_powers: &[f64],
        clusters: &SparseClusters,
        sig: &SignalSignature,
    ) -> f64 {
        let n = self.config.signal_len as f64;
        let scale = (2.0 / n) * (2.0 / n) * self.analyzer.power_scale();
        let alpha_rf = self.config.alpha * sig.rf;
        let beta = self.config.beta_fraction * sig.rf;

        let mut sum_chosen = 0.0;
        for &(start, end) in &clusters.chosen {
            let p: f64 = raw_powers[start..end].iter().sum::<f64>() * scale;
            if p <= alpha_rf {
                return f64::NEG_INFINITY;
            }
            sum_chosen += p;
        }
        let mut sum_other = 0.0;
        for &(start, end) in &clusters.other {
            let p: f64 = raw_powers[start..end].iter().sum::<f64>() * scale;
            if self.config.enforce_beta_check && p >= beta {
                return f64::NEG_INFINITY;
            }
            sum_other += p;
        }
        sum_chosen - sum_other
    }

    /// Whether the sparse fine scan is valid for this configuration.
    fn sparse_applicable(&self) -> bool {
        self.config.analysis_window == WindowKind::Rectangular
    }

    /// The spectrum analyzer the scan loops run — shared with
    /// [`crate::stream::StreamingDetector`] so streaming coarse windows are
    /// computed by the exact same code as offline ones.
    pub(crate) fn analyzer(&self) -> &SpectrumAnalyzer {
        &self.analyzer
    }

    pub(crate) fn resolve_mode(&self, mode: ScanMode) -> ScanMode {
        match mode {
            ScanMode::Auto => {
                if self.sparse_applicable() {
                    ScanMode::Sparse
                } else {
                    ScanMode::Dense
                }
            }
            ScanMode::Sparse => {
                assert!(
                    self.sparse_applicable(),
                    "sparse scan requires the rectangular analysis window"
                );
                ScanMode::Sparse
            }
            ScanMode::Dense => ScanMode::Dense,
        }
    }

    /// Detects a single reference signal (Algorithm 1).
    pub fn detect(&self, recording: &[f64], sig: &SignalSignature) -> Detection {
        self.detect_many(recording, &[sig]).detections[0]
    }

    /// Detects several reference signals in one coarse scan (the
    /// prototype's single-pass optimization), then refines each with a fine
    /// scan.
    ///
    /// Returns [`Detection::NotPresent`] per signal when the recording is
    /// shorter than one window.
    pub fn detect_many(&self, recording: &[f64], sigs: &[&SignalSignature]) -> ScanResult {
        self.scan(recording, sigs, ScanMode::Auto)
    }

    /// [`Self::detect_many`] with an explicit spectral path for the fine
    /// scan.
    pub fn detect_many_mode(
        &self,
        recording: &[f64],
        sigs: &[&SignalSignature],
        mode: ScanMode,
    ) -> ScanResult {
        self.scan(recording, sigs, mode)
    }

    /// The scan engine behind every `detect*` entry point.
    fn scan(&self, recording: &[f64], sigs: &[&SignalSignature], mode: ScanMode) -> ScanResult {
        let w = self.config.signal_len;
        if recording.len() < w || sigs.is_empty() {
            return ScanResult {
                detections: vec![Detection::NotPresent; sigs.len()],
                ffts_used: 0,
            };
        }
        let mode = self.resolve_mode(mode);
        let last = recording.len() - w;

        // Coarse pass, shared across signatures, over offsets 0, step,
        // 2·step, …, clamped to end exactly at `last` (matching the legacy
        // `(i + step).min(last)` walk). Strict-greater keeps the earliest
        // offset on ties.
        let offsets = (0..last)
            .step_by(self.config.coarse_step.max(1))
            .chain(std::iter::once(last));
        let mut scratch = SpectrumScratch::default();
        let mut spectrum: Vec<f64> = Vec::with_capacity(w);
        let mut best: Vec<(f64, usize)> = vec![(f64::NEG_INFINITY, 0); sigs.len()];
        let mut ffts = 0usize;
        for i in offsets {
            self.analyzer
                .compute(&recording[i..i + w], &mut scratch, &mut spectrum);
            ffts += 1;
            for (b, sig) in best.iter_mut().zip(sigs) {
                let p = self.norm_power(&spectrum, sig);
                if p > b.0 {
                    *b = (p, i);
                }
            }
        }

        // Fine pass per signature around its coarse maximum.
        let mut detections = Vec::with_capacity(sigs.len());
        for (&coarse, sig) in best.iter().zip(sigs) {
            let (best_p, best_loc, fine_evals) =
                self.fine_scan_view(recording, 0, last, sig, coarse, mode);
            ffts += fine_evals;
            detections.push(self.threshold_detection(best_p, best_loc, sig));
        }
        ScanResult {
            detections,
            ffts_used: ffts,
        }
    }

    /// Algorithm 1's final presence decision for one signature's refined
    /// maximum (line 12 with the ε·R_S reading; see the module docs).
    pub(crate) fn threshold_detection(
        &self,
        best_p: f64,
        best_loc: usize,
        sig: &SignalSignature,
    ) -> Detection {
        if best_p.is_infinite() && best_p < 0.0 {
            // No window ever passed the sanity checks.
            Detection::NotPresent
        } else if best_p < self.config.epsilon * sig.rs {
            Detection::NotPresent
        } else {
            Detection::Found {
                location: best_loc,
                norm_power: best_p,
            }
        }
    }

    /// Fine scan around one signature's coarse maximum, over a *view* of
    /// the recording: `samples` holds the recording's samples from absolute
    /// offset `base`, and `last` is the recording's final window offset
    /// (`recording_len − signal_len`). Returns
    /// `(best_power, best_location, window_evaluations)` with locations in
    /// absolute recording coordinates.
    ///
    /// The offline scan passes the whole recording with `base = 0`; the
    /// streaming detector passes just the captured neighborhood of the
    /// coarse maximum. Both run the identical arithmetic on identical
    /// sample values, so results are bit-identical by construction.
    pub(crate) fn fine_scan_view(
        &self,
        samples: &[f64],
        base: usize,
        last: usize,
        sig: &SignalSignature,
        (coarse_p, coarse_loc): (f64, usize),
        mode: ScanMode,
    ) -> (f64, usize, usize) {
        if coarse_p.is_infinite() && coarse_p < 0.0 {
            // No coarse window passed the sanity checks; nothing to refine.
            return (coarse_p, coarse_loc, 0);
        }
        let w = self.config.signal_len;
        let lo = coarse_loc.saturating_sub(self.config.fine_radius);
        let hi = (coarse_loc + self.config.fine_radius).min(last);
        let step = self.config.fine_step;
        debug_assert!(lo >= base, "view must cover the fine radius below");
        debug_assert!(hi + w <= base + samples.len(), "view must cover above");

        let mut best_p = coarse_p;
        let mut best_loc = coarse_loc;
        let mut evals = 0usize;

        match mode {
            ScanMode::Dense => {
                let mut scratch = SpectrumScratch::default();
                let mut spectrum: Vec<f64> = Vec::with_capacity(w);
                let mut j = lo;
                loop {
                    self.analyzer.compute(
                        &samples[j - base..j - base + w],
                        &mut scratch,
                        &mut spectrum,
                    );
                    evals += 1;
                    let p = self.norm_power(&spectrum, sig);
                    if p > best_p {
                        best_p = p;
                        best_loc = j;
                    }
                    if j >= hi {
                        break;
                    }
                    j = (j + step).min(hi);
                }
            }
            ScanMode::Sparse | ScanMode::Auto => {
                let clusters = SparseClusters::build(sig, self.config.theta, w);
                let mut sliding = SlidingDft::new(w, step, clusters.bins.clone());
                let mut powers: Vec<f64> = Vec::with_capacity(clusters.bins.len());
                sliding.init(&samples[lo - base..lo - base + w]);
                let mut j = lo;
                loop {
                    sliding.powers_into(&mut powers);
                    evals += 1;
                    let p = self.norm_power_clustered(&powers, &clusters, sig);
                    if p > best_p {
                        best_p = p;
                        best_loc = j;
                    }
                    if j >= hi {
                        break;
                    }
                    let next = (j + step).min(hi);
                    sliding.advance(
                        &samples[j - base..next - base],
                        &samples[j + w - base..next + w - base],
                    );
                    j = next;
                }
            }
        }
        (best_p, best_loc, evals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::ReferenceSignal;
    use piano_dsp::tone::{multi_tone, ToneSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn config() -> ActionConfig {
        ActionConfig::default()
    }

    /// Embeds a scaled copy of `wave` at `offset` in a silent recording.
    fn embed(wave: &[f64], offset: usize, total: usize, gain: f64) -> Vec<f64> {
        let mut rec = vec![0.0; total];
        for (i, &v) in wave.iter().enumerate() {
            rec[offset + i] = v * gain;
        }
        rec
    }

    #[test]
    fn detector_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Detector>();
    }

    #[test]
    fn detects_clean_signal_at_exact_location() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![3, 8, 14, 22], &mut rng(1));
        let signature = SignalSignature::of(&sig, &cfg);
        let true_loc = 12_345;
        let rec = embed(&sig.waveform(), true_loc, 30_000, 0.4);
        let d = det.detect(&rec, &signature);
        let loc = d.location().expect("signal must be found");
        assert!(
            (loc as isize - true_loc as isize).abs() <= cfg.fine_step as isize,
            "loc {loc} vs true {true_loc}"
        );
    }

    #[test]
    fn detects_attenuated_signal_above_alpha() {
        // Power fraction 0.15² = 2.25 % > α = 1 %.
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![0, 10, 20, 29], &mut rng(2));
        let signature = SignalSignature::of(&sig, &cfg);
        let rec = embed(&sig.waveform(), 6_000, 20_000, 0.15);
        assert!(det.detect(&rec, &signature).is_found());
    }

    #[test]
    fn rejects_signal_below_alpha_floor() {
        // Power fraction 0.05² = 0.25 % < α = 1 % ⇒ not present.
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![0, 10, 20, 29], &mut rng(3));
        let signature = SignalSignature::of(&sig, &cfg);
        let rec = embed(&sig.waveform(), 6_000, 20_000, 0.05);
        assert_eq!(det.detect(&rec, &signature), Detection::NotPresent);
    }

    #[test]
    fn absent_signal_reports_not_present() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![5, 6, 7], &mut rng(4));
        let signature = SignalSignature::of(&sig, &cfg);
        let rec = vec![0.0; 20_000];
        assert_eq!(det.detect(&rec, &signature), Detection::NotPresent);
    }

    #[test]
    fn wrong_frequency_set_is_not_detected() {
        // A signal with a *different* subset plays; ours must not be found.
        let cfg = config();
        let det = Detector::new(&cfg);
        let ours = ReferenceSignal::from_indices(&cfg, vec![1, 4, 9], &mut rng(5));
        let theirs = ReferenceSignal::from_indices(&cfg, vec![2, 5, 11], &mut rng(6));
        let rec = embed(&theirs.waveform(), 5_000, 20_000, 0.4);
        let signature = SignalSignature::of(&ours, &cfg);
        assert_eq!(det.detect(&rec, &signature), Detection::NotPresent);
    }

    #[test]
    fn overlapping_foreign_tones_kill_the_window_via_beta() {
        // Our signal plays, but a foreign tone at an unchosen candidate
        // overlaps it: the β sanity check must reject those windows, and
        // with no clean window left the signal is declared absent.
        let cfg = config();
        let det = Detector::new(&cfg);
        let ours = ReferenceSignal::from_indices(&cfg, vec![3, 8, 14], &mut rng(7));
        let mut rec = embed(&ours.waveform(), 5_000, 20_000, 0.4);
        // Foreign tone at candidate 20, full overlap, comparable power.
        let foreign = multi_tone(
            &[ToneSpec::new(cfg.grid.candidate_hz(20), 3_000.0)],
            cfg.sample_rate,
            4096,
        );
        for (i, &v) in foreign.iter().enumerate() {
            rec[5_000 + i] += v;
        }
        assert_eq!(
            det.detect(&rec, &SignalSignature::of(&ours, &cfg)),
            Detection::NotPresent
        );
    }

    #[test]
    fn nonoverlapping_foreign_signal_does_not_disturb_detection() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let ours = ReferenceSignal::from_indices(&cfg, vec![3, 8, 14], &mut rng(8));
        let foreign = ReferenceSignal::from_indices(&cfg, vec![1, 20, 27], &mut rng(9));
        let mut rec = embed(&ours.waveform(), 4_000, 30_000, 0.4);
        for (i, &v) in foreign.waveform().iter().enumerate() {
            rec[15_000 + i] += 0.4 * v;
        }
        let d = det.detect(&rec, &SignalSignature::of(&ours, &cfg));
        let loc = d.location().expect("found");
        assert!((loc as isize - 4_000).abs() <= 10);
    }

    #[test]
    fn two_signals_detected_in_one_scan() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sa = ReferenceSignal::from_indices(&cfg, vec![0, 6, 12], &mut rng(10));
        let sv = ReferenceSignal::from_indices(&cfg, vec![17, 23, 29], &mut rng(11));
        let mut rec = embed(&sa.waveform(), 3_000, 40_000, 0.5);
        for (i, &v) in sv.waveform().iter().enumerate() {
            rec[20_000 + i] += 0.5 * v;
        }
        let siga = SignalSignature::of(&sa, &cfg);
        let sigv = SignalSignature::of(&sv, &cfg);
        let result = det.detect_many(&rec, &[&siga, &sigv]);
        let la = result.detections[0].location().expect("SA found");
        let lv = result.detections[1].location().expect("SV found");
        assert!((la as isize - 3_000).abs() <= 10, "la={la}");
        assert!((lv as isize - 20_000).abs() <= 10, "lv={lv}");
        assert!(result.ffts_used > 0);
    }

    #[test]
    fn recording_shorter_than_window_is_not_present() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![1], &mut rng(12));
        let signature = SignalSignature::of(&sig, &cfg);
        let result = det.detect_many(&vec![0.0; 100], &[&signature]);
        assert_eq!(result.detections[0], Detection::NotPresent);
        assert_eq!(result.ffts_used, 0);
    }

    #[test]
    fn norm_power_rewards_exact_match_and_penalizes_foreign_power() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![5, 15, 25], &mut rng(13));
        let signature = SignalSignature::of(&sig, &cfg);

        let clean = piano_dsp::spectrum::power_spectrum(&sig.waveform());
        let p_clean = det.norm_power(&clean, &signature);
        assert!(p_clean.is_finite() && p_clean > 0.0);

        // Roughly R_S: three tones at R_f each.
        assert!((p_clean - signature.rs()).abs() < 0.2 * signature.rs());

        // Small foreign tone below β subtracts but does not reject.
        let beta = cfg.beta_fraction * signature.rf();
        let small_amp = (0.3 * beta).sqrt();
        let mut with_foreign = sig.waveform();
        let foreign = multi_tone(
            &[ToneSpec::new(cfg.grid.candidate_hz(0), small_amp)],
            cfg.sample_rate,
            4096,
        );
        for (a, b) in with_foreign.iter_mut().zip(&foreign) {
            *a += b;
        }
        let p_foreign = det.norm_power(
            &piano_dsp::spectrum::power_spectrum(&with_foreign),
            &signature,
        );
        assert!(p_foreign.is_finite());
        assert!(p_foreign < p_clean, "foreign power must reduce the score");
    }

    #[test]
    fn sparse_norm_power_matches_dense() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![2, 9, 21, 27], &mut rng(21));
        let signature = SignalSignature::of(&sig, &cfg);
        let wave = sig.waveform();
        let dense = det.norm_power(&det.window_spectrum(&wave), &signature);
        let sparse = det.norm_power_sparse(&wave, &signature);
        assert!(
            (dense - sparse).abs() < 1e-6 * (1.0 + dense.abs()),
            "dense {dense} vs sparse {sparse}"
        );
    }

    #[test]
    fn sparse_and_dense_scans_agree() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![4, 13, 26], &mut rng(22));
        let signature = SignalSignature::of(&sig, &cfg);
        let rec = embed(&sig.waveform(), 9_731, 30_000, 0.3);
        let dense = det.detect_many_mode(&rec, &[&signature], ScanMode::Dense);
        let sparse = det.detect_many_mode(&rec, &[&signature], ScanMode::Sparse);
        assert_eq!(dense.ffts_used, sparse.ffts_used);
        let (dl, dp) = match dense.detections[0] {
            Detection::Found {
                location,
                norm_power,
            } => (location, norm_power),
            Detection::NotPresent => panic!("dense scan must find the signal"),
        };
        let (sl, sp) = match sparse.detections[0] {
            Detection::Found {
                location,
                norm_power,
            } => (location, norm_power),
            Detection::NotPresent => panic!("sparse scan must find the signal"),
        };
        assert_eq!(dl, sl, "locations must agree");
        assert!(
            (dp - sp).abs() < 1e-6 * (1.0 + dp.abs()),
            "powers {dp} vs {sp}"
        );
    }

    #[test]
    fn sparse_scan_requires_rectangular_window() {
        let mut cfg = config();
        cfg.analysis_window = piano_dsp::window::WindowKind::Hann;
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![1, 2], &mut rng(23));
        let signature = SignalSignature::of(&sig, &cfg);
        let rec = vec![0.0; 10_000];
        // Auto must silently fall back to dense…
        let result = det.detect_many(&rec, &[&signature]);
        assert_eq!(result.detections[0], Detection::NotPresent);
        // …while forcing sparse is a programming error.
        let forced = std::panic::catch_unwind(|| {
            det.detect_many_mode(&rec, &[&signature], ScanMode::Sparse)
        });
        assert!(forced.is_err());
    }

    #[test]
    fn scan_result_counts_ffts() {
        let cfg = config();
        let det = Detector::new(&cfg);
        let sig = ReferenceSignal::from_indices(&cfg, vec![2, 12], &mut rng(14));
        let signature = SignalSignature::of(&sig, &cfg);
        let rec = embed(&sig.waveform(), 8_000, 24_096, 0.5);
        let result = det.detect_many(&rec, &[&signature]);
        // Coarse: ceil((24096−4096)/1000)+1 = 21; fine: ~2·1500/10 + 1.
        assert!(result.ffts_used >= 21, "ffts {}", result.ffts_used);
        assert!(result.ffts_used < 500, "ffts {}", result.ffts_used);
    }

    #[test]
    #[should_panic(expected = "valid configuration")]
    fn detector_rejects_invalid_config() {
        let mut cfg = config();
        cfg.beta_fraction = 0.9;
        let _ = Detector::new(&cfg);
    }
}
