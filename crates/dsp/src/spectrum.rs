//! Power spectra with the paper's amplitude-squared normalization.
//!
//! Algorithm 2 of the paper compares window powers `P_f` against reference
//! powers `R_f = (32000/n)²`, i.e. against the *squared amplitude* of each
//! synthesized tone. To make those comparisons direct, [`power_spectrum`]
//! scales the raw periodogram by `(2/N)²` so that a full-length sine of
//! amplitude `B` whose frequency sits exactly on a bin reads `B²` at that
//! bin. Off-bin tones leak into neighbours; the detector recovers the power
//! by aggregating `2θ+1` bins (Algorithm 2, line 5), which is also how it
//! tolerates the *frequency smoothing* the paper describes.
//!
//! Every spectrum here is computed through plans that dispatch into the
//! [`crate::simd`] kernel layer — callers pick up the active backend
//! transparently, and the result is bit-identical whichever backend runs.

use crate::complex::Complex64;
use crate::fft::{cached_real_plan, FftPlan, RealFftPlan};
use crate::window::WindowKind;
use std::ops::Range;

/// Computes the amplitude²-normalized power spectrum of a real window.
///
/// Returns a full-length spectrum (`len == window.len()`); bins above
/// Nyquist mirror the lower half, which lets callers index candidate
/// frequencies above Nyquist exactly as the paper's Algorithm 2 does.
///
/// Runs on the cached real-input plan ([`cached_real_plan`]), so repeated
/// one-shot calls at the same size never rebuild twiddle tables.
///
/// # Panics
///
/// Panics if `window.len()` is not a power of two.
pub fn power_spectrum(window: &[f64]) -> Vec<f64> {
    if window.len() < 2 {
        // Degenerate sizes keep the documented contract: length 0 panics
        // (not a power of two) and length 1 follows the (2/N)² convention.
        assert!(
            window.len().is_power_of_two(),
            "FFT size must be a power of two, got {}",
            window.len()
        );
        return window.iter().map(|&x| (2.0 * x) * (2.0 * x)).collect();
    }
    let plan = cached_real_plan(window.len());
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    real_power_spectrum_with(&plan, window, &mut scratch, &mut out);
    out
}

/// Power spectrum using a caller-provided plan and scratch buffer.
///
/// This is the hot path of the ACTION detector: one call per scanned window.
/// `scratch` must have the same length as the plan size; `out` is resized as
/// needed.
///
/// # Panics
///
/// Panics if `window.len() != plan.size()`.
pub fn power_spectrum_with(
    plan: &FftPlan,
    window: &[f64],
    scratch: &mut Vec<Complex64>,
    out: &mut Vec<f64>,
) {
    assert_eq!(
        window.len(),
        plan.size(),
        "window length must match plan size"
    );
    scratch.clear();
    scratch.extend(window.iter().map(|&x| Complex64::from_real(x)));
    plan.forward(scratch);
    let n = plan.size() as f64;
    let scale = (2.0 / n) * (2.0 / n);
    out.clear();
    out.extend(scratch.iter().map(|z| z.norm_sqr() * scale));
}

/// [`power_spectrum_with`] on the half-size real-input transform: the same
/// normalized full-length spectrum at roughly half the butterflies.
///
/// `scratch` is the plan's half-size work buffer; `out` is resized to the
/// window length.
///
/// # Panics
///
/// Panics if `window.len() != plan.size()`.
pub fn real_power_spectrum_with(
    plan: &RealFftPlan,
    window: &[f64],
    scratch: &mut Vec<Complex64>,
    out: &mut Vec<f64>,
) {
    plan.power_into(window, scratch, out);
    let n = plan.size() as f64;
    let scale = (2.0 / n) * (2.0 / n);
    for p in out.iter_mut() {
        *p *= scale;
    }
}

/// Reusable per-call scratch for [`SpectrumAnalyzer::compute`].
///
/// Keeping the scratch outside the analyzer makes the analyzer itself
/// immutable (and therefore `Sync`-shareable across threads); each
/// thread owns one `SpectrumScratch`.
#[derive(Debug, Default, Clone)]
pub struct SpectrumScratch {
    windowed: Vec<f64>,
    freq: Vec<Complex64>,
}

/// A reusable windowed-spectrum analyzer.
///
/// Applies a window function before the FFT and compensates the window's
/// coherent gain so a sine of amplitude `B` still reads `B²` at its bin —
/// keeping Algorithm 2's comparisons against `R_f = (32000/n)²` direct
/// while suppressing the rectangular window's slowly decaying sidelobes
/// (Hann: −31 dB first sidelobe, −18 dB/octave rolloff vs rect's −13 dB
/// and −6 dB/octave). The PIANO detector needs that suppression: with a
/// rectangular window, off-bin tone leakage into unchosen candidate
/// clusters sits near the paper's β = 0.5 %·R_f ceiling for loud (close)
/// signals.
#[derive(Debug, Clone)]
pub struct SpectrumAnalyzer {
    plan: RealFftPlan,
    kind: WindowKind,
    coeffs: Vec<f64>,
    scale: f64,
}

impl SpectrumAnalyzer {
    /// Builds an analyzer for windows of `len` samples.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a power of two ≥ 2.
    pub fn new(len: usize, window: WindowKind) -> Self {
        let coeffs = window.coefficients(len);
        let cg = window.coherent_gain(len).max(1e-12);
        SpectrumAnalyzer {
            plan: RealFftPlan::new(len),
            kind: window,
            coeffs,
            scale: 1.0 / (cg * cg),
        }
    }

    /// Window length.
    pub fn len(&self) -> usize {
        self.plan.size()
    }

    /// Whether the analyzer length is zero (never true; see [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The window function this analyzer applies.
    pub fn window_kind(&self) -> WindowKind {
        self.kind
    }

    /// The coherent-gain power compensation applied to every bin.
    pub fn power_scale(&self) -> f64 {
        self.scale
    }

    /// Applies the analysis window coefficients to `signal`, writing the
    /// tapered samples into `out` (resized to the analyzer length).
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the analyzer length.
    pub fn apply_window(&self, signal: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            signal.len(),
            self.len(),
            "signal length must match analyzer length"
        );
        out.clear();
        out.extend(signal.iter().zip(&self.coeffs).map(|(&s, &c)| s * c));
    }

    /// Computes the coherent-gain-compensated power spectrum of `signal`
    /// into `out`, using caller-owned `scratch`.
    ///
    /// The analyzer itself is immutable (`&self`), so one analyzer can be
    /// shared by many threads, each with its own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the analyzer length.
    pub fn compute(&self, signal: &[f64], scratch: &mut SpectrumScratch, out: &mut Vec<f64>) {
        assert_eq!(
            signal.len(),
            self.len(),
            "signal length must match analyzer length"
        );
        scratch.windowed.resize(self.len(), 0.0);
        for ((w, &s), &c) in scratch.windowed.iter_mut().zip(signal).zip(&self.coeffs) {
            *w = s * c;
        }
        real_power_spectrum_with(&self.plan, &scratch.windowed, &mut scratch.freq, out);
        for p in out.iter_mut() {
            *p *= self.scale;
        }
    }

    /// One-shot convenience over [`Self::compute`].
    pub fn power_spectrum(&self, signal: &[f64]) -> Vec<f64> {
        let mut scratch = SpectrumScratch::default();
        let mut out = Vec::new();
        self.compute(signal, &mut scratch, &mut out);
        out
    }
}

/// Sums spectrum power over bins `center-θ ..= center+θ`, clamped to the
/// spectrum bounds — line 5 of the paper's Algorithm 2.
pub fn band_power(spectrum: &[f64], center: usize, theta: usize) -> f64 {
    if spectrum.is_empty() {
        return 0.0;
    }
    let lo = center.saturating_sub(theta);
    let hi = (center + theta).min(spectrum.len() - 1);
    spectrum[lo..=hi].iter().sum()
}

/// Index of the maximum-power bin within `range` (clamped to bounds).
///
/// Returns the lower bound if the range is empty after clamping.
pub fn peak_bin(spectrum: &[f64], range: Range<usize>) -> usize {
    let lo = range.start.min(spectrum.len());
    let hi = range.end.min(spectrum.len());
    (lo..hi)
        .max_by(|&a, &b| spectrum[a].total_cmp(&spectrum[b]))
        .unwrap_or(lo)
}

/// Frequency (Hz) corresponding to a bin index for the given window size.
#[inline]
pub fn bin_to_freq(bin: usize, sample_rate: f64, window_len: usize) -> f64 {
    bin as f64 * sample_rate / window_len as f64
}

/// Bin index for a frequency — the paper's `⌊f/f_s·|W|⌋` (Algorithm 2,
/// line 4). Frequencies above Nyquist map to upper-half (mirror) bins.
#[inline]
pub fn freq_to_bin(freq_hz: f64, sample_rate: f64, window_len: usize) -> usize {
    ((freq_hz / sample_rate) * window_len as f64).floor() as usize % window_len
}

/// Total power in the spectrum between two frequencies (inclusive bins),
/// counting both the direct and mirrored halves of the spectrum.
pub fn power_in_range(spectrum: &[f64], lo_hz: f64, hi_hz: f64, sample_rate: f64) -> f64 {
    let n = spectrum.len();
    let lo = freq_to_bin(lo_hz.min(hi_hz), sample_rate, n).min(n / 2);
    let hi = freq_to_bin(lo_hz.max(hi_hz), sample_rate, n).min(n / 2);
    let direct: f64 = spectrum[lo..=hi].iter().sum();
    let mirror: f64 = spectrum[(n - hi).min(n - 1)..=(n - lo).min(n - 1)]
        .iter()
        .sum();
    direct + mirror
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tone;
    use proptest::prelude::*;

    const FS: f64 = 44_100.0;

    #[test]
    fn on_bin_sine_reads_amplitude_squared() {
        let n = 4096;
        let bin = 1310; // ≈ 14.1 kHz: the folded image of a 30 kHz candidate
        let f = bin as f64 * FS / n as f64;
        let amp = 32_000.0 / 15.0;
        let sig = tone::sine(f, 0.4, amp, FS, n);
        let ps = power_spectrum(&sig);
        assert!(
            (ps[bin] - amp * amp).abs() < 1e-6 * amp * amp,
            "bin power {} vs amplitude² {}",
            ps[bin],
            amp * amp
        );
    }

    #[test]
    fn above_nyquist_candidate_lands_on_its_literal_bin() {
        // The paper's Algorithm 2 computes i = ⌊f/fs·|W|⌋ even for f > fs/2.
        // A 30 kHz synthesized tone must therefore read its power at the
        // literal 30 kHz bin (which is the mirror of the folded bin).
        let n = 4096;
        let f = 30_000.0;
        let sig = tone::sine(f, 0.0, 100.0, FS, n);
        let ps = power_spectrum(&sig);
        let idx = freq_to_bin(f, FS, n);
        let p = band_power(&ps, idx, 5);
        assert!(p > 0.9 * 100.0 * 100.0, "aggregated power {p} too small");
    }

    #[test]
    fn off_bin_power_recovered_by_aggregation() {
        let n = 4096;
        let f = 10_000.3; // deliberately between bins
        let amp = 50.0;
        let sig = tone::sine(f, 1.1, amp, FS, n);
        let ps = power_spectrum(&sig);
        let idx = freq_to_bin(f, FS, n);
        let single = ps[idx];
        let aggregated = band_power(&ps, idx, 5);
        assert!(aggregated > single, "aggregation should capture leakage");
        assert!(aggregated > 0.85 * amp * amp, "aggregated {aggregated}");
    }

    #[test]
    fn degenerate_sizes_keep_the_contract() {
        // Length 1 follows the (2/N)² convention (N = 1 ⇒ scale 4)…
        assert_eq!(power_spectrum(&[3.0]), vec![36.0]);
        // …and length 0 panics like any other non-power-of-two.
        let empty = std::panic::catch_unwind(|| power_spectrum(&[]));
        assert!(empty.is_err(), "length 0 must panic");
    }

    #[test]
    fn band_power_clamps_at_edges() {
        let ps = vec![1.0; 10];
        assert_eq!(band_power(&ps, 0, 3), 4.0); // bins 0..=3
        assert_eq!(band_power(&ps, 9, 3), 4.0); // bins 6..=9
        assert_eq!(band_power(&[], 5, 3), 0.0);
    }

    #[test]
    fn peak_bin_finds_tone() {
        let n = 1024;
        let bin = 200;
        let sig = tone::sine(bin as f64 * FS / n as f64, 0.0, 1.0, FS, n);
        let ps = power_spectrum(&sig);
        assert_eq!(peak_bin(&ps, 1..n / 2), bin);
    }

    #[test]
    fn peak_bin_empty_range_returns_lower_bound() {
        let ps = vec![1.0; 8];
        assert_eq!(peak_bin(&ps, 5..5), 5);
    }

    #[test]
    fn freq_bin_roundtrip() {
        let n = 4096;
        for &f in &[6_000.0, 14_100.0, 25_166.0, 34_833.0] {
            let b = freq_to_bin(f, FS, n);
            let back = bin_to_freq(b, FS, n);
            assert!((back - f).abs() <= FS / n as f64, "f={f} back={back}");
        }
    }

    #[test]
    fn power_in_range_counts_mirror() {
        let n = 4096;
        let sig = tone::sine(5_000.0, 0.0, 10.0, FS, n);
        let ps = power_spectrum(&sig);
        let p = power_in_range(&ps, 4_000.0, 6_000.0, FS);
        // Direct + mirror each read amplitude², so together ≈ 2·amp².
        assert!(p > 1.8 * 100.0 && p < 2.2 * 100.0, "p={p}");
    }

    #[test]
    fn with_plan_matches_one_shot() {
        let sig = tone::sine(9_000.0, 0.2, 3.0, FS, 512);
        let plan = FftPlan::new(512);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        power_spectrum_with(&plan, &sig, &mut scratch, &mut out);
        let reference = power_spectrum(&sig);
        for (a, b) in out.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn real_plan_path_matches_complex_plan_path() {
        let sig = tone::sine(11_000.0, 0.9, 7.0, FS, 1024);
        let complex_plan = FftPlan::new(1024);
        let real_plan = RealFftPlan::new(1024);
        let mut scratch = Vec::new();
        let mut dense = Vec::new();
        let mut real = Vec::new();
        power_spectrum_with(&complex_plan, &sig, &mut scratch, &mut dense);
        real_power_spectrum_with(&real_plan, &sig, &mut scratch, &mut real);
        assert_eq!(dense.len(), real.len());
        for (a, b) in dense.iter().zip(&real) {
            assert!((a - b).abs() < 1e-9 * (1.0 + a), "{a} vs {b}");
        }
    }

    #[test]
    fn analyzer_is_shareable_and_deterministic() {
        let analyzer = SpectrumAnalyzer::new(512, WindowKind::Hann);
        let sig = tone::sine(8_000.0, 0.0, 2.0, FS, 512);
        // &self compute: two scratches, same analyzer, identical output.
        let mut s1 = SpectrumScratch::default();
        let mut s2 = SpectrumScratch::default();
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        analyzer.compute(&sig, &mut s1, &mut o1);
        analyzer.compute(&sig, &mut s2, &mut o2);
        assert_eq!(o1, o2);
        fn assert_sync<T: Sync + Send>(_: &T) {}
        assert_sync(&analyzer);
        assert_eq!(analyzer.window_kind(), WindowKind::Hann);
    }

    proptest! {
        #[test]
        fn spectrum_is_nonnegative_and_symmetric(
            data in proptest::collection::vec(-100.0f64..100.0, 64),
        ) {
            let ps = power_spectrum(&data);
            for &p in &ps {
                prop_assert!(p >= 0.0);
            }
            for k in 1..32 {
                prop_assert!((ps[k] - ps[64 - k]).abs() < 1e-6 * (1.0 + ps[k]));
            }
        }
    }
}
