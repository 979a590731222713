//! Protocol configuration.
//!
//! Defaults mirror Sec. VI-A of the paper exactly; every field documents
//! its paper counterpart. `ActionConfig::validate` enforces the internal
//! consistency constraints the paper's security argument relies on
//! (notably `α·R_f > β`, Sec. V).

use piano_dsp::window::WindowKind;
use serde::{Deserialize, Serialize};

use crate::error::PianoError;
use crate::freqgrid::FrequencyGrid;
use crate::signal::SignalSampler;

/// Configuration of the ACTION distance-estimation protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ActionConfig {
    /// Nominal sampling frequency (Hz). Paper: 44.1 kHz.
    pub sample_rate: f64,
    /// Candidate frequency grid. Paper: [25 kHz, 35 kHz] × 30 bins.
    pub grid: FrequencyGrid,
    /// Reference signal length in samples. Paper: 4096 (93 ms).
    pub signal_len: usize,
    /// Frequency-smoothing half-width θ in FFT bins. Paper: 5.
    pub theta: usize,
    /// Per-frequency attenuation floor α: a window passes only if
    /// `P_f > α·R_f` for every chosen frequency. Paper: 1 %.
    pub alpha: f64,
    /// Out-of-signal ceiling as a fraction of `R_f`: the paper sets
    /// `β = 0.5 %·R_f`.
    pub beta_fraction: f64,
    /// Presence threshold ε: the maximum normalized power must reach
    /// `ε·R_S` or the signal is declared absent. Paper: ε = α = 1 %
    /// (the literal `P_max < R_S` would reject every attenuated recording).
    pub epsilon: f64,
    /// Coarse scan step in samples. Paper: 1000.
    pub coarse_step: usize,
    /// Fine scan step in samples. Paper: 10.
    pub fine_step: usize,
    /// Fine scan radius around the coarse maximum, in samples.
    pub fine_radius: usize,
    /// How reference-signal frequency subsets are sampled (see
    /// [`crate::signal`] for why the two samplers differ against guessing).
    pub sampler: SignalSampler,
    /// Peak construction amplitude. Paper: 32000 (16-bit headroom).
    pub max_amplitude: f64,
    /// Length of each device's recording window in seconds.
    pub recording_duration_s: f64,
    /// Scheduled playback offset of the authenticating device's signal,
    /// relative to its record command (seconds).
    pub play_offset_auth_s: f64,
    /// Scheduled playback offset of the vouching device's signal (seconds).
    /// Must leave a gap after the authenticating signal so the two never
    /// overlap in either recording.
    pub play_offset_vouch_s: f64,
    /// Speed of sound the devices *assume* when evaluating Eq. 3 (m/s).
    /// The true value in the simulated environment depends on temperature,
    /// so the assumption contributes a small, realistic bias. Paper:
    /// "speed of sound is around 340 m/s".
    pub assumed_speed_of_sound: f64,
    /// Whether Algorithm 2 enforces the β sanity check on unchosen
    /// candidates. Always `true` in PIANO; the ablation harness disables it
    /// to reproduce the paper's claim that without it, an all-frequency
    /// spoofing signal "will have a high normalized power … making the
    /// corresponding replay attack succeed with a high probability".
    pub enforce_beta_check: bool,
    /// Analysis window applied inside Algorithm 2's `PowerSpectrum`.
    ///
    /// The paper does not specify one; the default is rectangular (a raw
    /// FFT of the slice), and the window ablation (A6) shows that is not an
    /// oversight but a requirement: a tapered window (Hann) flattens the
    /// top of the normalized-power-vs-offset curve, destroying the time
    /// localization Algorithm 1's argmax depends on (errors grow by an
    /// order of magnitude). The rectangular window's sidelobe leakage into
    /// unchosen candidate clusters (≈0.6 % of *received* power) stays below
    /// β = 0.5 %·R_f as long as received signals remain in the far field —
    /// which the paper's geometry (≥0.5 m, attenuated self-coupling)
    /// guarantees.
    pub analysis_window: WindowKind,
}

impl Default for ActionConfig {
    fn default() -> Self {
        ActionConfig {
            sample_rate: 44_100.0,
            grid: FrequencyGrid::paper_default(),
            signal_len: 4096,
            theta: 5,
            alpha: 0.01,
            beta_fraction: 0.005,
            epsilon: 0.01,
            coarse_step: 1000,
            fine_step: 10,
            fine_radius: 1500,
            sampler: SignalSampler::UniformSubset,
            max_amplitude: 32_000.0,
            recording_duration_s: 2.0,
            play_offset_auth_s: 0.35,
            play_offset_vouch_s: 1.15,
            assumed_speed_of_sound: 343.0,
            enforce_beta_check: true,
            analysis_window: WindowKind::Rectangular,
        }
    }
}

impl ActionConfig {
    /// Per-tone reference power `R_f = (max_amplitude/n)²` for `n` tones.
    pub fn reference_power(&self, n_tones: usize) -> f64 {
        assert!(n_tones > 0, "a reference signal has at least one tone");
        (self.max_amplitude / n_tones as f64).powi(2)
    }

    /// Recording length in samples.
    pub fn recording_len(&self) -> usize {
        (self.recording_duration_s * self.sample_rate).round() as usize
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PianoError::InvalidConfig`] describing the first violated
    /// constraint:
    ///
    /// * FFT sizes must be powers of two;
    /// * scan steps must be nonzero and coarse ≥ fine;
    /// * `α > β` fraction-wise — the Sec. V defense against all-frequency
    ///   spoofing requires `α·R_f > β`;
    /// * thresholds must be in (0, 1);
    /// * playback slots must fit in the recording without overlapping.
    pub fn validate(&self) -> Result<(), PianoError> {
        let err = |m: String| Err(PianoError::InvalidConfig(m));
        if !self.signal_len.is_power_of_two() || self.signal_len < 64 {
            return err(format!(
                "signal_len {} must be a power of two ≥ 64",
                self.signal_len
            ));
        }
        if self.sample_rate <= 0.0 || !self.sample_rate.is_finite() {
            return err("sample_rate must be positive".into());
        }
        if self.coarse_step == 0 || self.fine_step == 0 {
            return err("scan steps must be nonzero".into());
        }
        if self.fine_step > self.coarse_step {
            return err("fine_step must not exceed coarse_step".into());
        }
        if self.fine_radius < self.coarse_step {
            return err("fine_radius must cover at least one coarse step".into());
        }
        for (name, v) in [
            ("alpha", self.alpha),
            ("beta_fraction", self.beta_fraction),
            ("epsilon", self.epsilon),
        ] {
            if !(0.0..1.0).contains(&v) || v <= 0.0 {
                return err(format!("{name} = {v} must lie in (0, 1)"));
            }
        }
        if self.beta_fraction >= self.alpha {
            return err(format!(
                "beta_fraction {} must be < alpha {} (required for the all-frequency \
                 spoofing defense, paper Sec. V)",
                self.beta_fraction, self.alpha
            ));
        }
        if self.max_amplitude <= 0.0 || self.max_amplitude > 32_767.0 {
            return err("max_amplitude must be in (0, 32767]".into());
        }
        if self.theta == 0 {
            return err("theta must be at least 1 bin".into());
        }
        if !(100.0..1000.0).contains(&self.assumed_speed_of_sound) {
            return err(format!(
                "assumed_speed_of_sound {} is not a plausible speed of sound",
                self.assumed_speed_of_sound
            ));
        }
        // Candidate clusters must not overlap (θ bins each side).
        let min_gap_hz = self.grid.bin_width_hz();
        let fft_bin_hz = self.sample_rate / self.signal_len as f64;
        if min_gap_hz <= 2.0 * self.theta as f64 * fft_bin_hz {
            return err(format!(
                "candidate spacing {min_gap_hz:.1} Hz too small for θ = {} clusters",
                self.theta
            ));
        }
        let signal_s = self.signal_len as f64 / self.sample_rate;
        if self.play_offset_vouch_s < self.play_offset_auth_s + signal_s {
            return err("vouching playback would overlap the authenticating signal".into());
        }
        // Leave headroom for latency jitter, propagation, and a full window.
        if self.recording_duration_s < self.play_offset_vouch_s + signal_s + 0.3 {
            return err(format!(
                "recording_duration_s {} too short for the playback schedule",
                self.recording_duration_s
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_faithful() {
        let c = ActionConfig::default();
        c.validate().unwrap();
        assert_eq!(c.signal_len, 4096);
        assert_eq!(c.theta, 5);
        assert!((c.alpha - 0.01).abs() < 1e-12);
        assert!((c.beta_fraction - 0.005).abs() < 1e-12);
        assert!((c.epsilon - 0.01).abs() < 1e-12);
        assert_eq!(c.coarse_step, 1000);
        assert_eq!(c.fine_step, 10);
        assert_eq!(c.grid.len(), 30);
        // 4096 samples at 44.1 kHz last 92.9 ms, the paper's "93 ms".
        assert!((c.signal_len as f64 / c.sample_rate - 0.0929).abs() < 1e-3);
    }

    #[test]
    fn reference_power_matches_paper_formula() {
        let c = ActionConfig::default();
        assert!((c.reference_power(1) - 32_000.0f64.powi(2)).abs() < 1e-6);
        assert!((c.reference_power(16) - 2_000.0f64.powi(2)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one tone")]
    fn reference_power_rejects_zero_tones() {
        let _ = ActionConfig::default().reference_power(0);
    }

    #[test]
    fn recording_len_is_rate_times_duration() {
        let c = ActionConfig::default();
        assert_eq!(c.recording_len(), 88_200);
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = ActionConfig::default;

        let mut c = base();
        c.signal_len = 4000;
        assert!(c.validate().is_err());

        let mut c = base();
        c.fine_step = 2000;
        assert!(c.validate().is_err());

        let mut c = base();
        c.fine_radius = 10;
        assert!(c.validate().is_err());

        let mut c = base();
        c.beta_fraction = 0.02; // β ≥ α breaks the spoofing defense
        assert!(c.validate().is_err());

        let mut c = base();
        c.alpha = 0.0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.max_amplitude = 100_000.0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.theta = 40; // clusters would swallow neighbouring candidates
        assert!(c.validate().is_err());

        let mut c = base();
        c.play_offset_vouch_s = c.play_offset_auth_s + 0.01; // overlap
        assert!(c.validate().is_err());

        let mut c = base();
        c.recording_duration_s = 1.0; // too short for the schedule
        assert!(c.validate().is_err());
    }

    #[test]
    fn error_messages_name_the_field() {
        let c = ActionConfig {
            beta_fraction: 0.5,
            ..ActionConfig::default()
        };
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("beta_fraction"), "unhelpful message: {msg}");
    }
}
