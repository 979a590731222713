//! Environment presets.
//!
//! The paper evaluates PIANO "in a shared office, at home, on the street,
//! and in a restaurant … represent\[ing\] different levels of background
//! noises" (Sec. VI-B1). An [`Environment`] bundles everything that varies
//! between those places: the noise profile, the air temperature (speed of
//! sound), and the room's early-reflection statistics.
//!
//! Noise levels below are calibrated (see `piano-eval`'s calibration
//! experiment) so the simulated per-environment ranging jitter reproduces
//! Fig. 1's ordering and magnitudes: office ≈ 5–7 cm mean absolute error,
//! street ≈ 10–15 cm, with home and restaurant in between.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::noise::NoiseProfile;

/// Statistics for randomized early reflections (image-source style echoes).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReflectionSpec {
    /// Minimum and maximum number of echoes per propagation path.
    pub count: (usize, usize),
    /// Extra path delay range in milliseconds.
    pub delay_ms: (f64, f64),
    /// Echo amplitude relative to the direct path, in dB (negative).
    pub gain_db: (f64, f64),
}

impl ReflectionSpec {
    /// No reflections at all (anechoic).
    pub fn none() -> Self {
        ReflectionSpec {
            count: (0, 0),
            delay_ms: (0.0, 0.0),
            gain_db: (0.0, 0.0),
        }
    }

    /// Samples a concrete set of `(extra_delay_s, amplitude_gain)` echoes.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> Vec<(f64, f64)> {
        let n = if self.count.1 > self.count.0 {
            rng.gen_range(self.count.0..=self.count.1)
        } else {
            self.count.0
        };
        (0..n)
            .map(|_| {
                let delay_s = if self.delay_ms.1 > self.delay_ms.0 {
                    rng.gen_range(self.delay_ms.0..self.delay_ms.1) / 1_000.0
                } else {
                    self.delay_ms.0 / 1_000.0
                };
                let gain_db = if self.gain_db.1 > self.gain_db.0 {
                    rng.gen_range(self.gain_db.0..self.gain_db.1)
                } else {
                    self.gain_db.0
                };
                (delay_s, piano_dsp::db::db_to_amplitude(gain_db))
            })
            .collect()
    }
}

/// A complete acoustic environment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Human-readable name ("office", "street", …).
    pub name: String,
    /// Background noise generator.
    pub noise: NoiseProfile,
    /// Air temperature in °C (sets the speed of sound).
    pub temperature_c: f64,
    /// Early-reflection statistics for propagation paths.
    pub reflections: ReflectionSpec,
    /// Per-trial inter-device path-length perturbation, as a *relative*
    /// standard deviation (fraction of the nominal distance; the draw is
    /// clamped to ±25 %).
    ///
    /// The paper's per-environment error bars (Fig. 1) fold in everything
    /// that varied between its hand-run trials: device re-placement and
    /// orientation (speaker/mic ports sit centimeters from the case
    /// center), people moving nearby, outdoor air currents. ACTION's
    /// detector itself is nearly immune to stationary background noise (the
    /// sanity checks reject corrupted windows outright rather than
    /// degrading gracefully), so this explicit per-trial geometry jitter is
    /// the calibrated stand-in for those unmodeled trial-to-trial factors —
    /// set per environment with `piano-core`'s `calibrate` example against
    /// the Fig. 1 errors. Zero-mean: it perturbs precision, not truth.
    pub path_jitter_rel: f64,
}

impl Environment {
    /// Shared office (paper Fig. 1a): moderate chatter and HVAC, quiet in
    /// the signal band, reflective interior.
    pub fn office() -> Self {
        Environment {
            name: "office".to_owned(),
            noise: NoiseProfile::new("office", 300.0, 11.0).with_tone(120.0, 60.0),
            temperature_c: 21.0,
            reflections: ReflectionSpec {
                count: (2, 4),
                delay_ms: (1.0, 10.0),
                gain_db: (-30.0, -22.0),
            },
            path_jitter_rel: 0.035,
        }
    }

    /// Home (paper Fig. 1b): TV/appliance noise, soft furnishings.
    pub fn home() -> Self {
        Environment {
            name: "home".to_owned(),
            noise: NoiseProfile::new("home", 500.0, 20.0).with_tone(60.0, 80.0),
            temperature_c: 22.0,
            reflections: ReflectionSpec {
                count: (2, 4),
                delay_ms: (1.5, 12.0),
                gain_db: (-32.0, -24.0),
            },
            path_jitter_rel: 0.075,
        }
    }

    /// Street (paper Fig. 1c): traffic rumble plus substantial broadband
    /// tire/wind hiss reaching the signal band — the noisiest scenario.
    pub fn street() -> Self {
        Environment {
            name: "street".to_owned(),
            noise: NoiseProfile::new("street", 2_200.0, 30.0).with_tone(95.0, 300.0),
            temperature_c: 15.0,
            reflections: ReflectionSpec {
                count: (0, 2),
                delay_ms: (4.0, 25.0),
                gain_db: (-36.0, -28.0),
            },
            path_jitter_rel: 0.105,
        }
    }

    /// Restaurant (paper Fig. 1d): babble and cutlery clatter.
    pub fn restaurant() -> Self {
        Environment {
            name: "restaurant".to_owned(),
            noise: NoiseProfile::new("restaurant", 1_200.0, 17.0).with_tone(180.0, 120.0),
            temperature_c: 22.0,
            reflections: ReflectionSpec {
                count: (3, 5),
                delay_ms: (1.0, 9.0),
                gain_db: (-30.0, -21.0),
            },
            path_jitter_rel: 0.060,
        }
    }

    /// A perfectly quiet, reflection-free room — not a paper scenario, but
    /// the right fixture for isolating algorithmic error sources in tests.
    pub fn anechoic() -> Self {
        Environment {
            name: "anechoic".to_owned(),
            noise: NoiseProfile::silent(),
            temperature_c: 20.0,
            reflections: ReflectionSpec::none(),
            path_jitter_rel: 0.0,
        }
    }

    /// The four paper environments in Fig. 1 order.
    pub fn paper_environments() -> Vec<Environment> {
        vec![
            Self::office(),
            Self::home(),
            Self::street(),
            Self::restaurant(),
        ]
    }

    /// Speed of sound at this environment's temperature (m/s).
    pub fn speed_of_sound(&self) -> f64 {
        crate::speed_of_sound(self.temperature_c)
    }

    /// Replaces the noise profile, returning the modified environment —
    /// used by noise-sweep ablations.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseProfile) -> Self {
        self.noise = noise;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn presets_have_expected_names() {
        assert_eq!(Environment::office().name, "office");
        assert_eq!(Environment::home().name, "home");
        assert_eq!(Environment::street().name, "street");
        assert_eq!(Environment::restaurant().name, "restaurant");
        assert_eq!(Environment::paper_environments().len(), 4);
    }

    #[test]
    fn disturbance_ordering_matches_fig1() {
        // Fig. 1 accuracy ordering: office best, street worst; home and
        // restaurant in between. Both the broadband noise tail and the
        // per-trial path jitter must respect it.
        let envs = [
            Environment::office(),
            Environment::restaurant(),
            Environment::home(),
            Environment::street(),
        ];
        for w in envs.windows(2) {
            assert!(w[0].noise.broadband_rms < w[1].noise.broadband_rms);
            assert!(w[0].path_jitter_rel < w[1].path_jitter_rel);
        }
    }

    #[test]
    fn anechoic_is_silent_and_dry() {
        let env = Environment::anechoic();
        assert_eq!(env.noise.low_band_rms, 0.0);
        assert_eq!(env.reflections.count, (0, 0));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(env.reflections.sample(&mut rng).is_empty());
    }

    #[test]
    fn speed_of_sound_tracks_temperature() {
        assert!(Environment::street().speed_of_sound() < Environment::home().speed_of_sound());
    }

    #[test]
    fn reflection_sampling_respects_ranges() {
        let spec = ReflectionSpec {
            count: (2, 4),
            delay_ms: (1.0, 10.0),
            gain_db: (-24.0, -14.0),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            let echoes = spec.sample(&mut rng);
            assert!((2..=4).contains(&echoes.len()));
            for (delay, gain) in echoes {
                assert!((0.001..0.010).contains(&delay));
                let db = piano_dsp::db::amplitude_to_db(gain);
                assert!((-24.0..-14.0).contains(&db), "gain {db} dB");
            }
        }
    }

    #[test]
    fn fixed_point_reflection_spec_is_deterministic() {
        let spec = ReflectionSpec {
            count: (1, 1),
            delay_ms: (5.0, 5.0),
            gain_db: (-20.0, -20.0),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let echoes = spec.sample(&mut rng);
        assert_eq!(echoes.len(), 1);
        assert!((echoes[0].0 - 0.005).abs() < 1e-12);
    }
}
