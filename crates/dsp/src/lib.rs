//! # piano-dsp
//!
//! Self-contained digital signal processing primitives for the PIANO
//! reproduction (Gong et al., ICDCS 2017).
//!
//! Everything in this crate is implemented from scratch — no external DSP
//! dependencies — because the reproduction needs full control over numerics
//! (the paper's Algorithm 2 indexes a raw, full-length power spectrum,
//! including bins above Nyquist) and deterministic behaviour across
//! platforms.
//!
//! The crate provides:
//!
//! * [`Complex64`] — minimal complex arithmetic ([`complex`]).
//! * [`fft`] — iterative radix-2 Cooley–Tukey FFT/IFFT and real-signal
//!   helpers.
//! * [`sparse`] — sparse spectral evaluation: Goertzel bank and the
//!   sliding DFT behind the detector's fine scan.
//! * [`simd`] — the runtime-dispatched SIMD kernel layer (SSE2/AVX2 on
//!   x86_64, NEON on aarch64) behind the FFT butterflies, the sliding
//!   DFT, and the Goertzel bank, with the scalar kernels as the
//!   universal fallback and bit-exact reference.
//! * [`spectrum`] — power spectra normalized so a sine of amplitude `B`
//!   measures `B²` at its bin, matching the paper's `R_f = (32000/n)²`
//!   convention.
//! * [`window`] — Hann / Hamming / Blackman / rectangular windows.
//! * [`correlate`] — direct and FFT-based cross-correlation (the ACTION-CC
//!   baseline of Fig. 2b is built on this).
//! * [`filter`] — windowed-sinc FIR design and convolution.
//! * [`resample`] — fractional-sample delay and clock-skew resampling used
//!   by the acoustic channel simulator.
//! * [`tone`] — sine/multi-tone synthesis (Step I of ACTION).
//! * [`stats`] — streaming statistics, percentiles, and the Gaussian
//!   Q-function used by the paper's FRR/FAR model (Sec. VI-C).
//! * [`db`] — decibel conversions.
//!
//! # Performance architecture
//!
//! The detector's scan loop (paper Algorithm 1) is the system's hottest
//! path, and this crate is engineered so that loop touches no avoidable
//! work:
//!
//! 1. **Plan cache** — [`fft::cached_plan`] / [`fft::cached_real_plan`]
//!    memoize twiddle/bit-reversal tables per transform size behind a
//!    `OnceLock`, so one-shot spectra, correlation, and FIR convolution
//!    never rebuild trigonometric tables.
//! 2. **Real-input FFT** — [`fft::RealFftPlan`] computes an N-point real
//!    spectrum through one N/2-point complex transform (≈2× fewer
//!    butterflies than the retained [`fft::fft_real_padded`] reference).
//! 3. **Branch-free butterflies** — [`fft::FftPlan`] keeps separate
//!    forward and inverse twiddle tables, removing the per-butterfly
//!    conjugation branch.
//! 4. **Sparse evaluation** — [`sparse::GoertzelBank`] evaluates exactly
//!    the bins a caller needs, and [`sparse::SlidingDft`] updates tracked
//!    bins in `O(step)` per window shift, which is what makes the
//!    detector's 10-sample fine scan effectively free compared to dense
//!    re-transformation.
//! 5. **SIMD dispatch** — the butterfly stages, the sliding-DFT
//!    correction loop, and the Goertzel bank run vectorized
//!    ([`simd`]: SSE2/AVX2/NEON, runtime-selected, `PIANO_DSP_SIMD`
//!    overridable) with a **bit-exact** contract against the scalar
//!    reference, so backend choice can never move a detection
//!    threshold.
//!
//! Everything is allocation-free on the hot path: callers own scratch
//! buffers ([`spectrum::SpectrumScratch`]) and analyzers are immutable and
//! `Sync`, so threads share plans without locks.
//!
//! # Example
//!
//! ```
//! use piano_dsp::{spectrum, tone};
//!
//! // Synthesize a 1 kHz tone and confirm its power lands in the right bin.
//! let fs = 44_100.0;
//! let sine = tone::sine(1_000.0, 0.0, 100.0, fs, 4096);
//! let ps = spectrum::power_spectrum(&sine);
//! let peak = spectrum::peak_bin(&ps, 1..2048);
//! assert_eq!(peak, (1_000.0 / fs * 4096.0).round() as usize);
//! ```

pub mod complex;
pub mod correlate;
pub mod db;
pub mod fft;
pub mod filter;
pub mod resample;
pub mod simd;
pub mod sparse;
pub mod spectrum;
pub mod stats;
pub mod tone;
pub mod window;

pub use complex::Complex64;
