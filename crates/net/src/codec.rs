//! The `f64` ⇄ i16 quantization layer over the wire codec.
//!
//! The wire format itself — fixed linear predictors, zigzag varint
//! residuals, the [`Message::AudioBatchI16`] tag — lives in
//! [`piano_core::wire`] next to the other message codecs; this module
//! adds what a transport endpoint needs around it:
//!
//! * quantization of simulated `f64` recordings onto the i16 grid (a
//!   real microphone's PCM is already there — quantization at the sender
//!   models the hardware, it is not a codec artifact);
//! * batch encoding under a negotiated [`WireCodec`];
//! * byte accounting: what a frame *would* have cost as raw `f64`
//!   batches, so [`piano_core::stream::ServiceStats`] can report the
//!   codec's wire saving without re-encoding anything.
//!
//! # Codec format (normative)
//!
//! An `AudioBatchI16` payload is
//! `tag(7) | session u64 | start_seq u32 | n_chunks u16 | chunk…` with
//! each chunk `order u8 | n u32 | n residual varints`. `order` selects a
//! fixed predictor (0 = verbatim, 1 = first difference, 2 = second
//! difference); the encoder picks the cheapest per chunk. Residuals are
//! `sample − prediction` in `i32`, zigzag-mapped and LEB128-encoded.
//! Silence costs one byte per sample, in-band tones typically two; the
//! worst case (alternating `i16::MIN`/`i16::MAX`) costs three — still
//! under half the raw eight. Decoding is exact: the quantized samples
//! come back bit-for-bit, for every input (property-tested in
//! `tests/codec_roundtrip.rs`).

use piano_core::wire::{Message, WireCodec};

/// Quantizes one sample onto the i16 grid: round half away from zero,
/// clamp to the representable range — the transfer function of a 16-bit
/// ADC fed a full-scale signal.
pub fn quantize(sample: f64) -> i16 {
    let r = sample.round();
    if r <= i16::MIN as f64 {
        i16::MIN
    } else if r >= i16::MAX as f64 {
        i16::MAX
    } else {
        r as i16
    }
}

/// Quantizes a recording onto the i16 grid and widens it back to `f64`.
///
/// Hosts that compare transport ingestion against direct
/// [`piano_core::stream::AuthService`] ingestion feed *this* to both
/// paths: past it, the i16 codec is lossless, so the two produce
/// identical decisions.
pub fn quantize_samples(samples: &[f64]) -> Vec<f64> {
    samples.iter().map(|&s| quantize(s) as f64).collect()
}

/// Quantizes chunked audio for the compressed wire representation.
pub fn quantize_chunks(chunks: &[Vec<f64>]) -> Vec<Vec<i16>> {
    chunks
        .iter()
        .map(|c| c.iter().map(|&s| quantize(s)).collect())
        .collect()
}

/// Widens decoded i16 chunks back to the `f64` samples the scan consumes.
///
/// Accepts any chunk representation that exposes its samples as a slice —
/// plain `Vec<i16>` chunks or the pooled [`piano_core::wire::Samples`]
/// handles a decoded [`Message::AudioBatchI16`] carries.
pub fn widen_chunks<C: AsRef<[i16]>>(chunks: &[C]) -> Vec<Vec<f64>> {
    chunks
        .iter()
        .map(|c| c.as_ref().iter().map(|&q| q as f64).collect())
        .collect()
}

/// Encodes one batch of audio chunks under the connection's negotiated
/// codec: a raw [`Message::AudioBatch`] for [`WireCodec::Raw`], a
/// quantized [`Message::AudioBatchI16`] for [`WireCodec::I16Delta`].
pub fn encode_audio_batch(
    codec: WireCodec,
    session: u64,
    start_seq: u32,
    chunks: &[Vec<f64>],
) -> Message {
    match codec {
        WireCodec::Raw => Message::AudioBatch {
            session,
            start_seq,
            chunks: chunks.to_vec().into(),
        },
        WireCodec::I16Delta => Message::AudioBatchI16 {
            session,
            start_seq,
            chunks: quantize_chunks(chunks).into(),
        },
    }
}

/// The framed wire size the samples of `msg` would occupy as the *raw*
/// `f64` representation — the codec-off baseline `ServiceStats` compares
/// actual wire bytes against. Computed arithmetically from the message
/// headers (no re-encoding): `AudioChunk` is `4 + 17 + 8·n` bytes framed,
/// a batch is `4 + 15 + Σ (4 + 8·nᵢ)`, and `RecheckAudio` (always raw) is
/// `4 + 22 + 8·n`. Non-audio messages cost 0.
pub fn raw_framed_audio_bytes(msg: &Message) -> u64 {
    match msg {
        Message::AudioChunk { samples, .. } => 4 + 17 + 8 * samples.len() as u64,
        Message::AudioBatch { chunks, .. } => {
            4 + 15 + chunks.iter().map(|c| 4 + 8 * c.len() as u64).sum::<u64>()
        }
        Message::AudioBatchI16 { chunks, .. } => {
            4 + 15 + chunks.iter().map(|c| 4 + 8 * c.len() as u64).sum::<u64>()
        }
        Message::RecheckAudio { samples, .. } => 4 + 22 + 8 * samples.len() as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_rounds_and_clamps() {
        assert_eq!(quantize(0.0), 0);
        assert_eq!(quantize(0.49), 0);
        assert_eq!(quantize(0.5), 1);
        assert_eq!(quantize(-0.5), -1);
        assert_eq!(quantize(12_345.4), 12_345);
        assert_eq!(quantize(1e9), i16::MAX);
        assert_eq!(quantize(-1e9), i16::MIN);
        assert_eq!(quantize(32_767.2), 32_767);
        assert_eq!(quantize(32_767.6), i16::MAX);
        assert_eq!(quantize(-32_768.4), i16::MIN);
    }

    #[test]
    fn quantize_samples_is_idempotent() {
        let rec = vec![0.25, -1.75, 100.0, 40_000.0, -40_000.0];
        let once = quantize_samples(&rec);
        assert_eq!(quantize_samples(&once), once);
        assert_eq!(once, vec![0.0, -2.0, 100.0, 32_767.0, -32_768.0]);
    }

    #[test]
    fn raw_framed_bytes_match_actual_raw_encoding() {
        let chunks = vec![vec![1.0, -2.0, 3.0], vec![], vec![0.5; 7]];
        let raw = Message::AudioBatch {
            session: 9,
            start_seq: 2,
            chunks: chunks.clone().into(),
        };
        assert_eq!(
            raw_framed_audio_bytes(&raw),
            raw.encode_framed().len() as u64
        );
        let compressed = encode_audio_batch(WireCodec::I16Delta, 9, 2, &chunks);
        assert_eq!(
            raw_framed_audio_bytes(&compressed),
            raw.encode_framed().len() as u64,
            "the baseline for a compressed batch is its raw equivalent"
        );
        let chunk = Message::AudioChunk {
            session: 9,
            seq: 0,
            samples: vec![4.0; 11].into(),
        };
        assert_eq!(
            raw_framed_audio_bytes(&chunk),
            chunk.encode_framed().len() as u64
        );
        for n in [0, 11] {
            let recheck = Message::RecheckAudio {
                session: 9,
                round: 2,
                seq: 1,
                done: n == 0,
                samples: vec![4.0; n],
            };
            assert_eq!(
                raw_framed_audio_bytes(&recheck),
                recheck.encode_framed().len() as u64
            );
        }
        assert_eq!(
            raw_framed_audio_bytes(&Message::StreamEnd { session: 9 }),
            0
        );
    }

    #[test]
    fn encode_audio_batch_respects_the_codec() {
        let chunks = vec![vec![3.2, -8.9]];
        match encode_audio_batch(WireCodec::Raw, 1, 0, &chunks) {
            Message::AudioBatch { chunks: c, .. } => assert_eq!(c, chunks),
            other => panic!("expected raw batch, got {other:?}"),
        }
        match encode_audio_batch(WireCodec::I16Delta, 1, 0, &chunks) {
            Message::AudioBatchI16 { chunks: c, .. } => assert_eq!(c, vec![vec![3, -9]]),
            other => panic!("expected i16 batch, got {other:?}"),
        }
    }
}
