//! Activation spilling: compress saved forward activations on the tape.
//!
//! The paper's Fig. 1 marks activations as a compression target it leaves
//! to future work (§2.2 cites ActNN and COMET); this module is that hook
//! made concrete. A [`SpillPolicy`] owns any [`Codec`] and is installed on
//! a [`crate::Tape`] ([`crate::Tape::set_spill_policy`]): every saved
//! activation large enough to matter is compressed to its host byte
//! stream as it is recorded, and decompressed (a *rematerialization*) when
//! the forward or backward pass touches it again. A [`SpillLedger`]
//! accounts raw vs. resident bytes per step, so training harnesses can
//! report memory-saved against accuracy-delta (the
//! `fig_ac_activation_compression` sweep).
//!
//! With a lossless codec (`ebpc-len*`) the round-trip is bit-exact, so
//! training losses are bit-identical to no-spill runs — the CI smoke
//! asserts exactly that. Lossy codecs (`dct2d-*`, `fmap-*`) trade gradient
//! fidelity for residency; [`gradient_error`] quantifies the trade.

use aicomp_core::Codec;
use aicomp_tensor::Tensor;

/// Per-step (or per-run) accounting of what spilling did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpillLedger {
    /// Saved activations that were spilled.
    pub spilled_tensors: usize,
    /// Raw f32 bytes of the spilled activations (what a no-spill tape
    /// would keep resident).
    pub raw_bytes: u64,
    /// Encoded stream bytes actually kept resident for them.
    pub compressed_bytes: u64,
    /// Saved activations below the size threshold, kept live.
    pub kept_tensors: usize,
    /// Raw bytes of the kept (live) activations.
    pub kept_bytes: u64,
    /// Decompressions triggered by forward/backward reads.
    pub remats: u64,
}

impl SpillLedger {
    /// Measured compression ratio over the spilled set (raw / resident).
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Peak saved-activation residency without spilling: every saved
    /// tensor held raw.
    pub fn peak_bytes_no_spill(&self) -> u64 {
        self.raw_bytes + self.kept_bytes
    }

    /// Peak saved-activation residency with spilling: compressed streams
    /// plus the small tensors kept live.
    pub fn peak_bytes_spilled(&self) -> u64 {
        self.compressed_bytes + self.kept_bytes
    }

    /// Bytes saved by spilling.
    pub fn bytes_saved(&self) -> u64 {
        self.peak_bytes_no_spill().saturating_sub(self.peak_bytes_spilled())
    }

    /// Fold another ledger into this one (aggregate across steps).
    pub fn merge(&mut self, other: &SpillLedger) {
        self.spilled_tensors += other.spilled_tensors;
        self.raw_bytes += other.raw_bytes;
        self.compressed_bytes += other.compressed_bytes;
        self.kept_tensors += other.kept_tensors;
        self.kept_bytes += other.kept_bytes;
        self.remats += other.remats;
    }
}

/// Compresses saved activations through a [`Codec`]'s host byte path.
///
/// Activations rarely match the codec's native geometry, so the policy
/// packs: flatten, zero-pad to a whole number of codec units, reshape to
/// `[units, ...input_shape]`. Zero padding is harmless for every
/// registered codec — EBPC's zero-mask absorbs it in one bit per word and
/// chop-family transforms map zeros to zeros.
pub struct SpillPolicy {
    codec: Box<dyn Codec>,
    min_numel: usize,
    ledger: SpillLedger,
}

impl std::fmt::Debug for SpillPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillPolicy")
            .field("codec", &self.codec.name())
            .field("min_numel", &self.min_numel)
            .field("ledger", &self.ledger)
            .finish()
    }
}

impl SpillPolicy {
    /// Spill through `codec`, leaving tensors under `min_numel` elements
    /// live (compressing a 10-element bias stream costs more than it
    /// saves).
    pub fn new(codec: Box<dyn Codec>, min_numel: usize) -> Self {
        SpillPolicy { codec, min_numel, ledger: SpillLedger::default() }
    }

    /// The codec's canonical spec name.
    pub fn codec_name(&self) -> String {
        self.codec.name()
    }

    /// Accounting so far.
    pub fn ledger(&self) -> SpillLedger {
        self.ledger
    }

    /// Try to spill `t`: returns the encoded stream if `t` is large
    /// enough, or `None` (tensor stays live) otherwise.
    pub fn try_spill(&mut self, t: &Tensor) -> Option<Vec<u8>> {
        if t.numel() < self.min_numel {
            self.ledger.kept_tensors += 1;
            self.ledger.kept_bytes += t.numel() as u64 * 4;
            return None;
        }
        let packed = pack(t, &self.codec.input_shape());
        let bytes = self.codec.encode_bytes(&packed).expect("packed shape matches codec");
        self.ledger.spilled_tensors += 1;
        self.ledger.raw_bytes += t.numel() as u64 * 4;
        self.ledger.compressed_bytes += bytes.len() as u64;
        Some(bytes)
    }

    /// Decompress a spilled stream back to its original `dims` — one
    /// rematerialization.
    pub fn restore(&mut self, bytes: &[u8], dims: &[usize]) -> Tensor {
        self.ledger.remats += 1;
        let padded = padded_dims(dims, &self.codec.input_shape());
        let rec = self.codec.decode_bytes(bytes, &padded).expect("stream written by try_spill");
        unpack(&rec, dims)
    }
}

/// Padded `[units, ...unit_shape]` geometry holding `dims`' elements.
fn padded_dims(dims: &[usize], unit_shape: &[usize]) -> Vec<usize> {
    let unit: usize = unit_shape.iter().product();
    let numel: usize = dims.iter().product();
    let units = numel.div_ceil(unit).max(1);
    std::iter::once(units).chain(unit_shape.iter().copied()).collect()
}

/// Flatten `t` and zero-pad into codec units.
fn pack(t: &Tensor, unit_shape: &[usize]) -> Tensor {
    let target = padded_dims(t.dims(), unit_shape);
    let total: usize = target.iter().product();
    let mut data = t.data().to_vec();
    data.resize(total, 0.0);
    Tensor::from_vec(data, target).expect("padded count")
}

/// Inverse of [`pack`]: drop the zero padding, restore `dims`.
fn unpack(rec: &Tensor, dims: &[usize]) -> Tensor {
    let numel: usize = dims.iter().product();
    let mut data = rec.data().to_vec();
    data.truncate(numel);
    Tensor::from_vec(data, dims.to_vec()).expect("original count")
}

/// Relative L2 gradient error: `‖g − g_ref‖₂ / ‖g_ref‖₂` over the
/// concatenation of all parameter gradients. The spill sweep reports this
/// next to memory-saved so lossy codecs can be ranked.
pub fn gradient_error(got: &[Tensor], reference: &[Tensor]) -> f64 {
    assert_eq!(got.len(), reference.len(), "one gradient per parameter");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (g, r) in got.iter().zip(reference.iter()) {
        assert_eq!(g.dims(), r.dims(), "gradient shapes agree");
        for (&a, &b) in g.data().iter().zip(r.data().iter()) {
            let d = (a - b) as f64;
            num += d * d;
            den += (b as f64) * (b as f64);
        }
    }
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aicomp_core::CodecSpec;

    fn ramp(n: usize) -> Tensor {
        Tensor::from_vec((0..n).map(|i| ((i % 13) as f32) / 3.0 - 2.0).collect(), [n]).unwrap()
    }

    #[test]
    fn lossless_spill_roundtrips_bit_exact_with_padding() {
        let codec = CodecSpec::Ebpc { len: 64 }.build().unwrap();
        let mut policy = SpillPolicy::new(codec, 1);
        // 100 is not a multiple of 64 — exercises the zero-pad path.
        let x = ramp(100).reshape([4usize, 25]).unwrap();
        let bytes = policy.try_spill(&x).unwrap();
        let back = policy.restore(&bytes, x.dims());
        assert_eq!(back.dims(), x.dims());
        let a: Vec<u32> = x.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = back.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        let ledger = policy.ledger();
        assert_eq!(ledger.spilled_tensors, 1);
        assert_eq!(ledger.raw_bytes, 400);
        assert_eq!(ledger.remats, 1);
    }

    #[test]
    fn small_tensors_stay_live() {
        let codec = CodecSpec::Ebpc { len: 64 }.build().unwrap();
        let mut policy = SpillPolicy::new(codec, 1000);
        assert!(policy.try_spill(&ramp(10)).is_none());
        let ledger = policy.ledger();
        assert_eq!(ledger.kept_tensors, 1);
        assert_eq!(ledger.kept_bytes, 40);
        assert_eq!(ledger.spilled_tensors, 0);
    }

    #[test]
    fn lossy_spill_restores_within_codec_error() {
        let codec = CodecSpec::Dct2d { n: 32, cf: 8 }.build().unwrap(); // cf=8 ≈ lossless
        let mut policy = SpillPolicy::new(codec, 1);
        let x = ramp(32 * 32);
        let bytes = policy.try_spill(&x).unwrap();
        let back = policy.restore(&bytes, x.dims());
        assert!(back.allclose(&x, 1e-3));
    }

    #[test]
    fn ledger_merges_and_reports_savings() {
        let mut a = SpillLedger {
            spilled_tensors: 1,
            raw_bytes: 1000,
            compressed_bytes: 250,
            kept_tensors: 2,
            kept_bytes: 64,
            remats: 3,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.raw_bytes, 2000);
        assert_eq!(a.remats, 6);
        assert_eq!(a.compression_ratio(), 4.0);
        assert_eq!(a.peak_bytes_no_spill(), 2128);
        assert_eq!(a.peak_bytes_spilled(), 628);
        assert_eq!(a.bytes_saved(), 1500);
    }

    #[test]
    fn gradient_error_is_zero_for_identical_and_scales() {
        let g = vec![ramp(16)];
        assert_eq!(gradient_error(&g, &g), 0.0);
        let doubled = vec![g[0].scale(2.0)];
        let e = gradient_error(&doubled, &g);
        assert!((e - 1.0).abs() < 1e-6, "relative error of 2g vs g is 1, got {e}");
    }
}
