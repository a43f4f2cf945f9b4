//! Transform-domain feature-map codec for activations.
//!
//! Modeled on *"Transform-Based Feature Map Compression for CNN
//! Inference"* (see PAPERS.md), rebuilt from the paper's own DCT+Chop
//! parts: the chop stage reuses [`OperatorMatrices`] unchanged, then each
//! kept coefficient is quantized with a per-frequency power-of-two step —
//! low frequencies (which carry feature-map energy) get fine steps, high
//! frequencies coarse ones — and the quantized integers are entropy-coded
//! with the EBPC bit-plane coder ([`crate::ebpc`]).
//!
//! Portability is preserved the same way the paper's compressor achieves
//! it (§3.1–3.3): the frequency weights are *folded into the operator
//! matrices* (a diagonal scaling merges into the adjacent matmul
//! constant), so the device graph is still two matmuls plus one
//! elementwise `round` — all expressible in every accelerator's PyTorch
//! dialect. The bit-plane entropy stage stays on the host, exactly like
//! the `.dcz` container's Huffman stage.
//!
//! Numerically: `Y = round(diag(w)·LHS · A · RHS·diag(w))` and
//! `A' = (D_LHS·diag(w)⁻¹) · Y · (diag(w)⁻¹·D_RHS)`, with
//! `w_i = 2^(q − (i mod cf))`. Powers of two make the fold and its inverse
//! exact in f32, and the worst-case reconstruction delta vs the
//! unquantized chop is the closed-form bound of
//! [`FmapCodec::quantization_error_bound`].

use aicomp_tensor::Tensor;

use crate::bitio::{int_to_negabinary, negabinary_to_int};
use crate::codec::{Codec, CodecSpec};
use crate::compressor::ChopCompressor;
use crate::ebpc::{decode_words, encode_words};
use crate::kernel::BlockKernel;
use crate::matrices::OperatorMatrices;
use crate::{CoreError, Result};

/// Largest allowed quantization exponent: `2^20` steps keep the scaled
/// coefficients far inside f32's exact-integer range.
pub const MAX_Q: usize = 20;

/// Byte-stream header: raw little-endian f32 payload (fallback when the
/// quantized coefficients exceed the exact i32 range).
const STREAM_RAW: u8 = 0;
/// Byte-stream header: negabinary + EBPC bit-plane payload.
const STREAM_EBPC: u8 = 1;

/// Coefficients at or below this magnitude convert to i32 exactly.
const I32_EXACT_LIMIT: f32 = (1u32 << 30) as f32;

/// The feature-map codec: DCT+Chop with folded per-frequency quantization.
#[derive(Debug, Clone)]
pub struct FmapCodec {
    chop: ChopCompressor,
    q: usize,
    /// The chop's operators with the weights folded in: `diag(w)·C_LHS`,
    /// `C_RHS·diag(w)`, `D_LHS·diag(w)⁻¹` and `diag(w)⁻¹·D_RHS`.
    folded: OperatorMatrices,
    /// The folded operators' diagonal blocks: `w` depends only on
    /// `i mod cf`, so every block of an operator is still scaled alike.
    kernel: BlockKernel,
    bound: f64,
}

impl FmapCodec {
    /// Build a feature-map codec for `n×n` units at chop factor `cf` with
    /// quantization exponent `q` (step `2^-(q − f)` for frequency `f`).
    pub fn new(n: usize, cf: usize, q: usize) -> Result<Self> {
        if q == 0 || q > MAX_Q {
            return Err(CoreError::BadSpec {
                spec: format!("fmap-n{n}-cf{cf}-q{q}"),
                why: format!("quantization exponent q must be in 1..={MAX_Q}"),
            });
        }
        let chop = ChopCompressor::new(n, cf)?;
        let cs = chop.compressed_side();
        let ops = chop.operators();
        // Frequency of compressed index i is `i mod cf`: mask row b·cf+r
        // selects block-frequency r (see `matrices::mask_matrix`).
        let w: Vec<f32> = (0..cs).map(|i| (2f32).powi(q as i32 - (i % cf) as i32)).collect();

        let folded = OperatorMatrices {
            c_lhs: scale_rows(&ops.c_lhs, &w, false),
            c_rhs: scale_cols(&ops.c_rhs, &w, false),
            d_lhs: scale_cols(&ops.d_lhs, &w, true),
            d_rhs: scale_rows(&ops.d_rhs, &w, true),
        };
        let kernel = BlockKernel::new(&folded, chop.block_size())?;

        // |ΔA'| = |D_LHS_w · ΔY · D_RHS_w| with |ΔY| ≤ ½ elementwise; the
        // bound factorizes over the two operands.
        let max_row = max_abs_row_sum(&folded.d_lhs);
        let max_col = max_abs_col_sum(&folded.d_rhs);
        let bound = 0.5 * max_row * max_col;

        Ok(FmapCodec { chop, q, folded, kernel, bound })
    }

    /// Unit resolution `n`.
    pub fn resolution(&self) -> usize {
        self.chop.resolution()
    }

    /// Chop factor.
    pub fn chop_factor(&self) -> usize {
        self.chop.chop_factor()
    }

    /// Side of the compressed (quantized-coefficient) matrix.
    pub fn compressed_side(&self) -> usize {
        self.chop.compressed_side()
    }

    /// Worst-case elementwise reconstruction delta of [`Codec::roundtrip`]
    /// vs the *unquantized* chop at the same geometry (the declared lossy
    /// error bound; frequency truncation error is the chop's own and is
    /// not included).
    pub fn quantization_error_bound(&self) -> f64 {
        self.bound
    }

    /// The four weight-folded operator constants `(c_lhs, c_rhs, d_lhs,
    /// d_rhs)` — what the accelerator pipeline places in device memory.
    pub fn folded_operators(&self) -> (&Tensor, &Tensor, &Tensor, &Tensor) {
        let f = &self.folded;
        (&f.c_lhs, &f.c_rhs, &f.d_lhs, &f.d_rhs)
    }

    /// The unweighted operator matrices of the underlying chop.
    pub fn operators(&self) -> &OperatorMatrices {
        self.chop.operators()
    }

    fn check(&self, t: &Tensor, side: usize) -> Result<()> {
        let d = t.dims();
        if d.len() < 2 || d[d.len() - 1] != side || d[d.len() - 2] != side {
            return Err(CoreError::Tensor(aicomp_tensor::TensorError::ShapeMismatch {
                op: "fmap compress/decompress",
                lhs: d.to_vec(),
                rhs: vec![side, side],
            }));
        }
        Ok(())
    }
}

/// `diag(w)·M` (or `diag(w)⁻¹·M` when `invert`): scale row `i` by `w[i]`.
fn scale_rows(m: &Tensor, w: &[f32], invert: bool) -> Tensor {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    debug_assert_eq!(rows, w.len());
    let mut out = m.clone();
    let data = out.data_mut();
    for r in 0..rows {
        let f = if invert { 1.0 / w[r] } else { w[r] };
        for v in &mut data[r * cols..(r + 1) * cols] {
            *v *= f;
        }
    }
    out
}

/// `M·diag(w)` (or `M·diag(w)⁻¹`): scale column `j` by `w[j]`.
fn scale_cols(m: &Tensor, w: &[f32], invert: bool) -> Tensor {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    debug_assert_eq!(cols, w.len());
    let mut out = m.clone();
    let data = out.data_mut();
    for r in 0..rows {
        for c in 0..cols {
            let f = if invert { 1.0 / w[c] } else { w[c] };
            data[r * cols + c] *= f;
        }
    }
    out
}

fn max_abs_row_sum(m: &Tensor) -> f64 {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    (0..rows)
        .map(|r| m.data()[r * cols..(r + 1) * cols].iter().map(|v| v.abs() as f64).sum::<f64>())
        .fold(0.0, f64::max)
}

fn max_abs_col_sum(m: &Tensor) -> f64 {
    let (rows, cols) = (m.dims()[0], m.dims()[1]);
    (0..cols)
        .map(|c| (0..rows).map(|r| m.data()[r * cols + c].abs() as f64).sum::<f64>())
        .fold(0.0, f64::max)
}

impl Codec for FmapCodec {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Fmap { n: self.resolution(), cf: self.chop_factor(), q: self.q }
    }

    /// `Y = round(C_LHS_w · A · C_RHS_w)` — the same two-matmul broadcast
    /// as the chop (§3.3), run one block at a time by the same kernel, then
    /// one elementwise round. The device graph mirrors this op-for-op, so
    /// host/device outputs are bit-identical.
    fn compress(&self, input: &Tensor) -> Result<Tensor> {
        self.check(input, self.resolution())?;
        Ok(self.kernel.compress(input)?.map(|v| v.round()))
    }

    /// `A' = D_LHS_w · Y · D_RHS_w` (§3.4 with the inverse weights folded).
    fn decompress(&self, compressed: &Tensor) -> Result<Tensor> {
        self.check(compressed, self.compressed_side())?;
        self.kernel.decompress(compressed)
    }

    /// The chop's Eq. 3 ratio — quantization does not change the f32
    /// element count of the numeric path; the extra byte-level gain shows
    /// up in [`Codec::encode_bytes`] stream lengths instead.
    fn compression_ratio(&self) -> f64 {
        self.chop.compression_ratio()
    }
    fn input_shape(&self) -> Vec<usize> {
        vec![self.resolution(), self.resolution()]
    }
    fn compressed_shape(&self) -> Vec<usize> {
        vec![self.compressed_side(), self.compressed_side()]
    }
    /// Eq. 5 plus one round per kept coefficient.
    fn compress_flops(&self) -> u64 {
        self.chop.compress_flops() + (self.compressed_side() * self.compressed_side()) as u64
    }
    /// Eq. 7 — the inverse weights are folded, so no extra ops.
    fn decompress_flops(&self) -> u64 {
        self.chop.decompress_flops()
    }

    /// Quantized coefficients → negabinary words → EBPC bit planes. Falls
    /// back to raw f32 bytes (1-byte header) if any coefficient exceeds
    /// the exact-i32 range.
    fn encode_bytes(&self, input: &Tensor) -> Result<Vec<u8>> {
        let y = self.compress(input)?;
        let exact = y.data().iter().all(|v| v.is_finite() && v.abs() <= I32_EXACT_LIMIT);
        if !exact {
            let mut out = Vec::with_capacity(1 + y.numel() * 4);
            out.push(STREAM_RAW);
            for v in y.data() {
                out.extend_from_slice(&v.to_le_bytes());
            }
            return Ok(out);
        }
        let words: Vec<u32> = y.data().iter().map(|&v| int_to_negabinary(v as i32)).collect();
        let mut out = vec![STREAM_EBPC];
        out.extend_from_slice(&encode_words(&words));
        Ok(out)
    }

    fn decode_bytes(&self, bytes: &[u8], dims: &[usize]) -> Result<Tensor> {
        if dims.len() < 2 {
            return Err(CoreError::Corrupt("fmap stream needs 2-D unit dims".into()));
        }
        let mut cdims = dims.to_vec();
        let r = cdims.len();
        cdims[r - 1] = self.compressed_side();
        cdims[r - 2] = self.compressed_side();
        let count: usize = cdims.iter().product();
        let (header, body) =
            bytes.split_first().ok_or_else(|| CoreError::Corrupt("empty fmap stream".into()))?;
        let data: Vec<f32> = match *header {
            STREAM_RAW => {
                if body.len() != count * 4 {
                    return Err(CoreError::Corrupt(format!(
                        "raw fmap stream is {} bytes, expected {}",
                        body.len(),
                        count * 4
                    )));
                }
                body.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
            }
            STREAM_EBPC => decode_words(body, count)?
                .into_iter()
                .map(|w| negabinary_to_int(w) as f32)
                .collect(),
            other => return Err(CoreError::Corrupt(format!("unknown fmap stream header {other}"))),
        };
        self.decompress(&Tensor::from_vec(data, cdims)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Tensor::seeded_rng(seed);
        Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn construction_validates() {
        assert!(FmapCodec::new(32, 4, 6).is_ok());
        assert!(FmapCodec::new(30, 4, 6).is_err()); // 30 % 8 != 0
        assert!(FmapCodec::new(32, 9, 6).is_err());
        assert!(FmapCodec::new(32, 4, 0).is_err());
        assert!(FmapCodec::new(32, 4, MAX_Q + 1).is_err());
    }

    #[test]
    fn shapes_and_ratio_match_chop() {
        let f = FmapCodec::new(32, 4, 6).unwrap();
        let chop = ChopCompressor::new(32, 4).unwrap();
        assert_eq!(f.compressed_shape(), vec![16, 16]);
        assert_eq!(f.compression_ratio(), chop.compression_ratio());
        assert_eq!(f.decompress_flops(), chop.decompress_flops());
        assert_eq!(f.compress_flops(), chop.compress_flops() + 256);
    }

    #[test]
    fn compressed_values_are_integers() {
        let f = FmapCodec::new(16, 3, 5).unwrap();
        let y = f.compress(&batch(&[2, 16, 16], 1)).unwrap();
        for &v in y.data() {
            assert_eq!(v, v.round());
        }
    }

    #[test]
    fn roundtrip_stays_within_declared_bound_of_chop() {
        for (n, cf, q) in [(16usize, 2usize, 4usize), (32, 4, 6), (24, 5, 8)] {
            let f = FmapCodec::new(n, cf, q).unwrap();
            let chop = ChopCompressor::new(n, cf).unwrap();
            let x = batch(&[3, n, n], 42);
            let rec_f = f.roundtrip(&x).unwrap();
            let rec_c = chop.roundtrip(&x).unwrap();
            let bound = f.quantization_error_bound();
            let max_delta = rec_f
                .data()
                .iter()
                .zip(rec_c.data())
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max);
            // Small fp slack: the folded matmuls accumulate in a different
            // order than the unfolded reference.
            assert!(max_delta <= bound * 1.01 + 1e-4, "n={n} cf={cf} q={q}: {max_delta} > {bound}");
        }
    }

    #[test]
    fn higher_q_means_tighter_bound_and_smaller_error() {
        let x = batch(&[2, 16, 16], 9);
        let chop = ChopCompressor::new(16, 4).unwrap();
        let rec_c = chop.roundtrip(&x).unwrap();
        let mut last_err = f64::INFINITY;
        let mut last_bound = f64::INFINITY;
        for q in [2usize, 6, 10] {
            let f = FmapCodec::new(16, 4, q).unwrap();
            let err = f.roundtrip(&x).unwrap().mse(&rec_c).unwrap();
            let bound = f.quantization_error_bound();
            assert!(bound < last_bound, "q={q}");
            assert!(err <= last_err + 1e-12, "q={q}: {err} > {last_err}");
            (last_err, last_bound) = (err, bound);
        }
    }

    #[test]
    fn bytes_roundtrip_matches_numeric_roundtrip_bitwise() {
        let f = FmapCodec::new(32, 4, 6).unwrap();
        let x = batch(&[2, 32, 32], 5);
        let bytes = f.encode_bytes(&x).unwrap();
        assert_eq!(bytes[0], STREAM_EBPC);
        let via_bytes = f.decode_bytes(&bytes, x.dims()).unwrap();
        let numeric = f.roundtrip(&x).unwrap();
        let a: Vec<u32> = via_bytes.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = numeric.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn byte_stream_compresses_smooth_activations() {
        // Smooth feature maps quantize to small integers → low bit planes
        // only → the stream beats raw f32 by well over 2×.
        let n = 32;
        let x = Tensor::from_vec(
            (0..4 * n * n)
                .map(|i| ((i % n) as f32 / n as f32).sin() * 0.5 + 0.5)
                .collect::<Vec<f32>>(),
            [4, n, n],
        )
        .unwrap();
        let f = FmapCodec::new(n, 4, 6).unwrap();
        let bytes = f.encode_bytes(&x).unwrap();
        let raw = x.numel() * 4;
        assert!(bytes.len() * 2 < raw, "{} vs {raw}", bytes.len());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let f = FmapCodec::new(16, 2, 4).unwrap();
        let x = batch(&[1, 16, 16], 2);
        let bytes = f.encode_bytes(&x).unwrap();
        assert!(f.decode_bytes(&[], x.dims()).is_err());
        assert!(f.decode_bytes(&[9, 0, 0], x.dims()).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(3);
        assert!(f.decode_bytes(&truncated, x.dims()).is_err());
    }
}
