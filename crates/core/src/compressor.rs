//! The DCT+Chop compressor (§3.2–3.4).
//!
//! Compression:   `Y  = (M·T_L) · A · (T_Lᵀ·Mᵀ) = LHS · A · RHS`   (Eq. 4)
//! Decompression: `A' = (T_Lᵀ·Mᵀ) · Y · (M·T_L) = RHS · Y · LHS`   (Eq. 6)
//!
//! Both directions are exactly two matrix multiplications, which is the
//! paper's entire portability argument: matmul is the one operator every
//! AI accelerator optimizes.

use aicomp_tensor::Tensor;

use crate::kernel::BlockKernel;
use crate::matrices::OperatorMatrices;
use crate::transform::{BlockTransform, Dct};
use crate::{CoreError, Result, BLOCK};

/// A Chop compressor generic over the block transform.
///
/// [`DctChop`] is the paper's compressor; constructing a `ChopCompressor`
/// with [`crate::zfp_transform::ZfpTransform`] gives the future-work
/// variant.
#[derive(Debug, Clone)]
pub struct ChopCompressor {
    n: usize,
    bs: usize,
    cf: usize,
    ops: OperatorMatrices,
    kernel: BlockKernel,
    transform_name: &'static str,
}

/// The paper's compressor: DCT-II + Chop with 8×8 blocks.
pub type DctChop = ChopCompressor;

impl ChopCompressor {
    /// Build a DCT+Chop compressor for `n×n` inputs with chop factor `cf`
    /// (8×8 blocks, as in the paper). The operator matrices are precomputed
    /// here — the "compile time" step.
    ///
    /// ```
    /// use aicomp_core::ChopCompressor;
    /// use aicomp_tensor::Tensor;
    ///
    /// let compressor = ChopCompressor::new(32, 4).unwrap(); // CR = 64/16 = 4
    /// let mut rng = Tensor::seeded_rng(1);
    /// let batch = Tensor::rand_uniform([2usize, 3, 32, 32], 0.0, 1.0, &mut rng);
    /// let compressed = compressor.compress(&batch).unwrap();
    /// assert_eq!(compressed.dims(), &[2, 3, 16, 16]);
    /// let restored = compressor.decompress(&compressed).unwrap();
    /// assert_eq!(restored.dims(), batch.dims());
    /// ```
    pub fn new(n: usize, cf: usize) -> Result<Self> {
        Self::with_transform(&Dct::new(BLOCK), n, cf)
    }

    /// Build a Chop compressor with an arbitrary block transform (the
    /// paper's future-work ZFP-transform variant uses this entry point).
    /// The block size must be 4, 8 or 16, the sizes the per-block kernel
    /// is built for; any other is [`CoreError::UnsupportedBlockSize`].
    pub fn with_transform(t: &dyn BlockTransform, n: usize, cf: usize) -> Result<Self> {
        let bs = t.block_size();
        let ops = OperatorMatrices::new(n, t.forward_matrix(), t.inverse_matrix(), cf)?;
        let kernel = BlockKernel::new(&ops, bs)?;
        Ok(ChopCompressor { n, bs, cf, ops, kernel, transform_name: t.name() })
    }

    /// Input resolution `n` (inputs are `[..., n, n]`).
    pub fn resolution(&self) -> usize {
        self.n
    }

    /// Block size (8 for the paper's configuration).
    pub fn block_size(&self) -> usize {
        self.bs
    }

    /// Chop factor `CF`.
    pub fn chop_factor(&self) -> usize {
        self.cf
    }

    /// Name of the underlying block transform.
    pub fn transform_name(&self) -> &'static str {
        self.transform_name
    }

    /// Side length of the compressed matrix: `CF·n/8`.
    pub fn compressed_side(&self) -> usize {
        self.ops.compressed_side()
    }

    /// Compression ratio (Eq. 3): `CR = bs² / CF²` (64/CF² for 8×8 blocks).
    pub fn compression_ratio(&self) -> f64 {
        (self.bs * self.bs) as f64 / (self.cf * self.cf) as f64
    }

    /// The precomputed operator matrices (exposed for the accelerator
    /// simulator, which must place them in on-chip memory).
    pub fn operators(&self) -> &OperatorMatrices {
        &self.ops
    }

    /// FLOPs to compress one `n×n` matrix (Eq. 5):
    /// `2n³CF/8·(CF/8 + 1) − n²·(CF/8 + CF²/64)`.
    ///
    /// Valid for the paper's 8×8 blocks; the general-block count is the sum
    /// of the two matmul FLOP counts, which tests verify agrees with this
    /// closed form when `bs == 8`.
    pub fn compress_flops(&self) -> u64 {
        let n = self.n as f64;
        let cf = self.cf as f64;
        let b = self.bs as f64;
        let v = 2.0 * n.powi(3) * cf / b * (cf / b + 1.0) - n * n * (cf / b + cf * cf / (b * b));
        v.round() as u64
    }

    /// FLOPs to decompress one `n×n` matrix (Eq. 7):
    /// `2n³CF/8·(CF/8 + 1) − n²·(CF/8 + 1)`.
    pub fn decompress_flops(&self) -> u64 {
        let n = self.n as f64;
        let cf = self.cf as f64;
        let b = self.bs as f64;
        let v = 2.0 * n.powi(3) * cf / b * (cf / b + 1.0) - n * n * (cf / b + 1.0);
        v.round() as u64
    }

    /// Compress a batch. Accepts `[n, n]`, `[C, n, n]` or `[BD, C, n, n]`;
    /// returns the same rank with the trailing two dims replaced by
    /// `CF·n/8`. All `BD·C` channel matrices are compressed in parallel —
    /// the `torch.matmul(LHS, torch.matmul(A, RHS))` broadcast of §3.3,
    /// run one 8×8 block at a time (`Y_b = LHS_b · (A_b · RHS_b)`, bit for
    /// bit the full product; see [`crate::matrices`] for the operators).
    pub fn compress(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input, self.n)?;
        self.kernel.compress(input)
    }

    /// [`compress`](Self::compress) into the caller's buffer: `out` gets
    /// the coefficients of `input`, plane after plane, and must hold
    /// exactly `BD·C·(CF·n/8)²` floats for a `[BD, C, n, n]` input (any
    /// leading dims, as for `compress`). A wrong input shape or output
    /// length is a [`CoreError::Tensor`] shape mismatch, and `out` is then
    /// left as it was. The bits are those of `compress`, which allocates
    /// and then runs this same pass.
    pub fn compress_into(&self, input: &Tensor, out: &mut [f32]) -> Result<()> {
        self.check_input(input, self.n)?;
        self.kernel.compress_into(input, out)
    }

    /// Decompress a batch of `[..., CF·n/8, CF·n/8]` tensors back to
    /// `[..., n, n]` — `A' = RHS · (Y · LHS)` (§3.4), one block at a time.
    pub fn decompress(&self, compressed: &Tensor) -> Result<Tensor> {
        self.check_input(compressed, self.compressed_side())?;
        self.kernel.decompress(compressed)
    }

    /// Convenience: compress then decompress (the training-loop usage in
    /// §4.1, where each batch is compressed and decompressed before the
    /// forward pass so accuracy impact can be studied).
    pub fn roundtrip(&self, input: &Tensor) -> Result<Tensor> {
        self.decompress(&self.compress(input)?)
    }

    fn check_input(&self, t: &Tensor, side: usize) -> Result<()> {
        let d = t.dims();
        if d.len() < 2 || d[d.len() - 1] != side || d[d.len() - 2] != side {
            return Err(CoreError::Tensor(aicomp_tensor::TensorError::ShapeMismatch {
                op: "chop compress/decompress",
                lhs: d.to_vec(),
                rhs: vec![side, side],
            }));
        }
        Ok(())
    }
}

/// Number of parallel block-level DCT+Chop runs for a `[BD, C, n, n]`
/// dataset (§3.2): `BD·C·n²/64`.
pub fn parallel_runs(bd: usize, c: usize, n: usize) -> usize {
    bd * c * n * n / (BLOCK * BLOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::dct2;
    use aicomp_tensor::matmul::matmul_flops;

    fn ramp(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|i| ((i % 37) as f32) / 7.0 - 2.0).collect(), dims.to_vec())
            .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(ChopCompressor::new(32, 4).is_ok());
        assert!(ChopCompressor::new(30, 4).is_err()); // 30 % 8 != 0
        assert!(ChopCompressor::new(32, 0).is_err());
        assert!(ChopCompressor::new(32, 9).is_err());
        // Block sizes outside 4, 8 and 16 have no kernel instance.
        for bs in [4, 8, 16] {
            assert!(ChopCompressor::with_transform(&Dct::new(bs), 32, bs / 2).is_ok());
        }
        assert_eq!(
            ChopCompressor::with_transform(&Dct::new(6), 24, 3).unwrap_err(),
            CoreError::UnsupportedBlockSize { block: 6 }
        );
    }

    #[test]
    fn compression_ratio_eq3() {
        for cf in 1..=8usize {
            let c = ChopCompressor::new(32, cf).unwrap();
            assert_eq!(c.compression_ratio(), 64.0 / (cf * cf) as f64);
        }
        // The paper's reported series: CF=2..7 → CR=16, 7.11, 4, 2.56, 1.78, 1.31.
        let crs: Vec<f64> =
            (2..=7).map(|cf| ChopCompressor::new(32, cf).unwrap().compression_ratio()).collect();
        let expect = [16.0, 64.0 / 9.0, 4.0, 2.56, 64.0 / 36.0, 64.0 / 49.0];
        for (got, want) in crs.iter().zip(expect.iter()) {
            assert!((got - want).abs() < 0.01, "{got} vs {want}");
        }
    }

    #[test]
    fn compressed_shape_is_cf_n_over_8() {
        let c = ChopCompressor::new(24, 5).unwrap();
        let x = ramp(&[2, 3, 24, 24]);
        let y = c.compress(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3, 15, 15]);
        let back = c.decompress(&y).unwrap();
        assert_eq!(back.dims(), &[2, 3, 24, 24]);
    }

    #[test]
    fn cf8_roundtrip_is_lossless() {
        let c = ChopCompressor::new(32, 8).unwrap();
        let x = ramp(&[1, 1, 32, 32]);
        let rec = c.roundtrip(&x).unwrap();
        assert!(rec.allclose(&x, 1e-4));
        assert_eq!(c.compression_ratio(), 1.0);
    }

    #[test]
    fn compress_equals_chopped_blockwise_dct() {
        // Cross-check the two-matmul formulation against the definition:
        // per 8×8 block, take DCT, keep the upper-left CF×CF.
        let n = 16;
        let cf = 3;
        let c = ChopCompressor::new(n, cf).unwrap();
        let x = ramp(&[n, n]);
        let y = c.compress(&x).unwrap();

        let blocks = x.to_blocks(8).unwrap();
        let nblk = n / 8;
        for bi in 0..nblk {
            for bj in 0..nblk {
                let blk_idx = bi * nblk + bj;
                let blk = Tensor::from_vec(
                    blocks.data()[blk_idx * 64..(blk_idx + 1) * 64].to_vec(),
                    [8, 8],
                )
                .unwrap();
                let d = dct2(&blk).unwrap();
                for i in 0..cf {
                    for j in 0..cf {
                        let got = y.at(&[bi * cf + i, bj * cf + j]);
                        let want = d.at(&[i, j]);
                        assert!((got - want).abs() < 1e-4, "block ({bi},{bj}) coeff ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn chop_is_idempotent() {
        // compress(decompress(compress(x))) == compress(x): chopping is a
        // projection.
        let c = ChopCompressor::new(16, 4).unwrap();
        let x = ramp(&[3, 16, 16]);
        let y1 = c.compress(&x).unwrap();
        let y2 = c.compress(&c.decompress(&y1).unwrap()).unwrap();
        assert!(y1.allclose(&y2, 1e-4));
    }

    #[test]
    fn reconstruction_error_decreases_with_cf() {
        let x = ramp(&[1, 1, 32, 32]);
        let mut last = f64::INFINITY;
        for cf in 1..=8usize {
            let c = ChopCompressor::new(32, cf).unwrap();
            let err = c.roundtrip(&x).unwrap().mse(&x).unwrap();
            assert!(err <= last + 1e-9, "cf={cf}: {err} > {last}");
            last = err;
        }
    }

    #[test]
    fn energy_never_increases() {
        // Chop discards coefficients of an orthonormal transform, so the
        // reconstruction's energy is bounded by the input's.
        let x = ramp(&[2, 1, 16, 16]);
        for cf in 1..8usize {
            let c = ChopCompressor::new(16, cf).unwrap();
            let rec = c.roundtrip(&x).unwrap();
            assert!(rec.sq_norm() <= x.sq_norm() + 1e-3, "cf={cf}");
        }
    }

    #[test]
    fn flops_formulas_match_matmul_counts() {
        // Eq. 5 / Eq. 7 must equal the exact two-matmul counts
        // (2mkn − mn per matmul: mults + adds with k−1 additions per dot).
        for (n, cf) in [(32usize, 2usize), (64, 4), (128, 7), (256, 5)] {
            let c = ChopCompressor::new(n, cf).unwrap();
            let cs = c.compressed_side();
            // compress: (n×n)·(n×cs) then (cs×n)·(n×cs)
            let compress = (matmul_flops(n, n, cs) - (n * cs) as u64)
                + (matmul_flops(cs, n, cs) - (cs * cs) as u64);
            assert_eq!(c.compress_flops(), compress, "Eq.5 n={n} cf={cf}");
            // decompress: (cs×cs)·(cs×n) then (n×cs)·(cs×n)
            let decompress = (matmul_flops(cs, cs, n) - (cs * n) as u64)
                + (matmul_flops(n, cs, n) - (n * n) as u64);
            assert_eq!(c.decompress_flops(), decompress, "Eq.7 n={n} cf={cf}");
        }
    }

    #[test]
    fn decompress_needs_fewer_flops_for_cf_below_8() {
        // §3.4: decompression requires fewer FLOPs than compression for CF < 8.
        for cf in 1..8usize {
            let c = ChopCompressor::new(64, cf).unwrap();
            assert!(c.decompress_flops() < c.compress_flops(), "cf={cf}");
        }
        let c = ChopCompressor::new(64, 8).unwrap();
        assert_eq!(c.decompress_flops(), c.compress_flops());
    }

    #[test]
    fn parallel_runs_formula() {
        assert_eq!(parallel_runs(100, 3, 64), 100 * 3 * 64 * 64 / 64);
    }

    #[test]
    fn rejects_wrong_input_side() {
        let c = ChopCompressor::new(32, 4).unwrap();
        assert!(c.compress(&Tensor::zeros([2, 3, 16, 16])).is_err());
        assert!(c.decompress(&Tensor::zeros([2, 3, 32, 32])).is_err());
    }

    #[test]
    fn compress_into_matches_compress() {
        use crate::zfp_transform::ZfpTransform;
        let codecs = [
            ChopCompressor::new(32, 3).unwrap(),
            ChopCompressor::with_transform(&ZfpTransform::new(), 32, 3).unwrap(),
        ];
        for c in &codecs {
            let cs = c.compressed_side();
            for dims in [vec![3, 32, 32], vec![2, 3, 32, 32]] {
                let x = ramp(&dims);
                let want: Vec<u32> =
                    c.compress(&x).unwrap().data().iter().map(|v| v.to_bits()).collect();
                // A NaN-filled buffer: every output float must be written.
                let mut out = vec![f32::NAN; x.numel() / (32 * 32) * cs * cs];
                c.compress_into(&x, &mut out).unwrap();
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{} {dims:?}", c.transform_name());

                // A wrong output length is typed and writes nothing.
                for len in [out.len() - 1, out.len() + 1, 0] {
                    let mut short = vec![f32::NAN; len];
                    let err = c.compress_into(&x, &mut short).unwrap_err();
                    assert!(matches!(err, CoreError::Tensor(_)), "{err}");
                    assert!(short.iter().all(|v| v.is_nan()));
                }
            }
            // A wrong input shape is typed too.
            for bad in [Tensor::zeros([3, 16, 16]), Tensor::zeros([32 * 32])] {
                let err = c.compress_into(&bad, &mut [0.0; 3 * 16 * 16]).unwrap_err();
                assert!(matches!(err, CoreError::Tensor(_)), "{err}");
            }
        }
    }

    #[test]
    fn constant_image_survives_any_cf() {
        // A constant image is pure DC; chop keeps the DC coefficient for
        // every CF ≥ 1, so reconstruction is exact.
        let x = Tensor::full([1, 1, 16, 16], 5.0);
        for cf in 1..=8usize {
            let c = ChopCompressor::new(16, cf).unwrap();
            let rec = c.roundtrip(&x).unwrap();
            assert!(rec.allclose(&x, 1e-4), "cf={cf}");
        }
    }
}
