//! The compressor's structural matrices (Fig. 4): the mask `M`, the
//! block-diagonal transform `T_L`, and the precomputed `LHS`/`RHS` products.
//!
//! [`OperatorMatrices::new`] does not multiply `M·T_L` out. Row `b·cf + r`
//! of `M` picks row `b·bs + r` of `T_L`, so each product is the transform's
//! first `cf` rows (or its inverse's first `cf` columns) placed once per
//! diagonal block, with zeros elsewhere: O(n²) stores instead of an O(n³)
//! matmul. Each placed value is `0.0 + v`, the dense product's one nonzero
//! term summed from `+0`, so the operators are the same bits the matmul
//! gives (`operators_match_dense_products`). [`mask_matrix`] and
//! [`block_diagonal`] remain the Fig. 4 surfaces.

use aicomp_tensor::Tensor;

use crate::{CoreError, Result};

/// Build the mask matrix `M` of Fig. 4.
///
/// `M` has shape `(cf·n/bs) × n`. It is composed of `cf×cf` identity blocks
/// placed every `bs` columns: row `b·cf + r` has a single 1 at column
/// `b·bs + r`. Multiplying `M·D·Mᵀ` retains the upper-left `cf×cf` entries
/// of every `bs×bs` block of `D` — the "chop".
pub fn mask_matrix(n: usize, bs: usize, cf: usize) -> Result<Tensor> {
    validate(n, bs, cf)?;
    let nblk = n / bs;
    let rows = cf * nblk;
    let mut m = Tensor::zeros([rows, n]);
    for b in 0..nblk {
        for r in 0..cf {
            m.set(&[b * cf + r, b * bs + r], 1.0);
        }
    }
    Ok(m)
}

/// Build the block-diagonal transform matrix `T_L` of Fig. 4: copies of the
/// `bs×bs` transform matrix `t` along the diagonal of an `n×n` zero matrix,
/// so `T_L·A·T_Lᵀ` applies the block transform to every `bs×bs` block of `A`.
pub fn block_diagonal(t: &Tensor, n: usize) -> Result<Tensor> {
    let d = t.dims();
    if d.len() != 2 || d[0] != d[1] {
        return Err(CoreError::Tensor(aicomp_tensor::TensorError::Constraint(
            "block_diagonal requires a square transform matrix".into(),
        )));
    }
    let bs = d[0];
    if !n.is_multiple_of(bs) {
        return Err(CoreError::BadResolution { n, block: bs });
    }
    let nblk = n / bs;
    let mut tl = Tensor::zeros([n, n]);
    for b in 0..nblk {
        for i in 0..bs {
            for j in 0..bs {
                tl.set(&[b * bs + i, b * bs + j], t.at(&[i, j]));
            }
        }
    }
    Ok(tl)
}

/// The four precomputed operator matrices of Eq. 4 / Eq. 6.
///
/// For an orthonormal transform (DCT), `d_lhs == c_rhs` and `d_rhs == c_lhs`
/// — the paper's "decompression is compression with LHS and RHS swapped".
/// For a non-orthonormal transform (ZFP block transform) the decompression
/// side uses the explicit inverse.
#[derive(Debug, Clone)]
pub struct OperatorMatrices {
    /// `LHS = M · F_L`, shape `(cf·n/bs) × n`. Applied on the left during
    /// compression.
    pub c_lhs: Tensor,
    /// `RHS = F_Lᵀ · Mᵀ`, shape `n × (cf·n/bs)`. Applied on the right during
    /// compression.
    pub c_rhs: Tensor,
    /// `F_L⁻¹ · Mᵀ`, shape `n × (cf·n/bs)`. Applied on the left during
    /// decompression.
    pub d_lhs: Tensor,
    /// `M · F_L⁻ᵀ`, shape `(cf·n/bs) × n`. Applied on the right during
    /// decompression.
    pub d_rhs: Tensor,
}

impl OperatorMatrices {
    /// Precompute all four operator matrices for resolution `n`, transform
    /// matrix `f` (bs×bs), its inverse `f_inv` (bs×bs), and chop factor
    /// `cf`.
    ///
    /// This is the work the paper performs at *compile time* on each
    /// accelerator: the products are computed once, then compression and
    /// decompression are each exactly two matmuls. A non-square `f`, or an
    /// `f_inv` of another shape, is a [`CoreError::Tensor`].
    pub fn new(n: usize, f: &Tensor, f_inv: &Tensor, cf: usize) -> Result<Self> {
        let bs = transform_size(f, f_inv)?;
        validate(n, bs, cf)?;
        let cs = cf * (n / bs);
        let (fd, fid) = (f.data(), f_inv.data());
        let mut c_lhs = vec![0.0f32; cs * n];
        let mut d_lhs = vec![0.0f32; n * cs];
        for b in 0..n / bs {
            for r in 0..cf {
                let row = b * cf + r;
                for j in 0..bs {
                    // `0.0 + v`, not `v`: the dense product sums its one
                    // nonzero term from +0, which turns a −0 into +0.
                    c_lhs[row * n + b * bs + j] = 0.0 + fd[r * bs + j];
                    d_lhs[(b * bs + j) * cs + row] = 0.0 + fid[j * bs + r];
                }
            }
        }
        let c_lhs = Tensor::from_vec(c_lhs, [cs, n])?;
        let d_lhs = Tensor::from_vec(d_lhs, [n, cs])?;
        Ok(OperatorMatrices { c_rhs: c_lhs.transpose()?, d_rhs: d_lhs.transpose()?, c_lhs, d_lhs })
    }

    /// Side length of the compressed matrix: `cf·n/bs`.
    pub fn compressed_side(&self) -> usize {
        self.c_lhs.dims()[0]
    }

    /// Total bytes of the operator matrices — what must fit in on-chip
    /// memory next to the data (drives the compile-time OOM behaviour).
    pub fn footprint_bytes(&self) -> usize {
        self.c_lhs.size_bytes()
            + self.c_rhs.size_bytes()
            + self.d_lhs.size_bytes()
            + self.d_rhs.size_bytes()
    }
}

/// The block size `bs` of a square `f` with an `f_inv` of the same shape.
fn transform_size(f: &Tensor, f_inv: &Tensor) -> Result<usize> {
    let d = f.dims();
    if d.len() != 2 || d[0] != d[1] {
        return Err(CoreError::Tensor(aicomp_tensor::TensorError::Constraint(format!(
            "operator construction requires a square transform matrix, got {d:?}"
        ))));
    }
    if f_inv.dims() != d {
        return Err(CoreError::Tensor(aicomp_tensor::TensorError::ShapeMismatch {
            op: "operator construction",
            lhs: d.to_vec(),
            rhs: f_inv.dims().to_vec(),
        }));
    }
    Ok(d[0])
}

fn validate(n: usize, bs: usize, cf: usize) -> Result<()> {
    if bs == 0 || n == 0 || !n.is_multiple_of(bs) {
        return Err(CoreError::BadResolution { n, block: bs });
    }
    if cf == 0 || cf > bs {
        return Err(CoreError::BadChopFactor { cf, block: bs });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{dct2, dct_matrix, BlockTransform, Dct};
    use crate::zfp_transform::ZfpTransform;

    /// The construction [`OperatorMatrices::new`] replaces: the four
    /// operators as dense products of `M` and `T_L` (Eq. 4 / Eq. 6).
    fn dense_products(n: usize, f: &Tensor, f_inv: &Tensor, cf: usize) -> OperatorMatrices {
        let m = mask_matrix(n, f.dims()[0], cf).unwrap();
        let fl = block_diagonal(f, n).unwrap();
        let fl_inv = block_diagonal(f_inv, n).unwrap();
        let mt = m.transpose().unwrap();
        OperatorMatrices {
            c_lhs: m.matmul(&fl).unwrap(),
            c_rhs: fl.transpose().unwrap().matmul(&mt).unwrap(),
            d_lhs: fl_inv.matmul(&mt).unwrap(),
            d_rhs: m.matmul(&fl_inv.transpose().unwrap()).unwrap(),
        }
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what} shape");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(got) == bits(want), "{what} differs from the dense product");
    }

    #[test]
    fn operators_match_dense_products() {
        let mut transforms: Vec<(String, Tensor, Tensor, usize)> = Vec::new();
        let mut add = |t: &dyn BlockTransform, n: usize| {
            let (f, f_inv) = (t.forward_matrix().clone(), t.inverse_matrix().clone());
            transforms.push((t.name().to_string(), f, f_inv, n));
        };
        for bs in [4, 8, 16] {
            for k in 1..=5 {
                add(&Dct::new(bs), bs * k);
            }
        }
        for k in 1..=5 {
            add(&ZfpTransform::new(), 4 * k);
        }
        // The dct2d codec family at the hostbench and Fig. 15 resolutions.
        add(&Dct::new(8), 256);
        add(&Dct::new(8), 512);
        // No real transform holds a −0, which the dense sum from +0 turns
        // into +0.
        let signed = Tensor::from_vec(vec![1.0, -0.0, -0.0, -1.0], [2, 2]).unwrap();
        transforms.push(("signed zeros".into(), signed.clone(), signed, 4));
        let mut checked = 0;
        for (name, f, f_inv, n) in &transforms {
            for cf in 1..=f.dims()[0] {
                let got = OperatorMatrices::new(*n, f, f_inv, cf).unwrap();
                let want = dense_products(*n, f, f_inv, cf);
                let at = format!("{name} n={n} cf={cf}");
                assert_same_bits(&got.c_lhs, &want.c_lhs, &format!("c_lhs {at}"));
                assert_same_bits(&got.c_rhs, &want.c_rhs, &format!("c_rhs {at}"));
                assert_same_bits(&got.d_lhs, &want.d_lhs, &format!("d_lhs {at}"));
                assert_same_bits(&got.d_rhs, &want.d_rhs, &format!("d_rhs {at}"));
                checked += 1;
            }
        }
        assert_eq!(checked, 176 + 2);
    }

    #[test]
    fn operator_construction_rejects_mismatched_transforms() {
        let t = dct_matrix(8);
        let wide = Tensor::zeros([8, 4]);
        let vector = Tensor::zeros([8]);
        let small = dct_matrix(4);
        for (f, f_inv) in [(&wide, &t), (&vector, &t), (&t, &small), (&t, &wide), (&small, &t)] {
            let err = OperatorMatrices::new(32, f, f_inv, 4).unwrap_err();
            assert!(
                matches!(err, CoreError::Tensor(_)),
                "{:?}/{:?}: {err}",
                f.dims(),
                f_inv.dims()
            );
        }
        let err = OperatorMatrices::new(32, &t, &small, 4).unwrap_err();
        assert!(err.to_string().contains("[8, 8]") && err.to_string().contains("[4, 4]"), "{err}");
        // A well-formed transform still gets the resolution and cf checks.
        assert!(matches!(
            OperatorMatrices::new(30, &t, &t, 4),
            Err(CoreError::BadResolution { n: 30, block: 8 })
        ));
        assert!(matches!(
            OperatorMatrices::new(32, &t, &t, 9),
            Err(CoreError::BadChopFactor { cf: 9, block: 8 })
        ));
    }

    #[test]
    fn mask_has_one_per_row() {
        let m = mask_matrix(24, 8, 5).unwrap();
        assert_eq!(m.dims(), &[15, 24]);
        // Each row has exactly one 1.
        for r in 0..15 {
            let row_sum: f32 = (0..24).map(|c| m.at(&[r, c])).sum();
            assert_eq!(row_sum, 1.0);
        }
        // Row b*cf+r hits column b*8+r (Fig. 4).
        assert_eq!(m.at(&[0, 0]), 1.0);
        assert_eq!(m.at(&[5, 8]), 1.0);
        assert_eq!(m.at(&[11, 17]), 1.0);
    }

    #[test]
    fn mask_rejects_bad_params() {
        assert!(mask_matrix(20, 8, 5).is_err()); // 20 % 8 != 0
        assert!(mask_matrix(24, 8, 0).is_err());
        assert!(mask_matrix(24, 8, 9).is_err());
    }

    #[test]
    fn block_diagonal_applies_per_block() {
        let t = dct_matrix(8);
        let n = 24;
        let tl = block_diagonal(&t, n).unwrap();
        // T_L · A · T_Lᵀ on a matrix whose (0,0) block is nonzero must equal
        // dct2 of that block in the same position, zeros elsewhere stay zero.
        let mut a = Tensor::zeros([n, n]);
        for i in 0..8 {
            for j in 0..8 {
                a.set(&[i, j], ((i * 8 + j) as f32).cos());
            }
        }
        let d = tl.matmul(&a).unwrap().matmul(&tl.transpose().unwrap()).unwrap();
        let block =
            Tensor::from_vec((0..64).map(|k| ((k) as f32).cos()).collect::<Vec<_>>(), [8, 8])
                .unwrap();
        let expect = dct2(&block).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert!((d.at(&[i, j]) - expect.at(&[i, j])).abs() < 1e-4);
            }
        }
        // Off-diagonal block positions remain zero.
        assert!(d.at(&[0, 10]).abs() < 1e-5);
        assert!(d.at(&[12, 12]).abs() < 1e-5);
    }

    #[test]
    fn operator_matrices_shapes() {
        let t = dct_matrix(8);
        let ti = t.transpose().unwrap();
        let ops = OperatorMatrices::new(32, &t, &ti, 4).unwrap();
        assert_eq!(ops.c_lhs.dims(), &[16, 32]);
        assert_eq!(ops.c_rhs.dims(), &[32, 16]);
        assert_eq!(ops.d_lhs.dims(), &[32, 16]);
        assert_eq!(ops.d_rhs.dims(), &[16, 32]);
        assert_eq!(ops.compressed_side(), 16);
        assert_eq!(ops.footprint_bytes(), 4 * 16 * 32 * 4);
    }

    #[test]
    fn orthonormal_transform_swaps_lhs_rhs() {
        // For DCT: d_lhs == c_rhs and d_rhs == c_lhs — the paper's Eq. 6.
        let t = dct_matrix(8);
        let ti = t.transpose().unwrap();
        let ops = OperatorMatrices::new(16, &t, &ti, 3).unwrap();
        assert!(ops.d_lhs.allclose(&ops.c_rhs, 1e-6));
        assert!(ops.d_rhs.allclose(&ops.c_lhs, 1e-6));
    }

    #[test]
    fn cf_equal_block_is_lossless_operator() {
        // With cf == bs the mask is a permutation-free identity and
        // LHS·RHS == I (no chop at all).
        let t = dct_matrix(8);
        let ti = t.transpose().unwrap();
        let ops = OperatorMatrices::new(16, &t, &ti, 8).unwrap();
        let prod = ops.d_lhs.matmul(&ops.c_lhs).unwrap();
        assert!(prod.allclose(&Tensor::eye(16), 1e-5));
    }
}
