//! Matrix multiplication kernels.
//!
//! The DCT+Chop compressor is *two matmuls per direction* (Eq. 4 and Eq. 6 in
//! the paper). The host codec runs them one 8×8 block at a time in
//! `aicomp_core`'s per-block kernel, and its operator matrices are placed,
//! not multiplied out; these general kernels run the simulated device
//! graphs (`accel::exec`) and train the networks. One serial kernel
//! (`gemm_panel`) runs over contiguous row-major buffers, and the callers
//! parallelize over row panels or batch slices with Rayon, following the
//! HPC guide idioms (chunked slices, no per-element bounds checks in the
//! inner loop). Called from a thread that already owns a core (a loader
//! worker, see `rayon::in_worker`), the same loops run inline; every panel
//! or slice is computed alone, so the result does not depend on the split.

use rayon::prelude::*;

use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Row-panel height processed per Rayon task.
const PAR_ROWS: usize = 32;
/// Cache block along the k dimension.
const BLOCK_K: usize = 64;

/// `C += A * B` for row-major buffers: A is m×k, B is k×n, C is m×n.
///
/// Serial kernel over one row panel, in cache-blocked i-k-j order: every
/// element sums its terms in ascending `p`. A zero entry of A (the sparse
/// left operators) skips its row update; the skipped term is `0·b = ±0`
/// for finite `b`, and adding `±0` to the accumulator never changes it (it
/// starts at `+0` and can never become `−0`), so the skip does not change
/// the bits for finite inputs.
fn gemm_panel(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let m = c.len() / n;
    for kk in (0..k).step_by(BLOCK_K) {
        let k_end = (kk + BLOCK_K).min(k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for p in kk..k_end {
                let aval = a_row[p];
                if aval == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aval * bv;
                }
            }
        }
    }
}

/// Raw GEMM: multiply row-major `a` (m×k) by `b` (k×n) into a fresh m×n buffer.
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "lhs buffer size");
    assert_eq!(b.len(), k * n, "rhs buffer size");
    let mut c = vec![0.0f32; m * n];
    if m * n * k < 32 * 32 * 32 {
        // Small problems: skip the per-call thread spawn and join.
        gemm_panel(a, b, &mut c, k, n);
        return c;
    }
    c.par_chunks_mut(PAR_ROWS * n)
        .zip(a.par_chunks(PAR_ROWS * k))
        .for_each(|(c_panel, a_panel)| gemm_panel(a_panel, b, c_panel, k, n));
    c
}

impl Tensor {
    /// 2-D matrix multiply. `self` must be `[m, k]`, `rhs` `[k, n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        let (ld, rd) = (self.dims(), rhs.dims());
        if ld.len() != 2 || rd.len() != 2 || ld[1] != rd[0] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: ld.to_vec(),
                rhs: rd.to_vec(),
            });
        }
        let (m, k, n) = (ld[0], ld[1], rd[1]);
        let c = gemm(self.data(), rhs.data(), m, k, n);
        Tensor::from_vec(c, [m, n])
    }

    /// Batched matmul with a shared right-hand side:
    /// `self` is `[batch, m, k]` (or `[m, k]`), `rhs` is `[k, n]`.
    /// Every batch slice is multiplied by the same `rhs` — this is exactly
    /// the compressor's `torch.matmul(A, RHS)` broadcast pattern.
    pub fn matmul_broadcast(&self, rhs: &Tensor) -> Result<Tensor> {
        let rd = rhs.dims();
        if rd.len() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_broadcast",
                lhs: self.dims().to_vec(),
                rhs: rd.to_vec(),
            });
        }
        let ld = self.dims();
        if ld.len() < 2 || ld[ld.len() - 1] != rd[0] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_broadcast",
                lhs: ld.to_vec(),
                rhs: rd.to_vec(),
            });
        }
        let k = rd[0];
        let n = rd[1];
        let m = ld[ld.len() - 2];
        let batch = self.numel() / (m * k);
        let mut out = vec![0.0f32; batch * m * n];
        out.par_chunks_mut(m * n)
            .zip(self.data().par_chunks(m * k))
            .for_each(|(c, a)| gemm_panel(a, rhs.data(), c, k, n));
        let mut dims = ld.to_vec();
        let len = dims.len();
        dims[len - 2] = m;
        dims[len - 1] = n;
        Tensor::from_vec(out, dims)
    }

    /// Batched matmul with a shared *left*-hand side:
    /// `lhs` is `[m, k]`, `self` is `[batch, k, n]` — the compressor's
    /// `torch.matmul(LHS, X)` broadcast pattern.
    pub fn lmatmul_broadcast(&self, lhs: &Tensor) -> Result<Tensor> {
        let ldm = lhs.dims();
        if ldm.len() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "lmatmul_broadcast",
                lhs: ldm.to_vec(),
                rhs: self.dims().to_vec(),
            });
        }
        let sd = self.dims();
        if sd.len() < 2 || sd[sd.len() - 2] != ldm[1] {
            return Err(TensorError::ShapeMismatch {
                op: "lmatmul_broadcast",
                lhs: ldm.to_vec(),
                rhs: sd.to_vec(),
            });
        }
        let m = ldm[0];
        let k = ldm[1];
        let n = sd[sd.len() - 1];
        let batch = self.numel() / (k * n);
        let mut out = vec![0.0f32; batch * m * n];
        out.par_chunks_mut(m * n)
            .zip(self.data().par_chunks(k * n))
            .for_each(|(c, x)| gemm_panel(lhs.data(), x, c, k, n));
        let mut dims = sd.to_vec();
        let len = dims.len();
        dims[len - 2] = m;
        dims[len - 1] = n;
        Tensor::from_vec(out, dims)
    }

    /// Fully batched matmul: `[batch, m, k] × [batch, k, n] → [batch, m, n]`.
    pub fn bmm(&self, rhs: &Tensor) -> Result<Tensor> {
        let (ld, rd) = (self.dims(), rhs.dims());
        if ld.len() != 3 || rd.len() != 3 || ld[0] != rd[0] || ld[2] != rd[1] {
            return Err(TensorError::ShapeMismatch {
                op: "bmm",
                lhs: ld.to_vec(),
                rhs: rd.to_vec(),
            });
        }
        let (batch, m, k, n) = (ld[0], ld[1], ld[2], rd[2]);
        let mut out = vec![0.0f32; batch * m * n];
        out.par_chunks_mut(m * n)
            .zip(self.data().par_chunks(m * k).zip(rhs.data().par_chunks(k * n)))
            .for_each(|(c, (a, b))| gemm_panel(a, b, c, k, n));
        Tensor::from_vec(out, [batch, m, n])
    }
}

/// FLOP count of an `m×k · k×n` matmul (multiply-add counted as 2 FLOPs),
/// used by the accelerator performance model.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The plain definition: every element sums all `k` of its terms, zeros
    /// included, from `+0` in ascending `p`. Reference for the equivalence
    /// tests.
    fn naive_gemm(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
        for (i, c_row) in c.chunks_mut(n).enumerate() {
            for (j, cv) in c_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                *cv = acc;
            }
        }
    }

    /// Reference for `batch` independent products: slice `s` of the
    /// result is `a[s]·b[s]`, where an operand with one slice is shared.
    fn dense_batched(a: &[f32], b: &[f32], batch: usize, m: usize, k: usize, n: usize) -> Vec<u32> {
        let mut c = vec![0.0f32; batch * m * n];
        let (a_stride, b_stride) =
            (if a.len() == m * k { 0 } else { m * k }, if b.len() == k * n { 0 } else { k * n });
        for (s, c_slice) in c.chunks_mut(m * n).enumerate() {
            let a_s = &a[s * a_stride..s * a_stride + m * k];
            let b_s = &b[s * b_stride..s * b_stride + k * n];
            naive_gemm(a_s, b_s, c_slice, k, n);
        }
        bits(&c)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A finite value drawn to exercise the sign of zero and gradual
    /// underflow: ±0, subnormals, tiny, unit-scale and large normals.
    fn finite_value(rng: &mut StdRng) -> f32 {
        let sign = if rng.gen_range(0u8..2) == 0 { 1.0 } else { -1.0 };
        sign * match rng.gen_range(0u8..8) {
            0 => 0.0,
            1 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
            2 => rng.gen_range(1e-30f32..1e-20),
            3 => rng.gen_range(1e10f32..1e20),
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// A k×n right operand of the given structure. Inside every nonzero
    /// span, entries still come from [`finite_value`], so spans hold ±0s.
    fn structured(kind: u8, k: usize, n: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut b = vec![0.0f32; k * n];
        let block = rng.gen_range(1usize..=8);
        let width = rng.gen_range(1usize..=8);
        for (p, row) in b.chunks_mut(n).enumerate() {
            let (lo, hi) = match kind {
                // Dense.
                0 => (0, n),
                // Block-diagonal, like the Chop operators: rows in blocks of
                // `block`, each block owning the next `width` columns.
                1 => ((p / block * width).min(n), ((p / block + 1) * width).min(n)),
                // Random span per row, some of them empty.
                2 => {
                    let lo = rng.gen_range(0..=n);
                    (lo, rng.gen_range(lo..=n))
                }
                // Random spans with every other row all zero.
                _ if p % 2 == 0 => (0, 0),
                _ => {
                    let lo = rng.gen_range(0..n);
                    (lo, rng.gen_range(lo + 1..=n))
                }
            };
            for v in &mut row[lo..hi] {
                *v = finite_value(rng);
            }
            // Some spans hold only ±0.
            if kind == 2 && rng.gen_range(0u8..4) == 0 {
                for (j, v) in row[lo..hi].iter_mut().enumerate() {
                    *v = if j % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
        }
        b
    }

    fn finite_vec(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| finite_value(rng)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Every entry point is bitwise the plain definition for finite
        /// inputs, whatever the zero structure of its operands (so skipping
        /// the zeros of A is bit-neutral), below and above the serial
        /// threshold (`m·k·n` vs `32³`), with k spanning up to three k
        /// blocks.
        #[test]
        fn gemm_matches_dense_reference(
            (m, k, n) in (1usize..48, 1usize..160, 1usize..48),
            batch in 1usize..4,
            kind in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = finite_vec(batch * m * k, &mut rng);
            let b = structured(kind, k, n, &mut rng);
            let bs: Vec<f32> = (0..batch).flat_map(|_| structured(kind, k, n, &mut rng)).collect();

            let a0 = Tensor::from_vec(a[..m * k].to_vec(), [m, k]).unwrap();
            let b0 = Tensor::from_vec(b.clone(), [k, n]).unwrap();
            let got = a0.matmul(&b0).unwrap();
            prop_assert_eq!(bits(got.data()), dense_batched(&a[..m * k], &b, 1, m, k, n));

            let ab = Tensor::from_vec(a.clone(), [batch, m, k]).unwrap();
            let got = ab.matmul_broadcast(&b0).unwrap();
            prop_assert_eq!(bits(got.data()), dense_batched(&a, &b, batch, m, k, n));

            let xb = Tensor::from_vec(bs.clone(), [batch, k, n]).unwrap();
            let got = xb.lmatmul_broadcast(&a0).unwrap();
            prop_assert_eq!(bits(got.data()), dense_batched(&a[..m * k], &bs, batch, m, k, n));

            let got = ab.bmm(&xb).unwrap();
            prop_assert_eq!(bits(got.data()), dense_batched(&a, &bs, batch, m, k, n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On a worker thread every entry point runs its panels or slices
        /// inline, in order, and the result is bit-equal to the split one,
        /// for single, even and odd batches.
        #[test]
        fn inline_matmuls_match_parallel(
            (m, k, n) in (1usize..48, 1usize..96, 1usize..48),
            batch in 1usize..10,
            kind in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::from_vec(finite_vec(batch * m * k, &mut rng), [batch, m, k]).unwrap();
            let b = Tensor::from_vec(structured(kind, k, n, &mut rng), [k, n]).unwrap();
            let lhs = Tensor::from_vec(finite_vec(m * k, &mut rng), [m, k]).unwrap();
            let xs: Vec<f32> = (0..batch).flat_map(|_| structured(kind, k, n, &mut rng)).collect();
            let xs = Tensor::from_vec(xs, [batch, k, n]).unwrap();
            let a_rows = Tensor::from_vec(a.data().to_vec(), [batch * m, k]).unwrap();
            let run = || {
                [
                    a_rows.matmul(&b).unwrap(),
                    a.matmul_broadcast(&b).unwrap(),
                    xs.lmatmul_broadcast(&lhs).unwrap(),
                    a.bmm(&xs).unwrap(),
                ]
                .map(|t| bits(t.data()))
            };
            let split = run();
            let inline = rayon::in_worker(run);
            for (s, i) in split.iter().zip(&inline) {
                prop_assert_eq!(s, i);
            }
        }
    }

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                c.set(&[i, j], acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| (x as f32) * 0.5).collect(), [3, 4]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.allclose(&naive(&a, &b), 1e-5));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..64).map(|x| x as f32).collect(), [8, 8]).unwrap();
        let i = Tensor::eye(8);
        assert!(a.matmul(&i).unwrap().allclose(&a, 1e-6));
        assert!(i.matmul(&a).unwrap().allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn large_matmul_matches_naive() {
        // Big enough to take the parallel path.
        let m = 70;
        let k = 80;
        let n = 90;
        let a = Tensor::from_vec((0..m * k).map(|x| ((x % 13) as f32) - 6.0).collect(), [m, k])
            .unwrap();
        let b = Tensor::from_vec((0..k * n).map(|x| ((x % 7) as f32) * 0.25).collect(), [k, n])
            .unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.allclose(&naive(&a, &b), 1e-2));
    }

    #[test]
    fn broadcast_matmul_matches_per_slice() {
        let batch = 3;
        let a =
            Tensor::from_vec((0..batch * 4 * 5).map(|x| (x as f32) * 0.1).collect(), [batch, 4, 5])
                .unwrap();
        let b = Tensor::from_vec((0..5 * 6).map(|x| (x as f32) * 0.01).collect(), [5, 6]).unwrap();
        let c = a.matmul_broadcast(&b).unwrap();
        assert_eq!(c.dims(), &[batch, 4, 6]);
        for s in 0..batch {
            let slice = Tensor::from_vec(a.data()[s * 20..(s + 1) * 20].to_vec(), [4, 5]).unwrap();
            let expect = slice.matmul(&b).unwrap();
            let got = Tensor::from_vec(c.data()[s * 24..(s + 1) * 24].to_vec(), [4, 6]).unwrap();
            assert!(got.allclose(&expect, 1e-5));
        }
    }

    #[test]
    fn left_broadcast_matches_per_slice() {
        let batch = 2;
        let lhs = Tensor::from_vec((0..3 * 4).map(|x| x as f32).collect(), [3, 4]).unwrap();
        let x =
            Tensor::from_vec((0..batch * 4 * 5).map(|x| (x as f32) * 0.1).collect(), [batch, 4, 5])
                .unwrap();
        let c = x.lmatmul_broadcast(&lhs).unwrap();
        assert_eq!(c.dims(), &[batch, 3, 5]);
        for s in 0..batch {
            let slice = Tensor::from_vec(x.data()[s * 20..(s + 1) * 20].to_vec(), [4, 5]).unwrap();
            let expect = lhs.matmul(&slice).unwrap();
            let got = Tensor::from_vec(c.data()[s * 15..(s + 1) * 15].to_vec(), [3, 5]).unwrap();
            assert!(got.allclose(&expect, 1e-5));
        }
    }

    #[test]
    fn bmm_matches_per_slice() {
        let a =
            Tensor::from_vec((0..2 * 3 * 4).map(|x| x as f32 * 0.1).collect(), [2, 3, 4]).unwrap();
        let b =
            Tensor::from_vec((0..2 * 4 * 2).map(|x| x as f32 * 0.2).collect(), [2, 4, 2]).unwrap();
        let c = a.bmm(&b).unwrap();
        assert_eq!(c.dims(), &[2, 3, 2]);
        for s in 0..2 {
            let sa = Tensor::from_vec(a.data()[s * 12..(s + 1) * 12].to_vec(), [3, 4]).unwrap();
            let sb = Tensor::from_vec(b.data()[s * 8..(s + 1) * 8].to_vec(), [4, 2]).unwrap();
            let expect = sa.matmul(&sb).unwrap();
            let got = Tensor::from_vec(c.data()[s * 6..(s + 1) * 6].to_vec(), [3, 2]).unwrap();
            assert!(got.allclose(&expect, 1e-5));
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }
}
