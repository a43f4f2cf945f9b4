//! The per-block codec kernel: both matmuls of Eq. 4 (or Eq. 6) on one
//! block at a time.
//!
//! `T_L` is block-diagonal and `M` keeps the upper-left `CF×CF` of every
//! block, so each operator of [`OperatorMatrices`] is one small block
//! repeated along its diagonal, and every output block depends only on its
//! own input block. That is §3.5.1's partial-serialization observation
//! taken down to a single block. With `K1..K4` the diagonal blocks of
//! `c_rhs` (bs×cf), `c_lhs` (cf×bs), `d_rhs` (cf×bs) and `d_lhs` (bs×cf),
//! the kernel computes for each `bs×bs` block `A_b` of the input:
//!
//! ```text
//! compress:    ar = A_b·K1   (bs×cf),   Y_b = K2·ar   (cf×cf)
//! decompress:  yl = Y_b·K3   (cf×bs),   A_b = K4·yl   (bs×bs)
//! ```
//!
//! Both products run in fixed-size arrays, const-generic over `(BS, CF)`,
//! with one `match` per call choosing the instance. Every element sums
//! from `+0` in ascending index with each product rounded to f32, exactly
//! as the matmul does, and the only terms the matmul has that the kernel
//! lacks are the off-block ones, `a·0 = ±0` for finite `a`. Adding `±0` to
//! an accumulator that starts at `+0` never changes it, so for finite input
//! the output is bit-identical to the two full matmuls (DESIGN.md §2.3).

use std::array;

use aicomp_tensor::{Tensor, TensorError};
use rayon::prelude::*;

use crate::matrices::OperatorMatrices;
use crate::{CoreError, Result};

/// Block sizes with a kernel instance: ZFP's 4, the paper's 8, and the 16
/// of the block-size ablation. `dispatch!` lists the same sizes.
pub(crate) const KERNEL_BLOCK_SIZES: [usize; 3] = [4, 8, 16];

/// Full-resolution elements (`planes·n²`) below which a call runs its
/// planes inline: under it, spawning and joining the split's threads costs
/// more than the work they share (`kernel_split` bench, DESIGN.md §2.4).
const INLINE_BELOW: usize = 1 << 19;

/// The diagonal blocks of one set of Chop operators, ready to run per block.
#[derive(Debug, Clone)]
pub(crate) struct BlockKernel {
    n: usize,
    bs: usize,
    cf: usize,
    /// Block of `c_rhs`, bs×cf row-major.
    k1: Vec<f32>,
    /// Block of `c_lhs`, cf×bs.
    k2: Vec<f32>,
    /// Block of `d_rhs`, cf×bs.
    k3: Vec<f32>,
    /// Block of `d_lhs`, bs×cf.
    k4: Vec<f32>,
}

/// Runs `$f::<BS, CF>$args` for the runtime `(bs, cf)`: one `match` over
/// every supported pair.
macro_rules! dispatch {
    ($bs:expr, $cf:expr, $f:ident $args:tt) => {
        dispatch!(@arms ($bs, $cf) $f $args;
            4 => [1 2 3 4]
            8 => [1 2 3 4 5 6 7 8]
            16 => [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16])
    };
    (@arms $key:tt $f:ident $args:tt; $($b:literal => [$($c:literal)*])*) => {
        match $key {
            $($(($b, $c) => $f::<$b, $c> $args,)*)*
            (bs, cf) => unreachable!("no kernel for bs={bs}, cf={cf}; checked at construction"),
        }
    };
}

impl BlockKernel {
    /// Take the diagonal block of each operator in `ops`, built for block
    /// size `bs`. Fails with [`CoreError::UnsupportedBlockSize`] when `bs`
    /// has no kernel instance, and with [`CoreError::NotBlockDiagonal`]
    /// when an operator is not one block repeated along its diagonal with
    /// zeros elsewhere.
    pub(crate) fn new(ops: &OperatorMatrices, bs: usize) -> Result<Self> {
        if !KERNEL_BLOCK_SIZES.contains(&bs) {
            return Err(CoreError::UnsupportedBlockSize { block: bs });
        }
        let n = ops.c_rhs.dims()[0];
        let cf = ops.compressed_side() * bs / n;
        Ok(BlockKernel {
            n,
            bs,
            cf,
            k1: diagonal_block(&ops.c_rhs, bs, cf, "c_rhs")?,
            k2: diagonal_block(&ops.c_lhs, cf, bs, "c_lhs")?,
            k3: diagonal_block(&ops.d_rhs, cf, bs, "d_rhs")?,
            k4: diagonal_block(&ops.d_lhs, bs, cf, "d_lhs")?,
        })
    }

    fn compressed_side(&self) -> usize {
        self.n / self.bs * self.cf
    }

    /// `Y = c_lhs · A · c_rhs` for every trailing `n×n` plane of `input`
    /// (shape already checked by the caller), into a new tensor.
    pub(crate) fn compress(&self, input: &Tensor) -> Result<Tensor> {
        let cs = self.compressed_side();
        let mut out = vec![0.0f32; input.numel() / (self.n * self.n) * cs * cs];
        self.compress_into(input, &mut out)?;
        with_plane(input, out, cs)
    }

    /// [`compress`](Self::compress) into `out`, which must hold exactly
    /// one `cs×cs` plane per `n×n` plane of `input`; any other length is a
    /// shape-mismatch error and `out` is left as it was.
    pub(crate) fn compress_into(&self, input: &Tensor, out: &mut [f32]) -> Result<()> {
        let cs = self.compressed_side();
        let want = input.numel() / (self.n * self.n) * cs * cs;
        if out.len() != want {
            return Err(CoreError::Tensor(TensorError::ShapeMismatch {
                op: "chop compress_into output",
                lhs: vec![out.len()],
                rhs: vec![want],
            }));
        }
        run_planes(input.numel(), || {
            dispatch!(self.bs, self.cf, compress_planes(self, input.data(), out))
        });
        Ok(())
    }

    /// `A' = d_lhs · Y · d_rhs` for every trailing `cs×cs` plane of
    /// `compressed` (shape already checked by the caller).
    pub(crate) fn decompress(&self, compressed: &Tensor) -> Result<Tensor> {
        let cs = self.compressed_side();
        let mut out = vec![0.0f32; compressed.numel() / (cs * cs) * self.n * self.n];
        run_planes(out.len(), || {
            dispatch!(self.bs, self.cf, decompress_planes(self, compressed.data(), &mut out))
        });
        with_plane(compressed, out, self.n)
    }
}

/// Run `planes`, a kernel pass over `elems` full-resolution elements,
/// inline on this thread when it is below [`INLINE_BELOW`]. Each plane is
/// computed alone, so the output does not depend on the choice.
fn run_planes(elems: usize, planes: impl FnOnce()) {
    if elems < INLINE_BELOW {
        rayon::in_worker(planes)
    } else {
        planes()
    }
}

/// `data` shaped like `like` with its trailing two dims set to `side`.
fn with_plane(like: &Tensor, data: Vec<f32>, side: usize) -> Result<Tensor> {
    let mut dims = like.dims().to_vec();
    let len = dims.len();
    dims[len - 2..].fill(side);
    Ok(Tensor::from_vec(data, dims)?)
}

/// Block 0 of the `rows×cols` operator `op`, whose diagonal holds
/// `rows/rb` blocks of `rb×cb`, row-major. Every diagonal block must equal
/// it bit for bit and every entry off the diagonal blocks must be zero.
///
/// Each row is checked as three runs: the entries left and right of its
/// diagonal block compare `== 0.0`, and the block's row compares bit for
/// bit with the same row of block 0.
fn diagonal_block(op: &Tensor, rb: usize, cb: usize, name: &'static str) -> Result<Vec<f32>> {
    let err = || CoreError::NotBlockDiagonal { operator: name };
    let d = op.dims();
    if d.len() != 2
        || !d[0].is_multiple_of(rb)
        || !d[1].is_multiple_of(cb)
        || d[0] / rb != d[1] / cb
    {
        return Err(err());
    }
    let cols = d[1];
    let data = op.data();
    let block: Vec<f32> = (0..rb).flat_map(|i| data[i * cols..][..cb].iter().copied()).collect();
    let repeated = data.chunks_exact(cols).enumerate().all(|(i, row)| {
        let (left, rest) = row.split_at(i / rb * cb);
        let (diag, right) = rest.split_at(cb);
        let want = &block[i % rb * cb..][..cb];
        diag.iter().zip(want).all(|(v, w)| v.to_bits() == w.to_bits())
            && left.iter().chain(right).all(|&v| v == 0.0)
    });
    if repeated {
        Ok(block)
    } else {
        Err(err())
    }
}

/// A row-major `R×C` slice as a fixed-size array.
fn fixed<const R: usize, const C: usize>(v: &[f32]) -> [[f32; C]; R] {
    array::from_fn(|i| array::from_fn(|j| v[i * C + j]))
}

/// One row of a matmul: `row·b`, each element summing `row[p]·b[p][j]`
/// from `+0` in ascending `p`, the matmul's order and operand order.
#[inline(always)]
fn row_times<const K: usize, const N: usize>(row: &[f32; K], b: &[[f32; N]; K]) -> [f32; N] {
    let mut acc = [0.0f32; N];
    for p in 0..K {
        for j in 0..N {
            acc[j] += row[p] * b[p][j];
        }
    }
    acc
}

/// Compress every `n×n` plane of `x` into the matching `cs×cs` plane of
/// `y`, one plane per parallel item, block by block: each row of `A_b` is
/// read in place, and each row of `Y_b` is written in place.
fn compress_planes<const BS: usize, const CF: usize>(k: &BlockKernel, x: &[f32], y: &mut [f32]) {
    let (k1, k2) = (fixed::<BS, CF>(&k.k1), fixed::<CF, BS>(&k.k2));
    let (n, cs) = (k.n, k.compressed_side());
    y.par_chunks_mut(cs * cs).zip(x.par_chunks(n * n)).for_each(|(y, x)| {
        for (x_rows, y_rows) in x.chunks_exact(BS * n).zip(y.chunks_exact_mut(CF * cs)) {
            for b in 0..n / BS {
                let mut ar = [[0.0f32; CF]; BS];
                for (p, ar_row) in ar.iter_mut().enumerate() {
                    *ar_row = row_times(
                        x_rows[p * n + b * BS..].first_chunk().expect("a block row"),
                        &k1,
                    );
                }
                for (r, k2_row) in k2.iter().enumerate() {
                    y_rows[r * cs + b * CF..][..CF].copy_from_slice(&row_times(k2_row, &ar));
                }
            }
        }
    });
}

/// Decompress every `cs×cs` plane of `y` into the matching `n×n` plane of
/// `x`, one plane per parallel item, block by block.
fn decompress_planes<const BS: usize, const CF: usize>(k: &BlockKernel, y: &[f32], x: &mut [f32]) {
    let (k3, k4) = (fixed::<CF, BS>(&k.k3), fixed::<BS, CF>(&k.k4));
    let (n, cs) = (k.n, k.compressed_side());
    x.par_chunks_mut(n * n).zip(y.par_chunks(cs * cs)).for_each(|(x, y)| {
        for (y_rows, x_rows) in y.chunks_exact(CF * cs).zip(x.chunks_exact_mut(BS * n)) {
            for b in 0..n / BS {
                let mut yl = [[0.0f32; BS]; CF];
                for (r, yl_row) in yl.iter_mut().enumerate() {
                    *yl_row = row_times(
                        y_rows[r * cs + b * CF..].first_chunk().expect("a block row"),
                        &k3,
                    );
                }
                for (p, k4_row) in k4.iter().enumerate() {
                    x_rows[p * n + b * BS..][..BS].copy_from_slice(&row_times(k4_row, &yl));
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{dct_matrix, BlockTransform};
    use crate::zfp_transform::ZfpTransform;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Chop operators for an `n×n` input: DCT-II blocks, or ZFP's
    /// non-orthonormal transform when `zfp` and `bs == 4`.
    fn operators(n: usize, bs: usize, cf: usize, zfp: bool) -> OperatorMatrices {
        if zfp && bs == 4 {
            let t = ZfpTransform::new();
            OperatorMatrices::new(n, t.forward_matrix(), t.inverse_matrix(), cf).unwrap()
        } else {
            let t = dct_matrix(bs);
            OperatorMatrices::new(n, &t, &t.transpose().unwrap(), cf).unwrap()
        }
    }

    /// The dense matmul the kernel replaces: every element sums all `k`
    /// of its terms, the off-block zeros included, from `+0` in ascending
    /// `p`.
    fn dense_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Eq. 4 or Eq. 6 as two dense matmuls per plane: `lhs·(x·rhs)`, with
    /// `x` made of `side×side` planes.
    fn dense_two_matmuls(x: &[f32], side: usize, lhs: &Tensor, rhs: &Tensor) -> Vec<u32> {
        let (out, k) = (lhs.dims()[0], lhs.dims()[1]);
        x.chunks_exact(side * side)
            .flat_map(|plane| {
                let xr = dense_matmul(plane, rhs.data(), side, side, out);
                dense_matmul(lhs.data(), &xr, out, k, out)
            })
            .map(f32::to_bits)
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
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

    /// The per-entry scan the row-wise [`diagonal_block`] replaced: it
    /// finds each entry's block with two integer divisions.
    fn diagonal_block_per_entry(
        op: &Tensor,
        rb: usize,
        cb: usize,
        name: &'static str,
    ) -> Result<Vec<f32>> {
        let err = || CoreError::NotBlockDiagonal { operator: name };
        let d = op.dims();
        if d.len() != 2
            || !d[0].is_multiple_of(rb)
            || !d[1].is_multiple_of(cb)
            || d[0] / rb != d[1] / cb
        {
            return Err(err());
        }
        let cols = d[1];
        let data = op.data();
        let block: Vec<f32> =
            (0..rb).flat_map(|i| data[i * cols..][..cb].iter().copied()).collect();
        let repeated = data.chunks_exact(cols).enumerate().all(|(i, row)| {
            row.iter().enumerate().all(|(j, &v)| {
                if i / rb == j / cb {
                    v.to_bits() == block[i % rb * cb + j % cb].to_bits()
                } else {
                    v == 0.0
                }
            })
        });
        if repeated {
            Ok(block)
        } else {
            Err(err())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both directions are bitwise the dense two-matmul reference for
        /// finite input, for every block size the codecs build, every chop
        /// factor, single and odd batches, DCT and ZFP operators, inline
        /// and split across threads. Batches this small run inline at top
        /// level too, so the split runs through `compress_planes` and
        /// `decompress_planes` directly.
        #[test]
        fn block_kernel_matches_dense_reference(
            bs_pick in 0usize..3,
            blocks in 1usize..6,
            cf_pick in 0usize..16,
            batch in 1usize..8,
            zfp in any::<bool>(),
            seed in 0u64..u64::MAX,
        ) {
            let bs = KERNEL_BLOCK_SIZES[bs_pick];
            let (n, cf) = (blocks * bs, cf_pick % bs + 1);
            let ops = operators(n, bs, cf, zfp);
            let kernel = BlockKernel::new(&ops, bs).unwrap();
            let cs = ops.compressed_side();
            let mut rng = StdRng::seed_from_u64(seed);
            let x: Vec<f32> = (0..batch * n * n).map(|_| finite_value(&mut rng)).collect();
            let y: Vec<f32> = (0..batch * cs * cs).map(|_| finite_value(&mut rng)).collect();
            let x = Tensor::from_vec(x, [batch, n, n]).unwrap();
            let y = Tensor::from_vec(y, [batch, cs, cs]).unwrap();

            let want_c = dense_two_matmuls(x.data(), n, &ops.c_lhs, &ops.c_rhs);
            let want_d = dense_two_matmuls(y.data(), cs, &ops.d_lhs, &ops.d_rhs);
            let got_c = kernel.compress(&x).unwrap();
            let got_d = kernel.decompress(&y).unwrap();
            prop_assert_eq!(got_c.dims(), &[batch, cs, cs]);
            prop_assert_eq!(got_d.dims(), &[batch, n, n]);
            prop_assert_eq!(bits(&got_c), want_c);
            prop_assert_eq!(bits(&got_d), want_d);

            // The planes split across threads, as a top-level call at or
            // above `INLINE_BELOW` runs them, into NaN-filled outputs.
            let (mut split_c, mut split_d) = (got_c.clone(), got_d.clone());
            split_c.data_mut().fill(f32::NAN);
            split_d.data_mut().fill(f32::NAN);
            dispatch!(bs, cf, compress_planes(&kernel, x.data(), split_c.data_mut()));
            dispatch!(bs, cf, decompress_planes(&kernel, y.data(), split_d.data_mut()));
            prop_assert_eq!(bits(&split_c), bits(&got_c));
            prop_assert_eq!(bits(&split_d), bits(&got_d));
        }

        /// The row-wise block-diagonal check gives the per-entry scan's
        /// verdict, and the same block, when one entry of an operator is
        /// set to `+0`, `−0`, a NaN or a subnormal, nudged by one ulp, or
        /// given `1e-30` more, inside a diagonal block (block 0 included)
        /// or off them.
        #[test]
        fn block_diagonal_check_matches_per_entry_reference(
            bs_pick in 0usize..3,
            blocks in 1usize..6,
            cf_pick in 0usize..16,
            zfp in any::<bool>(),
            which in 0usize..4,
            inside in any::<bool>(),
            kind in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let bs = KERNEL_BLOCK_SIZES[bs_pick];
            let (n, cf) = (blocks * bs, cf_pick % bs + 1);
            let ops = operators(n, bs, cf, zfp);
            let (name, mut op, rb, cb) = match which {
                0 => ("c_rhs", ops.c_rhs, bs, cf),
                1 => ("c_lhs", ops.c_lhs, cf, bs),
                2 => ("d_rhs", ops.d_rhs, cf, bs),
                _ => ("d_lhs", ops.d_lhs, bs, cf),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let i = rng.gen_range(0..blocks * rb);
            let block_col = if inside || blocks == 1 {
                i / rb
            } else {
                (i / rb + rng.gen_range(1..blocks)) % blocks
            };
            let j = block_col * cb + rng.gen_range(0..cb);
            let old = op.at(&[i, j]);
            let sign = if rng.gen_range(0u8..2) == 0 { 0 } else { 1 << 31 };
            let new = match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(0x7fc0_0000 | sign | rng.gen_range(0u32..0x40_0000)),
                3 => f32::from_bits(sign | rng.gen_range(1u32..0x0080_0000)),
                4 => f32::from_bits(old.to_bits() ^ 1),
                _ => old + 1e-30,
            };
            op.set(&[i, j], new);
            let verdict =
                |r: Result<Vec<f32>>| r.map(|b| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            prop_assert_eq!(
                verdict(diagonal_block(&op, rb, cb, name)),
                verdict(diagonal_block_per_entry(&op, rb, cb, name))
            );
        }
    }

    /// A NaN or ±Inf sample poisons exactly its own block, in both
    /// directions: every output of that block and no output of any other.
    /// (The dense matmul would spread it along its whole row and column,
    /// `±inf·0 = NaN`, which is why `store` rejects non-finite samples.)
    #[test]
    fn block_kernel_keeps_non_finite_input_in_its_block() {
        let (n, bs, cf) = (24, 8, 4);
        let ops = operators(n, bs, cf, false);
        let kernel = BlockKernel::new(&ops, bs).unwrap();
        let cs = ops.compressed_side();
        // Input block (1, 2) holds the bad sample in each direction.
        let cases = [(n, bs, bs + 3, 2 * bs + 5), (cs, cf, cf + 1, 2 * cf + 2)];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for (dir, &(side, blk, row, col)) in cases.iter().enumerate() {
                let clean: Vec<f32> =
                    (0..side * side).map(|i| (i % 29) as f32 * 0.25 - 3.0).collect();
                let mut dirty = clean.clone();
                dirty[row * side + col] = bad;
                let run = |v: Vec<f32>| {
                    let t = Tensor::from_vec(v, [side, side]).unwrap();
                    if dir == 0 { kernel.compress(&t) } else { kernel.decompress(&t) }.unwrap()
                };
                let (clean, dirty) = (run(clean), run(dirty));
                let out_blk = if dir == 0 { cf } else { bs };
                let out_side = clean.dims()[0];
                for (i, (c, d)) in clean.data().iter().zip(dirty.data()).enumerate() {
                    let (r, q) = (i / out_side, i % out_side);
                    if (r / out_blk, q / out_blk) == (row / blk, col / blk) {
                        assert!(!d.is_finite(), "{bad} dir {dir}: output ({r},{q}) = {d}");
                    } else {
                        assert_eq!(c.to_bits(), d.to_bits(), "{bad} dir {dir}: output ({r},{q})");
                    }
                }
            }
        }
    }

    #[test]
    fn construction_rejects_what_the_kernel_cannot_run() {
        let ops = operators(32, 8, 4, false);
        assert!(BlockKernel::new(&ops, 8).is_ok());
        for bs in [1, 2, 5, 6, 32] {
            assert_eq!(
                BlockKernel::new(&ops, bs).unwrap_err(),
                CoreError::UnsupportedBlockSize { block: bs }
            );
        }
        // A second diagonal block that differs from the first.
        let mut skewed = ops.clone();
        skewed.d_lhs.set(&[9, 4], 0.5);
        assert_eq!(
            BlockKernel::new(&skewed, 8).unwrap_err(),
            CoreError::NotBlockDiagonal { operator: "d_lhs" }
        );
        // A nonzero entry off the diagonal blocks.
        let mut leaky = ops.clone();
        leaky.c_rhs.set(&[0, 4], 1e-30);
        assert_eq!(
            BlockKernel::new(&leaky, 8).unwrap_err(),
            CoreError::NotBlockDiagonal { operator: "c_rhs" }
        );
        // Five 4×4 blocks do not tile as 8×8.
        let zfp = operators(20, 4, 3, true);
        assert!(BlockKernel::new(&zfp, 8).is_err());
    }
}
